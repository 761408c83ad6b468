"""Compare two sets of benchmark results, per workload and metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Both files are result logs written by ``run.py`` (``.perfbench-out/
results.jsonl``).  For every workload and end-to-end metric it prints
each side's median and quartiles and whether the new median is worse
than the base by more than the metric's bound in ``BENCHMARK.json``.
The reported times are scaled by an interpreter-speed probe (see
``METRICS.md``); below each scaled line it prints the sides' medians of
the measured, unscaled values, which should move the same way.
It refuses (exit 2) when a workload/seed pair was run on different
inputs on the two sides: their fingerprints differ, so the generator
changed and the numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def fingerprints(records: list[dict]) -> dict[tuple, set]:
    seen: dict[tuple, set] = {}
    for record in records:
        seen.setdefault((record["workload"], record["seed"]), set()).add(
            record.get("fingerprint")
        )
    return seen


def unscaled(records: list[dict], workload: str, name: str) -> list[float]:
    """The measured (not speed-scaled) values of an end-to-end metric."""
    return [
        r["unscaled"][name] for r in records
        if r["workload"] == workload and not r["trace"] and name in r.get("unscaled", {})
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(arg)) for arg in argv)
    base_fp, new_fp = fingerprints(base), fingerprints(new)
    clashes = [
        key
        for key in base_fp.keys() | new_fp.keys()
        if len(base_fp.get(key, set()) | new_fp.get(key, set())) > 1
    ]
    if clashes:
        for workload, seed in sorted(clashes):
            print(f"refusing: {workload} seed {seed} ran on different inputs", file=sys.stderr)
        return 2

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressions = 0
    for workload in sorted({r["workload"] for r in base + new}):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["metrics"][name] for r in records
                 if r["workload"] == workload and not r["trace"] and name in r["metrics"]]
                for records in (base, new)
            ]
            if not all(sides):
                continue
            (b1, b2, b3), (n1, n2, n3) = quartiles(sides[0]), quartiles(sides[1])
            change = (n2 - b2) / b2 if metric["better"] == "lower" else (b2 - n2) / b2
            worse = change > metric["bound"]
            regressions += worse
            print(
                f"{workload:13} {name:14} base {b2:10.4g} [{b1:.4g}, {b3:.4g}] "
                f"new {n2:10.4g} [{n1:.4g}, {n3:.4g}] "
                f"worse by {change:+.1%} (bound {metric['bound']:.0%})"
                f"{'  REGRESSION' if worse else ''}"
            )
            raw = [unscaled(records, workload, name) for records in (base, new)]
            if all(raw):
                b, n = statistics.median(raw[0]), statistics.median(raw[1])
                print(
                    f"{'':13} {'  unscaled':14} base {b:10.4g} "
                    f"new {n:10.4g} ({(n - b) / b:+.1%})"
                )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
