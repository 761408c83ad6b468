"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adhoc_query --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed``; the workload runs a closed loop
for ``--seconds`` against the engine built from ``src/`` of the same
checkout, checks its outputs against oracles outside the clock, and
prints one JSON line last: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs an untraced and a traced phase
and reports the per-layer metrics.  Earlier lines carry the input
fingerprint and other context; every result is also appended to
``.perfbench-out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> the module that runs it.
WORKLOADS = {"adhoc_query": "adhoc", "ingest_views": "ingest", "serve_mixed": "serve_mixed"}


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(contract: dict, trace: bool) -> dict[str, str]:
    entries = contract["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def prepare_imports() -> None:
    """Import the engine from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no engine sources under {SRC}: nothing to benchmark")
    # The workloads run the engine as shipped: serial, tuple path.
    for variable in ("REPRO_PARALLEL", "REPRO_COLUMNAR"):
        os.environ.pop(variable, None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A terminated run still unwinds, so it stops the server it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    prepare_imports()
    import common
    from common import GateError, Result, RunConfig

    contract = load_contract()
    cfg = RunConfig(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    module = importlib.import_module(WORKLOADS[args.workload])
    started = time.time()
    try:
        result = module.run(cfg)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(Result(False, 1, 0).line())
        return 1

    want = expected_metrics(contract, cfg.trace)
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    if got != want:
        raise SystemExit(f"metric set {sorted(got.items())} != contract {sorted(want.items())}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        **result.info,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: value for name, (value, _) in result.metrics.items()},
    }
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with (common.OUT_DIR / "results.jsonl").open("a") as log:
        log.write(json.dumps(record) + "\n")
    for key, value in result.info.items():
        print(f"{key}: {value}")
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
