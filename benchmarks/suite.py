"""Unified scenario benchmark suite — the single instrument for scale/speed claims.

One runner sweeps every registered workload scenario
(:data:`repro.bench.workloads.SCENARIOS`) across the engine's
configuration axes —

* ``optimize`` level (``off`` vs. the cost-based ``safe`` rewrites),
* ``workers`` (serial vs. the 2-worker parallel engine),
* ``backend`` (immutable relation vs. ``SegmentStore`` snapshot),
* ``durability`` (WAL ``off`` / ``batch`` / fsync-per-``commit``),
* ``cache`` (the serving layer's plan/result cache on vs. off),
* ``columnar`` (tuple-at-a-time sweeps vs. the packed-column engine
  with compiled valuation programs, DESIGN.md §15),

and **asserts bit-identical results across every configuration before
timing anything** — same facts, same intervals, same lineage, same
probabilities; durable configurations additionally close, crash-recover
from disk and must reproduce the same state.  Only then are the rounds
timed, and a single ``BENCH_suite.json`` emitted with per-scenario
timings, derived ratios and environment capture
(``benchmarks/check_regression.py`` consumes it; the CPU-gated floors
live there).

Run::

    PYTHONPATH=src python -m benchmarks.suite --scale 0.1 --seed 7
    PYTHONPATH=src python -m benchmarks.suite --list
    PYTHONPATH=src python -m benchmarks.suite --scenarios uniform_setops delta_storm

Methodology details, the scenario catalog and how to add a scenario:
``docs/benchmarks.md``.  The per-PR records ``BENCH_pr1.json`` ..
``BENCH_pr6.json`` are frozen historical measurements superseded by
this suite.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.bench.workloads import Scenario, iter_scenarios, scenario_catalog
from repro.db import TPDatabase
from repro.prob.valuation import clear_valuation_cache
from repro.serve import QueryService
from repro.serve.protocol import relation_payload

try:  # package context: python -m benchmarks.suite, pytest
    from ._shared import environment_meta, warm_stats, write_record
except ImportError:  # script context: python benchmarks/suite.py
    from _shared import environment_meta, warm_stats, write_record

#: Bumped whenever the record layout changes; ``check_regression.py``
#: refuses records it does not understand.
SCHEMA_VERSION = 1

DEFAULT_ROUNDS = 3
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Config:
    """One point of the configuration sweep."""

    optimize: str = "off"  # "off" | "safe"
    workers: int = 1  # 1 | 2
    backend: str = "relation"  # "relation" | "store"
    durability: str = "off"  # "off" | "batch" | "commit"
    cache: bool = True  # serving result/plan cache on | off
    columnar: bool = False  # packed-column sweeps + compiled valuation

    @property
    def label(self) -> str:
        """The stable key this config gets in ``BENCH_suite.json``.

        ``cache`` and ``columnar`` only mark the label when
        they differ from the default, so every pre-existing label (and
        the committed records keyed by them) stays byte-identical.
        """
        label = f"{self.optimize}-{self.workers}w-{self.backend}-{self.durability}"
        if not self.cache:
            label += "-nocache"
        if self.columnar:
            label += "-columnar"
        return label


def configs_for(kind: str) -> list[Config]:
    """The configuration grid a scenario kind sweeps.

    The first entry is the *reference* configuration every other one
    must be bit-identical to.  Mutating kinds force the store backend
    (mutation converts to a store anyway); the durability axis only
    applies where there are transactions to log.
    """
    if kind == "query":
        return [
            Config(optimize=o, workers=w, backend=b)
            for o in ("off", "safe")
            for w in (1, 2)
            for b in ("relation", "store")
        ] + [
            Config(columnar=True),
            Config(optimize="safe", columnar=True),
        ]
    if kind == "delta-storm":
        return [
            Config(workers=w, backend="store", durability=d)
            for w in (1, 2)
            for d in ("off", "batch")
        ]
    if kind == "session":
        return [
            Config(optimize=o, workers=w, backend="store", durability=d)
            for o in ("off", "safe")
            for w in (1, 2)
            for d in ("off", "batch")
        ] + [Config(backend="store", columnar=True)]
    if kind == "commit-stream":
        return [
            Config(backend="store", durability=d)
            for d in ("off", "batch", "commit")
        ]
    if kind == "serving":
        return [
            Config(optimize="safe", backend="store", cache=cache)
            for cache in (True, False)
        ]
    raise ValueError(f"unknown scenario kind {kind!r}")


# ----------------------------------------------------------------------
# one scenario run under one configuration
# ----------------------------------------------------------------------
def _canonical(relation) -> tuple:
    """Order-independent canonical form of a result relation.

    ``(fact, start, end, lineage text, probability)`` rows, sorted by
    their repr (facts may contain None padding from outer joins).  Two
    bit-identical results — whatever the configuration that produced
    them — canonicalize to equal tuples.
    """
    if isinstance(relation, tuple):
        return relation  # already canonical (a serving wire payload)
    rows = [(t.fact, t.start, t.end, str(t.lineage), t.p) for t in relation]
    rows.sort(key=repr)
    return tuple(rows)


def _canonical_payload(payload: dict) -> tuple:
    """Canonicalize a serving wire payload to :func:`_canonical` form.

    The payload rows are ``[fact, start, end, lineage text, p]`` — the
    exact fields :func:`_canonical` extracts from a relation — so the
    serving configs join the same bit-identical fingerprint as every
    other config.
    """
    rows = [
        (tuple(fact), start, end, lineage, p)
        for fact, start, end, lineage, p in payload["rows"]
    ]
    rows.sort(key=repr)
    return tuple(rows)


def _setup(scenario: Scenario, config: Config, data_dir: Optional[Path]) -> TPDatabase:
    """Build the database for one run — outside the timed region.

    Registers the generated relations, converts them to stores when the
    backend (or a mutating kind) requires it, creates the maintained
    view, and pre-warms the statistics the optimizer would otherwise
    compute inside the clock (they are cached/maintained in production).
    """
    db = TPDatabase(
        parallel=config.workers,
        columnar=config.columnar,
        data_dir=data_dir,
        durability=config.durability if data_dir is not None else None,
    )
    for relation in scenario.relations.values():
        db.register(relation)
    mutating = scenario.spec.kind != "query"
    if config.backend == "store" or mutating:
        for name in scenario.relations:
            db.store(name)
    if scenario.view_query is not None:
        policy = "eager" if scenario.spec.kind == "delta-storm" else "deferred"
        db.create_view("v", scenario.view_query, policy=policy)
    if config.optimize != "off":
        for name in scenario.relations:
            db.stats_of(name)
    return db


def _percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (non-empty)."""
    return sorted_values[int(fraction * (len(sorted_values) - 1))]


def _workload(
    scenario: Scenario, config: Config, db: TPDatabase
) -> tuple[list, dict]:
    """Execute the scenario's workload; returns (result relations, extras).

    This is the timed region: queries for ``query`` scenarios, the
    mutation stream (plus maintained-view upkeep) for ``delta-storm``
    and ``commit-stream``, the full op stream for ``session``, and the
    concurrent-session request loop for ``serving``.  Durable runs end
    with ``flush()`` so the WAL cost is inside the clock.  ``extras``
    carries per-kind measurements (the serving scenario's request count,
    p50/p95 latency and requests/s); empty for the other kinds.
    """
    kind = scenario.spec.kind
    results: list = []
    extras: dict = {}
    if kind == "query":
        for query in scenario.queries:
            results.append(db.query(query, optimize=config.optimize))
    elif kind in ("delta-storm", "commit-stream"):
        for target, delta in scenario.deltas:
            db.apply(target, inserts=delta.inserts, deletes=delta.deletes)
        db.flush()
        if scenario.view_query is not None:
            results.append(db.relation("v"))
        for name in scenario.relations:
            results.append(db.relation(name))
    elif kind == "session":
        for op in scenario.session:
            if op.action == "query":
                results.append(db.query(op.target, optimize=config.optimize))
            elif op.action == "apply":
                db.apply(op.target, inserts=op.inserts, deletes=op.deletes)
            else:
                db.refresh()
        db.flush()
        if scenario.view_query is not None:
            results.append(db.relation("v"))
        for name in scenario.relations:
            results.append(db.relation(name))
    elif kind == "serving":
        # N pinned reader sessions re-run the query mix while a writer
        # session lands the commit batches; one reader re-pins per batch
        # so the epoch spread stays realistic.  Each read is measured as
        # request -> wire payload — the server builds the payload on
        # every response, cached or not.  Every payload joins the
        # fingerprint, so cache-on and cache-off are asserted
        # bit-identical across the whole interleaving.
        service = QueryService(db, cache_size=256 if config.cache else 0)
        readers = [service.open_session() for _ in range(3)]
        writer = service.open_session()
        latencies: list[float] = []
        read_seconds = 0.0  # wall clock of the read phases only
        for index, (target, delta) in enumerate(scenario.deltas):
            reads_started = time.perf_counter()
            for session_id in readers:
                for query in scenario.queries:
                    started = time.perf_counter()
                    response = service.execute(
                        session_id, query, optimize=config.optimize
                    )
                    payload = relation_payload(response.relation)
                    latencies.append(time.perf_counter() - started)
                    results.append(_canonical_payload(payload))
            read_seconds += time.perf_counter() - reads_started
            service.commit(
                writer, target, inserts=delta.inserts, deletes=delta.deletes
            )
            service.begin(readers[index % len(readers)])
        db.flush()
        for name in scenario.relations:
            results.append(db.relation(name))
        latencies.sort()
        # Throughput over the wall clock of the read phases.
        extras = {
            "requests": len(latencies),
            "p50_ms": round(_percentile(latencies, 0.50) * 1000, 4),
            "p95_ms": round(_percentile(latencies, 0.95) * 1000, 4),
            "rps": round(len(latencies) / read_seconds, 2)
            if read_seconds > 0
            else None,
            "cache": service.results.stats(),
        }
    else:  # pragma: no cover - configs_for already rejects unknown kinds
        raise ValueError(f"unknown scenario kind {kind!r}")
    return results, extras


def _run_once(
    scenario: Scenario,
    config: Config,
    tmp_root: Path,
    *,
    check_recovery: bool = False,
) -> tuple[float, tuple, dict]:
    """One full run: untimed setup, timed workload, canonical fingerprint.

    With ``check_recovery`` (the equivalence pass), a durable run is
    closed, reopened from disk and its recovered store states must
    canonicalize identically to the in-memory ones.
    """
    data_dir: Optional[Path] = None
    if config.durability != "off":
        data_dir = Path(tempfile.mkdtemp(dir=tmp_root, prefix=f"{scenario.name}-"))
    try:
        db = _setup(scenario, config, data_dir)
        try:
            clear_valuation_cache()
            started = time.perf_counter()
            results, extras = _workload(scenario, config, db)
            elapsed = time.perf_counter() - started
            fingerprint = tuple(_canonical(r) for r in results)
            store_states = {
                name: _canonical(db.relation(name)) for name in scenario.relations
            }
        finally:
            db.close()
        if check_recovery and data_dir is not None:
            with TPDatabase(data_dir=data_dir, durability=config.durability) as reopened:
                for name, expected in store_states.items():
                    recovered = _canonical(reopened.relation(name))
                    assert recovered == expected, (
                        f"{scenario.name} [{config.label}]: recovered store "
                        f"{name!r} diverges from the in-memory state"
                    )
        return elapsed, fingerprint, extras
    finally:
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def _ratios(kind: str, timings: dict[str, dict]) -> dict[str, float]:
    """Derived config-vs-config ratios (same machine, same process).

    Speedups (reference/variant > 1 is a win) and overheads
    (variant/reference > 1 is a cost); only emitted when both sides were
    measured and the denominator is non-zero.
    """

    def _min(label: str) -> Optional[float]:
        entry = timings.get(label)
        return None if entry is None else entry["min_s"]

    pairs: dict[str, tuple[Optional[float], Optional[float]]] = {}
    if kind == "query":
        base = _min("off-1w-relation-off")
        pairs["speedup_safe"] = (base, _min("safe-1w-relation-off"))
        pairs["speedup_parallel2"] = (base, _min("off-2w-relation-off"))
        pairs["speedup_columnar"] = (base, _min("off-1w-relation-off-columnar"))
        pairs["overhead_store_vs_relation"] = (_min("off-1w-store-off"), base)
    elif kind == "delta-storm":
        base = _min("off-1w-store-off")
        pairs["speedup_parallel2"] = (base, _min("off-2w-store-off"))
        pairs["overhead_batch_vs_off"] = (_min("off-1w-store-batch"), base)
    elif kind == "session":
        base = _min("off-1w-store-off")
        pairs["speedup_safe"] = (base, _min("safe-1w-store-off"))
        pairs["speedup_parallel2"] = (base, _min("off-2w-store-off"))
        pairs["speedup_columnar"] = (base, _min("off-1w-store-off-columnar"))
        pairs["overhead_batch_vs_off"] = (_min("off-1w-store-batch"), base)
    elif kind == "commit-stream":
        base = _min("off-1w-store-off")
        pairs["overhead_batch_vs_off"] = (_min("off-1w-store-batch"), base)
        pairs["overhead_commit_vs_off"] = (_min("off-1w-store-commit"), base)
    elif kind == "serving":
        pairs["speedup_cache"] = (
            _min("safe-1w-store-off-nocache"),
            _min("safe-1w-store-off"),
        )

    ratios: dict[str, float] = {}
    for name, (numerator, denominator) in pairs.items():
        if numerator is not None and denominator not in (None, 0):
            assert denominator is not None
            ratios[name] = round(numerator / denominator, 3)
    return ratios


def run_suite(
    *,
    scale: float,
    seed: int = DEFAULT_SEED,
    rounds: int = DEFAULT_ROUNDS,
    scenarios: Optional[list[str]] = None,
    verbose: bool = True,
) -> dict:
    """Run the sweep and return the ``BENCH_suite.json`` record.

    For every scenario: build it (seeded), run every configuration once
    and assert all results bit-identical to the reference configuration
    (durable configs also crash-recover identically), then time
    ``rounds`` rounds per configuration and derive the ratios.
    """
    record: dict = {
        "schema_version": SCHEMA_VERSION,
        "meta": environment_meta(
            scale=scale,
            suite="scenario-suite",
            seed=seed,
            rounds=rounds,
            equivalence="asserted",
            methodology=(
                "Every scenario is generated deterministically from "
                "(spec, scale, seed).  Per scenario the full configuration "
                "grid runs once and each result is asserted bit-identical "
                "(facts, intervals, lineage text, probabilities) to the "
                "reference configuration before any timing; durable "
                "configurations additionally close, recover from disk and "
                "must reproduce the same store states.  Then each "
                "configuration is timed for the recorded rounds on fresh "
                "setups (db construction, store conversion and statistics "
                "stay outside the clock; the valuation memo is cleared "
                "before every timed run) and min/mean are reported.  "
                "Ratios divide warm minima of the same scenario on the "
                "same machine in the same process."
            ),
            scenario_fingerprints={},
        ),
        "scenarios": {},
    }
    tmp_root = Path(tempfile.mkdtemp(prefix="bench-suite-"))
    try:
        for scenario in iter_scenarios(scenarios, scale=scale, seed=seed):
            spec = scenario.spec
            record["meta"]["scenario_fingerprints"][spec.name] = scenario.fingerprint()
            configs = configs_for(spec.kind)
            if verbose:
                print(
                    f"[{spec.name}] {spec.kind}, {scenario.total_tuples()} tuples, "
                    f"{len(configs)} configs"
                )
            reference: Optional[tuple] = None
            for config in configs:
                _, fingerprint, _ = _run_once(
                    scenario, config, tmp_root, check_recovery=True
                )
                if reference is None:
                    reference = fingerprint
                else:
                    assert fingerprint == reference, (
                        f"{spec.name} [{config.label}]: results diverge from "
                        f"the reference configuration {configs[0].label} — "
                        f"refusing to time a non-equivalent configuration"
                    )
            assert reference is not None
            timings: dict[str, dict] = {}
            for config in configs:
                runs = [
                    _run_once(scenario, config, tmp_root) for _ in range(rounds)
                ]
                timings[config.label] = warm_stats([run[0] for run in runs])
                # Per-kind extras (the serving scenario's latency
                # percentiles and throughput) from the fastest round —
                # consistent with min_s being the headline number.
                best_extras = min(runs, key=lambda run: run[0])[2]
                if best_extras:
                    timings[config.label].update(best_extras)
                if verbose:
                    print(
                        f"  {config.label:<28} min {timings[config.label]['min_s']:.6f}s"
                    )
            entry = {
                "description": spec.description,
                "kind": spec.kind,
                "params": {
                    "key_distribution": spec.key_distribution,
                    "interval_profile": spec.interval_profile,
                    "n_relations": spec.n_relations,
                    "total_tuples": scenario.total_tuples(),
                    "queries": list(scenario.queries),
                    "n_batches": len(scenario.deltas),
                    "session_ops": len(scenario.session),
                },
                "equivalence": {
                    "asserted": True,
                    "configs": [config.label for config in configs],
                    "reference": configs[0].label,
                    "result_rows": sum(len(part) for part in reference),
                },
                "timings": timings,
                "ratios": _ratios(spec.kind, timings),
            }
            record["scenarios"][spec.name] = entry
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return record


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The suite's CLI (exposed for the doc-consistency tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Sweep the scenario catalog across engine configurations, "
        "assert cross-config result equivalence, and write BENCH_suite.json.",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale factor (1.0 = the committed record's size)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"generator seed (default {DEFAULT_SEED}); same seed, same inputs",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=DEFAULT_ROUNDS,
        help=f"timed rounds per configuration (default {DEFAULT_ROUNDS})",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run only these scenarios (default: the full catalog)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_suite.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the scenario catalog and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-config progress lines"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: run the sweep and write the record."""
    args = build_parser().parse_args(argv)
    if args.list:
        for name, spec in scenario_catalog().items():
            print(f"{name:<22} [{spec.kind}] {spec.description}")
        return 0
    if args.rounds < 1:
        build_parser().error(f"--rounds must be positive, got {args.rounds}")
    record = run_suite(
        scale=args.scale,
        seed=args.seed,
        rounds=args.rounds,
        scenarios=args.scenarios,
        verbose=not args.quiet,
    )
    write_record(record, args.out)
    print(
        f"wrote {args.out}  (scale={args.scale}, seed={args.seed}, "
        f"cpu_count={record['meta']['cpu_count']}, "
        f"{len(record['scenarios'])} scenarios, equivalence asserted)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
