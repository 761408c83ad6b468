"""``adhoc_query``: one analyst, a seeded stream of rarely repeated queries.

Eight base relations (four generator families, two relations each) are
loaded from CSV into a default :class:`TPDatabase` (serial, tuple path).
The stream is ~60 % two-operand set operations, ~20 % filtered 3-way
chains run with ``optimize='safe'`` and ~20 % inner / left-outer joins,
sent back to back (a closed loop with one client).
"""

from __future__ import annotations

import gc
import itertools
import shutil
from collections import Counter
from contextlib import nullcontext

from common import (
    P95_MIN_SAMPLES,
    SETUP_REPS,
    GateError,
    Result,
    RunConfig,
    SpeedProbe,
    check_equal,
    closed_loop,
    peak_rss_mb,
    put_end_to_end,
    run_dir,
    timed_setup,
)
from inputs import (
    Family,
    build_family,
    fingerprint_inputs,
    rng,
    write_csvs,
)
from layers import TracedPhase, in_process_coverage, put_layer_metrics
from tracer import IN_PROCESS_WRAPS, SpanReport, Tracer, clock

from repro.core.errors import TPError
from repro.core.setops import tp_set_operation
from repro.db.database import TPDatabase
from repro.db.io import load_csv

NAME = "adhoc_query"
FAMILIES = (
    Family(("ua", "ub"), "uniform", "short", 2500, 50),
    Family(("ma", "mb"), "uniform", "mixed", 2000, 30),
    Family(("za", "zb"), "skewed", "short", 3000, 60),
    Family(("ca", "cb"), "clustered", "short", 2000, 40),
)
#: Selection keys: every family has at least this many (k0, k1, ...).
KEYS = 30
SETOPS = {"|": "union", "&": "intersect", "-": "except"}
JOINS = ("JOIN", "LEFT OUTER JOIN")
#: The kind of each query in a round of ten: 60 % set operations,
#: 20 % filtered chains, 20 % joins.
ROUND = ("setop", "setop", "chain", "setop", "join") * 2
#: Queries fingerprinted (the stream itself is unbounded).
FINGERPRINT_QUERIES = 2000
#: Per kind, the first query and every CHECK_EVERY-th after it are kept
#: for the gate, up to a cap per kind.  The caps are small because kept
#: results stay live through the timed loop, where every full collection
#: traverses them.
CHECK_EVERY = 5
CHECK_CAP = {"setop": 4, "chain": 2, "join": 2}


def _cycle(draw, items: list):
    """Endless seeded permutations of ``items``: each appears once per cycle."""
    while True:
        order = list(items)
        draw.shuffle(order)
        yield from order


def query_stream(cfg: RunConfig, names: list[str]):
    """Endless (kind, text, optimize level, operands) tuples.

    Kinds follow ROUND exactly; set operations and joins cycle through
    every operand pair in a seeded order, so every run sees nearly the
    same mix of relation sizes and profiles and texts rarely repeat
    within a run.
    """
    draw = rng(cfg, NAME, "stream")
    pairs = list(itertools.permutations(names, 2))
    setops = _cycle(draw, [(a, op, b) for a, b in pairs for op in sorted(SETOPS)])
    joins = _cycle(draw, [(a, kind, b) for a, b in pairs for kind in JOINS])
    for kind in itertools.cycle(ROUND):
        if kind == "setop":
            a, op, b = next(setops)
            yield "setop", f"{a} {op} {b}", "off", (SETOPS[op], a, b)
        elif kind == "chain":
            a, b, c = draw.sample(names, 3)
            op1, op2 = draw.choice("|&-"), draw.choice("|&-")
            key = f"k{draw.randrange(KEYS)}"
            yield "chain", f"(({a} {op1} {b}) {op2} {c})[k='{key}']", "safe", ()
        else:
            a, join, b = next(joins)
            yield "join", f"{a} {join} {b} ON k", "off", ()


def setup(paths) -> TPDatabase:
    db = TPDatabase()
    for name, path in paths.items():
        db.register(load_csv(path, name=name))
    for name in paths:
        db.stats_of(name)
        db.relation(name).sorted_tuples()
    return db


class Kept:
    """The query results held back for the gate.

    Per kind, the first result and every CHECK_EVERY-th after it, up to
    CHECK_CAP, so every kind of query reaches its oracle.
    """

    def __init__(self) -> None:
        self.seen: Counter = Counter()
        self.held: Counter = Counter()
        self.results: list = []

    def offer(self, query: tuple, result) -> None:
        kind, text, _, operands = query
        self.seen[kind] += 1
        if (self.seen[kind] - 1) % CHECK_EVERY == 0 and self.held[kind] < CHECK_CAP[kind]:
            self.held[kind] += 1
            self.results.append((kind, text, operands, result))


def runner(db: TPDatabase, tracer=None, kept: Kept | None = None):
    """The closed loop's op: one query of the stream."""

    def run_op(query: tuple) -> str | None:
        _, text, level, _ = query
        try:
            with tracer.span("op.query") if tracer is not None else nullcontext():
                result = db.query(text, optimize=level)
        except TPError:
            return None
        if kept is not None:
            kept.offer(query, result)
        return "read"

    return run_op


def gate(db: TPDatabase, kept: Kept) -> dict[str, int]:
    """Every kept result against its oracle; a mismatch aborts the run.

    Returns the number of results checked per kind.
    """
    missing = sorted(set(CHECK_CAP) - set(kept.held))
    if missing:
        raise GateError(f"no {', '.join(missing)} result was kept for the correctness gate")
    for kind, text, operands, result in kept.results:
        if kind == "setop":
            op, a, b = operands
            oracle = tp_set_operation(op, db.relation(a), db.relation(b), fused=False)
            check_equal(text, result, oracle)
        elif kind == "chain":
            check_equal(text, result, db.query(text, optimize="off"))
        else:
            oracle = db.query(text, join_algorithm="NAIVE-SWEEP")
            check_equal(text, result, oracle, lineage=False, exact=False)
    return dict(kept.held)


def prepare(cfg: RunConfig, work) -> tuple[dict, str]:
    """Write the CSV inputs; (paths by relation name, input fingerprint)."""
    relations = {}
    for index, family in enumerate(FAMILIES):
        relations.update(build_family(family, cfg, f"adhoc-{index}"))
    paths = write_csvs(relations, work / "csv")
    head = list(itertools.islice(query_stream(cfg, sorted(paths)), FINGERPRINT_QUERIES))
    return paths, fingerprint_inputs(paths, head)


def run(cfg: RunConfig) -> Result:
    work = run_dir(NAME, cfg.seed)
    try:
        paths, fingerprint = prepare(cfg, work)
        names = sorted(paths)

        reps = SETUP_REPS if not cfg.trace else 1
        probe = SpeedProbe()
        setups, db = timed_setup(reps, lambda: setup(paths), probe=probe)
        stream = query_stream(cfg, names)
        kept = Kept()
        result = Result(True, 0, 0, info={"fingerprint": fingerprint})
        gc.collect()
        if not cfg.trace:
            loop = closed_loop(
                stream, runner(db, kept=kept), cfg.seconds,
                min_reads=P95_MIN_SAMPLES, probe=probe,
            )
            put_end_to_end(
                result,
                setups=setups,
                loop=loop,
                rss_mb=peak_rss_mb(),
                probe=probe,
            )
            attempted, failed = loop.attempted, loop.failed
        else:
            plain = closed_loop(stream, runner(db), cfg.seconds / 2, min_reads=0)
            gc.collect()
            tracer = Tracer()
            tracer.install(IN_PROCESS_WRAPS)
            window_start = clock()
            try:
                traced = closed_loop(
                    stream, runner(db, tracer, kept), cfg.seconds / 2, min_reads=0
                )
            finally:
                tracer.uninstall()
            report = SpanReport(tracer.spans, tracer.gc_pauses, window_start, clock())
            tracer.dump(work.parent / f"trace-{NAME}-seed{cfg.seed}.jsonl")
            n_ops, op_ns, covered = in_process_coverage(report, ("op.query",))
            put_layer_metrics(
                result,
                TracedPhase(
                    report,
                    n_ops,
                    op_ns,
                    covered,
                    plain_ops_per_s=plain.done / (plain.wall_ns / 1e9),
                    traced_ops_per_s=traced.done / (traced.wall_ns / 1e9),
                ),
            )
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        result.attempted, result.failed = attempted, failed
        result.info["checked"] = gate(db, kept)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
