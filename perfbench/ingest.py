"""``ingest_views``: a stream of small transactions under maintained views.

One client commits ~20-row transactions (half deletes) into two
store-backed relations of a durable database (WAL level ``batch``, no
fsync per commit, the same on every run), while an eager view
``ia - ib`` and a deferred view ``ia JOIN ib ON k`` are maintained.
After every 1-2 commits it reads one view through a key selection.
Latencies are the sandbox's, not a storage device's.
"""

from __future__ import annotations

import gc
import itertools
import shutil
from contextlib import nullcontext

from common import (
    P95_MIN_SAMPLES,
    SETUP_REPS,
    GateError,
    Result,
    RunConfig,
    bytes_written,
    SpeedProbe,
    check_equal,
    closed_loop,
    median,
    ms,
    peak_rss_mb,
    put_end_to_end,
    run_dir,
    timed_setup,
)
from inputs import (
    Family,
    build_family,
    delta_stream,
    fingerprint_inputs,
    rng,
    write_csvs,
)
from layers import TracedPhase, in_process_coverage, put_layer_metrics
from tracer import IN_PROCESS_WRAPS, SpanReport, Tracer, clock

from repro.core.errors import TPError
from repro.db.database import TPDatabase
from repro.db.io import load_csv
from repro.store import store_state

NAME = "ingest_views"
FAMILIES = (
    Family(("ia",), "uniform", "short", 2000, 40),
    Family(("ib",), "uniform", "short", 2000, 40),
)
VIEWS = {"v_diff": ("ia - ib", "eager"), "v_join": ("ia JOIN ib ON k", "deferred")}
KEYS = 40
#: Ops fingerprinted (the stream itself is unbounded).
FINGERPRINT_OPS = 2000


def op_stream(cfg: RunConfig, relations: dict):
    """Endless ("commit", store, delta) and ("read", query text) ops.

    Commits alternate between the stores and reads between the views,
    with one then two commits before each read, so every run sees the
    same mix; the seed draws the data, the deltas and the read keys.
    """
    draw = rng(cfg, NAME, "script")
    deltas = {
        family.names[0]: delta_stream(
            family, cfg, f"ingest-{index}", relations[family.names[0]]
        )
        for index, family in enumerate(FAMILIES)
    }
    stores = itertools.cycle(sorted(deltas))
    views = itertools.cycle(sorted(VIEWS))
    for commits in itertools.cycle((1, 2)):
        for _ in range(commits):
            store = next(stores)
            yield "commit", store, next(deltas[store])
        yield "read", f"{next(views)}[k='k{draw.randrange(KEYS)}']"


class Ingest:
    """One durable database with its views, built from the CSV inputs."""

    _ids = itertools.count()

    def __init__(self, paths, data_root) -> None:
        self.data_dir = data_root / f"db{next(self._ids)}"
        db = self.db = TPDatabase(data_dir=self.data_dir, durability="batch")
        for name, path in paths.items():
            db.register(load_csv(path, name=name))
            db.store(name)
        for view, (definition, policy) in VIEWS.items():
            db.create_view(view, definition, policy=policy)
            db.query(view)
        # No optimizer statistics: the view reads run unoptimized, and a
        # StoreStatistics maintainer pins the change log until it is next
        # asked for statistics, which this workload never does.

    def close(self) -> None:
        self.db.close()


class Client:
    """The closed loop's op against one database; counts committed delta rows."""

    def __init__(self, db: TPDatabase, tracer=None) -> None:
        self.db, self.tracer, self.rows = db, tracer, 0

    def __call__(self, op: tuple) -> str | None:
        kind = op[0]
        try:
            with self.tracer.span(f"op.{kind}") if self.tracer is not None else nullcontext():
                if kind == "commit":
                    _, store, delta = op
                    self.db.apply(store, inserts=delta.inserts, deletes=delta.deletes)
                    self.rows += len(delta)
                else:
                    self.db.query(op[1])
        except TPError:
            return None
        return kind


def gate(ingest: Ingest, paths) -> None:
    """Views equal their recomputed definitions; the stores recover identically."""
    db = ingest.db
    for view, (definition, _) in VIEWS.items():
        check_equal(view, db.query(view), db.query(definition, use_views=False))
    states = {name: store_state(db.store(name)) for name in paths}
    ingest.close()
    reopened = TPDatabase(data_dir=ingest.data_dir, durability="batch")
    try:
        for name, state in states.items():
            if store_state(reopened.store(name)) != state:
                raise GateError(f"store {name!r} did not recover identically")
    finally:
        reopened.close()


def prepare(cfg: RunConfig, work) -> tuple[dict, dict, str]:
    """Write the CSV inputs; (paths, relations, input fingerprint)."""
    relations = {}
    for index, family in enumerate(FAMILIES):
        relations.update(build_family(family, cfg, f"ingest-{index}"))
    paths = write_csvs(relations, work / "csv")
    canonical = [
        (op[0], op[1], op[2].inserts, op[2].deletes) if op[0] == "commit" else op
        for op in itertools.islice(op_stream(cfg, relations), FINGERPRINT_OPS)
    ]
    return paths, relations, fingerprint_inputs(paths, canonical)


def run(cfg: RunConfig) -> Result:
    work = run_dir(NAME, cfg.seed)
    try:
        paths, relations, fingerprint = prepare(cfg, work)
        result = Result(True, 0, 0, info={"fingerprint": fingerprint})

        def build() -> Ingest:
            return Ingest(paths, work / "data")

        if not cfg.trace:
            probe = SpeedProbe()
            setups, ingest = timed_setup(
                SETUP_REPS, build, release=Ingest.close, probe=probe
            )
            gc.collect()
            loop = closed_loop(
                op_stream(cfg, relations), Client(ingest.db), cfg.seconds,
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
            # Both phases start from a fresh database and the head of the
            # op stream.
            ingest = build()
            gc.collect()
            written = bytes_written()
            client = Client(ingest.db)
            plain = closed_loop(
                op_stream(cfg, relations), client, cfg.seconds / 2, min_reads=0
            )
            extra = {
                "store.bytes_per_row": (bytes_written() - written) / max(client.rows, 1),
                "store.commit_p50_ms": ms(median(plain.of("commit"))),
            }
            ingest.close()
            ingest = build()
            gc.collect()
            tracer = Tracer()
            tracer.install(IN_PROCESS_WRAPS)
            window_start = clock()
            try:
                traced = closed_loop(
                    op_stream(cfg, relations), Client(ingest.db, tracer),
                    cfg.seconds / 2, min_reads=0,
                )
            finally:
                tracer.uninstall()
            report = SpanReport(tracer.spans, tracer.gc_pauses, window_start, clock())
            tracer.dump(work.parent / f"trace-{NAME}-seed{cfg.seed}.jsonl")
            extra["store.changelog_len"] = sum(
                ingest.db.store(name).segment_stats()["log_entries"] for name in paths
            )
            n_ops, op_ns, covered = in_process_coverage(report, ("op.commit", "op.read"))
            put_layer_metrics(
                result,
                TracedPhase(
                    report,
                    n_ops,
                    op_ns,
                    covered,
                    plain_ops_per_s=plain.done / (plain.wall_ns / 1e9),
                    traced_ops_per_s=traced.done / (traced.wall_ns / 1e9),
                    extra=extra,
                ),
            )
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        result.attempted, result.failed = attempted, failed
        gate(ingest, paths)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
