"""Per-layer metrics derived from a traced phase.

Every per-layer metric is emitted on every workload; a layer that does
no work on a workload reports 0 there (see ``METRICS.md`` for where
each layer works and which end-to-end metric it should move).  Times
are self times, in ms per op of the traced phase, unless stated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from common import Result, median
from tracer import SpanReport

#: Span names whose self time forms one metric.
SELF_TIME = {
    "query.optimize_ms": ("query.optimize",),
    "query.front_ms": ("query.parse", "query.views", "query.stats", "query.plan"),
    "query.execute_ms": ("query.execute",),
    "core.sort_ms": ("core.sort",),
    "core.setop_ms": ("core.setop",),
    "core.select_ms": ("core.select",),
    "core.delta_sweep_ms": ("core.delta_sweep",),
    "algebra.join_ms": ("algebra.join",),
    "prob.valuation_ms": ("prob.valuation",),
    "relation.materialize_ms": ("relation.materialize",),
    "store.apply_ms": ("store.apply",),
    "store.view_ms": ("store.view",),
    "store.wal_ms": ("store.wal",),
    "store.snapshot_ms": ("store.snapshot",),
}


@dataclass
class TracedPhase:
    """What a workload measured around its traced phase."""

    report: SpanReport
    #: Client-side ops completed in the traced phase, and their total wall.
    n_ops: int
    op_ns: int
    #: Op wall covered by named spans plus collector pauses.
    covered_ns: int
    #: ops/s of the untraced and the traced phase.
    plain_ops_per_s: float
    traced_ops_per_s: float
    #: Workload-specific values (serve.*, store.*, commit latency).
    extra: dict[str, float] = field(default_factory=dict)


def put_layer_metrics(result: Result, phase: TracedPhase) -> None:
    report, n = phase.report, max(phase.n_ops, 1)
    for metric, names in SELF_TIME.items():
        result.put(metric, sum(report.self_ms(name) for name in names) / n, "ms")

    optimized = report.named("query.optimize")
    result.put(
        "query.plan_candidates",
        report.attr_sum("query.optimize", "candidates") / len(optimized)
        if optimized
        else 0.0,
        "count",
    )
    qerrors = report.root_qerrors()
    result.put("query.root_qerror", median(qerrors) if qerrors else 0.0, "ratio")

    kernel_rows = report.attr_sum("core.setop", "rows") + report.attr_sum(
        "algebra.join", "rows"
    )
    result.put("core.rows_out", kernel_rows / n, "count")
    hits = report.attr_sum("prob.valuation", "hits")
    misses = report.attr_sum("prob.valuation", "misses")
    result.put(
        "prob.memo_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio"
    )
    result.put("prob.lineages_valued", misses / n, "count")

    result.put("gc.pause_ms", report.gc_ns / 1e6 / n, "ms")
    result.put(
        "gc.pause_share", report.gc_ns / phase.op_ns if phase.op_ns else 0.0, "ratio"
    )
    result.put("gc.gen2_count", report.gen2_count(), "count")

    extra = phase.extra
    for name in (
        "serve.execute_ms",
        "serve.encode_ms",
        "serve.wait_ms",
        "serve.commit_ms",
        "store.commit_p50_ms",
    ):
        result.put(name, extra.get(name, 0.0), "ms")
    for name in ("serve.result_hit_ratio", "serve.plan_hit_ratio"):
        result.put(name, extra.get(name, 0.0), "ratio")
    result.put("store.changelog_len", extra.get("store.changelog_len", 0), "count")
    result.put("store.bytes_per_row", extra.get("store.bytes_per_row", 0.0), "bytes")

    result.put(
        "db.unattributed_ms", (phase.op_ns - phase.covered_ns) / 1e6 / n, "ms"
    )
    result.put(
        "trace.span_coverage",
        phase.covered_ns / phase.op_ns if phase.op_ns else 0.0,
        "ratio",
    )
    result.put(
        "trace.overhead_ratio",
        phase.plain_ops_per_s / phase.traced_ops_per_s
        if phase.traced_ops_per_s
        else 0.0,
        "ratio",
    )


def in_process_coverage(report: SpanReport, root_names: tuple[str, ...]) -> tuple[int, int, int]:
    """(ops, op wall ns, covered ns) over the runner's op root spans."""
    roots = [s for s in report.spans if s[3] in root_names]
    op_ns = sum(s[5] - s[4] for s in roots)
    covered = sum(report.covered_ns[s[0]] for s in roots)
    return len(roots), op_ns, covered
