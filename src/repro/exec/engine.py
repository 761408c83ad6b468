"""Parent-side orchestration of the parallel execution engine.

Entry points (all consulting :func:`repro.exec.config.active_config` and
returning ``None`` — "stay serial" — when parallelism is off, the input
is below the break-even threshold, or the chunker cannot produce at
least two chunks):

* :func:`setop_sweep_rows` — the fused LAWA sweep, sharded by fact group
  (oversized groups split at coverage gaps) across the pool;
* :func:`join_sweep_rows` — the generalized-join driver, sharded by
  join-key group;
* :func:`group_rows_many` — a batch of per-group sweep jobs (the seam
  the incremental view maintenance re-sweeps dirty regions through),
  executed serially or across the pool, always returning per-job rows
  bit-identical to the serial kernels;
* :func:`parallel_probability_values` — exact valuation of distinct
  deterministic formulas across the pool (the root-materialization
  parallelizer behind ``probability_batch``).

Determinism and identity (DESIGN.md §10.4): chunk layout is a pure
function of the input; ``Pool.map`` returns results in submission order;
and the decode step below rebuilds every output lineage in the parent
process with the *same constructor calls the serial kernels make*, so
parallel outputs are `is`-identical to their serially-built
counterparts, window for window.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..algebra.join import (
    JoinLayout,
    join_group_rows,
    merge_coinciding_rows,
    preserved_lineage,
)
from ..core.gtwindow import WindowPolicy
from ..core.setops import sweep_rows
from ..core.tuple import TPTuple
from ..lineage.formula import And, Lineage, Not, Or, Var, land, lnot, lor
from ..lineage.serialize import encode_batch
from .chunking import aligned_chunks, balanced_partition
from .config import ParallelConfig, active_config
from .kernels import OP_EXCEPT, OP_INTERSECT, OP_UNION, OPCODES
from .pool import run_tasks

__all__ = [
    "group_rows_many",
    "join_sweep_rows",
    "parallel_probability_values",
    "setop_sweep_rows",
]

#: A view-maintenance sweep job: ("setop", op, lt, rt) runs the fused
#: set-operation kernel over one group range, ("join", layout, policy,
#: lt, rt) runs the generalized-window sweep over one key-group range.
GroupJob = tuple


# ----------------------------------------------------------------------
# wire encoding (parent side)
# ----------------------------------------------------------------------
def _encode_setop_run(tuples: Sequence[TPTuple], lo: int, hi: int) -> list[tuple]:
    return [
        (t.fact, t.interval.start, t.interval.end) for t in tuples[lo:hi]
    ]


def _encode_join_run(tuples: Sequence[TPTuple]) -> list[tuple]:
    return [(t.interval.start, t.interval.end) for t in tuples]


# ----------------------------------------------------------------------
# decode: index codes -> rows, via the serial kernels' concatenations
# ----------------------------------------------------------------------
def _decode_setop_codes(
    codes: list[tuple],
    tr: Sequence[TPTuple],
    r_base: int,
    ts: Sequence[TPTuple],
    s_base: int,
    opcode: int,
    out: list[tuple],
) -> None:
    """Resolve window codes against the parent's tuples.

    The branch structure replicates the λ-filter + λ-concat section of
    ``repro.core.setops._fused_sweep`` exactly (including the direct
    ``And``/``Or``/``Not`` construction for atomic operands), so decoded
    rows carry the identical interned lineage objects.
    """
    append = out.append
    if opcode == OP_UNION:
        for r_idx, s_idx, win_ts, win_te in codes:
            if r_idx < 0:
                t = ts[s_base + s_idx]
                append((t.fact, t.lineage, win_ts, win_te))
            elif s_idx < 0:
                t = tr[r_base + r_idx]
                append((t.fact, t.lineage, win_ts, win_te))
            else:
                rt = tr[r_base + r_idx]
                r_lam = rt.lineage
                s_lam = ts[s_base + s_idx].lineage
                if type(r_lam) is Var and type(s_lam) is Var:
                    append((rt.fact, Or((r_lam, s_lam)), win_ts, win_te))
                else:
                    append((rt.fact, lor(r_lam, s_lam), win_ts, win_te))
    elif opcode == OP_INTERSECT:
        for r_idx, s_idx, win_ts, win_te in codes:
            rt = tr[r_base + r_idx]
            r_lam = rt.lineage
            s_lam = ts[s_base + s_idx].lineage
            if type(r_lam) is Var and type(s_lam) is Var:
                append((rt.fact, And((r_lam, s_lam)), win_ts, win_te))
            else:
                append((rt.fact, land(r_lam, s_lam), win_ts, win_te))
    else:
        assert opcode == OP_EXCEPT
        for r_idx, s_idx, win_ts, win_te in codes:
            rt = tr[r_base + r_idx]
            r_lam = rt.lineage
            if s_idx < 0:
                append((rt.fact, r_lam, win_ts, win_te))
            else:
                s_lam = ts[s_base + s_idx].lineage
                neg = Not(s_lam) if type(s_lam) is Var else lnot(s_lam)
                if type(r_lam) is Var:
                    append((rt.fact, And((r_lam, neg)), win_ts, win_te))
                else:
                    append((rt.fact, land(r_lam, neg), win_ts, win_te))


def _decode_join_codes(
    layout: JoinLayout,
    policy: WindowPolicy,
    codes: list[tuple],
    group_l: Sequence[TPTuple],
    group_s: Sequence[TPTuple],
    out: list[tuple],
) -> None:
    """Mirror of :func:`repro.algebra.join.join_group_rows`'s assembly."""
    matched_fact = layout.matched_fact
    left_fact = layout.left_fact
    right_fact = layout.right_fact
    rows: list[tuple] = []
    append = rows.append
    for code in codes:
        tag = code[0]
        if tag == 0:
            _, l_idx, r_idx, win_ts, win_te = code
            lt = group_l[l_idx]
            rt = group_s[r_idx]
            append(
                (
                    matched_fact(lt.fact, rt.fact),
                    land(lt.lineage, rt.lineage),
                    win_ts,
                    win_te,
                )
            )
        elif tag == 1:
            _, p_idx, others_idx, win_ts, win_te = code
            pt = group_l[p_idx]
            append(
                (
                    left_fact(pt.fact),
                    preserved_lineage(
                        pt.lineage, [group_s[i].lineage for i in others_idx]
                    ),
                    win_ts,
                    win_te,
                )
            )
        else:
            _, p_idx, others_idx, win_ts, win_te = code
            pt = group_s[p_idx]
            append(
                (
                    right_fact(pt.fact),
                    preserved_lineage(
                        pt.lineage, [group_l[i].lineage for i in others_idx]
                    ),
                    win_ts,
                    win_te,
                )
            )
    out.extend(merge_coinciding_rows(layout, policy, group_l, group_s, rows))


# ----------------------------------------------------------------------
# set operations
# ----------------------------------------------------------------------
def setop_sweep_rows(
    tr: Sequence[TPTuple],
    ts: Sequence[TPTuple],
    op: str,
    config: Optional[ParallelConfig] = None,
    chunks: Optional[list] = None,
) -> Optional[list[tuple]]:
    """Parallel fused sweep; ``None`` when the call should stay serial.

    ``chunks`` overrides the chunker — the differential suite drives
    adversarial chunkings (one group per chunk, everything in one chunk,
    gap-splits of the largest group) through this parameter.
    """
    cfg = config if config is not None else active_config()
    if not cfg.enabled:
        return None
    if chunks is None:
        if len(tr) + len(ts) < cfg.min_tuples:
            return None
        chunks = aligned_chunks(tr, ts, cfg.n_chunks)
    if len(chunks) < 2:
        return None
    opcode = OPCODES[op]
    tasks = [
        (
            "setop",
            opcode,
            _encode_setop_run(tr, r_lo, r_hi),
            _encode_setop_run(ts, s_lo, s_hi),
        )
        for (r_lo, r_hi), (s_lo, s_hi) in chunks
    ]
    results = run_tasks(tasks, cfg.workers)
    rows: list[tuple] = []
    for ((r_lo, _), (s_lo, _)), codes in zip(chunks, results):
        _decode_setop_codes(codes, tr, r_lo, ts, s_lo, opcode, rows)
    return rows


# ----------------------------------------------------------------------
# generalized joins
# ----------------------------------------------------------------------
def join_sweep_rows(
    layout: JoinLayout,
    policy: WindowPolicy,
    keys: Sequence[tuple],
    r_groups: Mapping[tuple, Sequence[TPTuple]],
    s_groups: Mapping[tuple, Sequence[TPTuple]],
    config: Optional[ParallelConfig] = None,
) -> Optional[list[tuple]]:
    """Parallel per-key-group join sweep; ``None`` = stay serial.

    Keys are sharded into size-balanced contiguous spans of the driver's
    key order and merged back in that order, so the row sequence equals
    the serial driver's concatenation exactly.
    """
    cfg = config if config is not None else active_config()
    if not cfg.enabled or len(keys) < 2:
        return None
    empty: tuple[TPTuple, ...] = ()
    groups = [
        (r_groups.get(key, empty), s_groups.get(key, empty)) for key in keys
    ]
    weights = [len(gl) + len(gs) for gl, gs in groups]
    if sum(weights) < cfg.min_tuples:
        return None
    spans = balanced_partition(weights, cfg.n_chunks)
    if len(spans) < 2:
        return None
    tasks = [
        (
            "jobs",
            [
                ("join", policy, _encode_join_run(gl), _encode_join_run(gs))
                for gl, gs in groups[lo:hi]
            ],
        )
        for lo, hi in spans
    ]
    results = run_tasks(tasks, cfg.workers)
    rows: list[tuple] = []
    for (lo, hi), chunk_codes in zip(spans, results):
        for (gl, gs), codes in zip(groups[lo:hi], chunk_codes):
            _decode_join_codes(layout, policy, codes, gl, gs, rows)
    return rows


# ----------------------------------------------------------------------
# per-group job batches (incremental view maintenance)
# ----------------------------------------------------------------------
def _serial_job_rows(job: GroupJob) -> list[tuple]:
    if job[0] == "setop":
        _, op, lt, rt = job
        return sweep_rows(lt, rt, op)
    _, layout, policy, lt, rt = job
    return join_group_rows(layout, policy, lt, rt)


def group_rows_many(
    jobs: Sequence[GroupJob], config: Optional[ParallelConfig] = None
) -> list[list[tuple]]:
    """Rows of every sweep job, serial or pool-sharded — bit-identical.

    The serial path calls the exact kernels the view nodes called before
    parallelism existed; the parallel path ships index-coded jobs and
    decodes against the parent-held groups.  Jobs are atomic (one dirty
    group range each), so sharding is group-aligned by construction.
    """
    cfg = config if config is not None else active_config()
    weights = [len(job[-2]) + len(job[-1]) for job in jobs]
    if (
        not cfg.enabled
        or len(jobs) < 2
        or sum(weights) < cfg.min_tuples
    ):
        return [_serial_job_rows(job) for job in jobs]
    spans = balanced_partition(weights, cfg.n_chunks)
    if len(spans) < 2:
        return [_serial_job_rows(job) for job in jobs]
    tasks = []
    for lo, hi in spans:
        wire_jobs = []
        for job in jobs[lo:hi]:
            if job[0] == "setop":
                _, op, lt, rt = job
                wire_jobs.append(
                    (
                        "setop",
                        OPCODES[op],
                        _encode_setop_run(lt, 0, len(lt)),
                        _encode_setop_run(rt, 0, len(rt)),
                    )
                )
            else:
                _, _, policy, lt, rt = job
                wire_jobs.append(
                    ("join", policy, _encode_join_run(lt), _encode_join_run(rt))
                )
        tasks.append(("jobs", wire_jobs))
    results = run_tasks(tasks, cfg.workers)
    out: list[list[tuple]] = []
    for (lo, hi), chunk_codes in zip(spans, results):
        for job, codes in zip(jobs[lo:hi], chunk_codes):
            rows: list[tuple] = []
            if job[0] == "setop":
                _, op, lt, rt = job
                _decode_setop_codes(codes, lt, 0, rt, 0, OPCODES[op], rows)
            else:
                _, layout, policy, lt, rt = job
                _decode_join_codes(layout, policy, codes, lt, rt, rows)
            out.append(rows)
    return out


# ----------------------------------------------------------------------
# batch probability valuation
# ----------------------------------------------------------------------
def parallel_probability_values(
    formulas: Sequence[Lineage],
    events: Mapping[str, float],
    config: Optional[ParallelConfig] = None,
) -> Optional[list[float]]:
    """Exact probabilities of distinct deterministic formulas, pooled.

    ``None`` — as with the other entry points — means the batch should
    be computed serially (parallelism off, or too small to shard).

    The caller (``repro.prob.valuation.probability_batch``) guarantees
    every formula is one the AUTO dispatch computes deterministically;
    workers receive them through the §4.1 batch codec
    (:mod:`repro.lineage.serialize` — shared subformulas encoded once,
    re-interned inside the worker on decode) together with the slice of
    the event map their chunk mentions, and return plain floats —
    bit-identical to the serial computation, since the exact methods
    are pure float arithmetic over the same tree structure.
    """
    cfg = config if config is not None else active_config()
    if not cfg.enabled or len(formulas) < 2:
        return None
    weights = [formula.size for formula in formulas]
    spans = balanced_partition(weights, cfg.n_chunks)
    if len(spans) < 2:
        return None
    tasks = []
    for lo, hi in spans:
        chunk = formulas[lo:hi]
        needed: set[str] = set()
        for formula in chunk:
            needed |= formula.var_set
        nodes, roots = encode_batch(chunk)
        tasks.append(
            (
                "valuate",
                nodes,
                roots,
                {name: events[name] for name in needed if name in events},
            )
        )
    results = run_tasks(tasks, cfg.workers)
    return [value for chunk_values in results for value in chunk_values]
