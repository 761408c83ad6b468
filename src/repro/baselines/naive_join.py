"""Naive sweepline reference for the generalized (outer/anti) joins.

An independent implementation of the same snapshot semantics the
generalized-window kernel (:mod:`repro.algebra.join`) computes, built
the way the snapshot oracle evaluates set operations: per join-key
group, iterate the *elementary segments* between consecutive interval
endpoints, re-scan the whole group for the tuples valid in each segment,
emit the per-segment contributions of the membership rule, and coalesce
adjacent equal-lineage fragments afterwards.

The temporal machinery shares nothing with the single-scan window sweep
— no window objects, no incremental active sets — which is what makes it
a useful cross-check: ``tests/test_join_generalized.py`` asserts the two
implementations agree tuple-for-tuple (facts, intervals, syntactic
lineage, probabilities) on randomized inputs, and
``benchmarks/bench_pr2.py`` uses it as the performance baseline.

Per-segment membership rule (the generalized paper's Table I):

* matched fact ``(F_r, F_s.rest)`` — valid pair (r, s): ``λr ∧ λs``;
* preserved-left fact ``(F_r, null…)`` — valid r: ``λr ∧ ¬(∨ λs)`` over
  the valid matches (plain ``λr`` with none);
* preserved-right mirrored; anti joins keep the left schema.

Degenerate layouts collapse exactly as in the kernel (matched and
preserved facts coincide when a side has no non-join attributes and
their lineages merge to the surviving tuple's own lineage); with *both*
sides degenerate a full outer join degenerates to a TP union and the
rule emits ``or(λr, λs)`` per segment.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..algebra.join import (
    JOIN_SYMBOLS,
    JoinLayout,
    join_layout,
    preserved_lineage,
)
from ..core.gtwindow import WINDOW_POLICIES
from ..core.interval import Interval
from ..core.relation import TPRelation
from ..core.schema import Fact
from ..core.sorting import null_safe_key
from ..core.tuple import TPTuple
from ..lineage.concat import concat_or
from ..lineage.formula import land, lor
from ..prob.valuation import ProbabilityOptions, probability_batch

__all__ = ["naive_join_operation"]


def naive_join_operation(
    kind: str,
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """Compute ``r <kind> s`` by elementary-segment enumeration."""
    policy = WINDOW_POLICIES[kind]  # also validates the kind
    layout = join_layout(kind, r, s, on)
    name = f"({r.name} {JOIN_SYMBOLS[kind]} {s.name})[naive]"

    r_groups = _group(r, layout.r_key_idx)
    s_groups = _group(s, layout.s_key_idx)
    keys = list(r_groups) + [k for k in s_groups if k not in r_groups]

    # Collapses merge matched with preserved output — they never apply
    # to the anti join, whose negated lineage survives regardless.
    s_collapse = policy.matches and policy.preserve_left and layout.s_degenerate
    r_collapse = policy.matches and policy.preserve_right and layout.r_degenerate

    fragments: dict[Fact, list[TPTuple]] = {}
    for key in keys:
        group_r = r_groups.get(key, [])
        group_s = s_groups.get(key, [])
        boundaries = sorted(
            {u.start for u in group_r}
            | {u.end for u in group_r}
            | {u.start for u in group_s}
            | {u.end for u in group_s}
        )
        for b0, b1 in zip(boundaries, boundaries[1:]):
            valid_r = [u for u in group_r if u.start <= b0 and u.end >= b1]
            valid_s = [u for u in group_s if u.start <= b0 and u.end >= b1]
            if not valid_r and not valid_s:
                continue
            # Set semantics: contributions whose facts coincide (nulls in
            # a side's non-join attributes) are one fact, their lineages
            # disjoined.
            segment: dict[Fact, list] = {}
            for fact, lam in _contributions(
                kind, layout, policy, s_collapse, r_collapse, valid_r, valid_s
            ):
                segment.setdefault(fact, []).append(lam)
            for fact, lams in segment.items():
                fragments.setdefault(fact, []).append(
                    TPTuple(fact, lor(*lams), Interval(b0, b1))
                )

    out: list[TPTuple] = []
    for per_fact in fragments.values():
        out.extend(_coalesce_fact(per_fact))

    events = r.merged_events(s)
    if materialize:
        values = iter(probability_batch((t.lineage for t in out), events, options=options))
        out = [t.with_probability(next(values)) for t in out]
    out.sort(key=null_safe_key)
    return TPRelation(
        name, layout.out_schema, out, events, validate=False, assume_sorted=True
    )


def _contributions(
    kind: str,
    layout: JoinLayout,
    policy,
    s_collapse: bool,
    r_collapse: bool,
    valid_r: list[TPTuple],
    valid_s: list[TPTuple],
):
    """Per-segment output (fact, lineage) pairs of the membership rule."""
    if s_collapse and r_collapse:
        # Both sides key-only (full outer): TP union per segment — at
        # most one tuple per side is valid (all group facts coincide).
        lam_r = valid_r[0].lineage if valid_r else None
        lam_s = valid_s[0].lineage if valid_s else None
        if lam_r is not None:
            yield valid_r[0].fact, concat_or(lam_r, lam_s)
        elif lam_s is not None:
            yield layout.right_fact(valid_s[0].fact), lam_s
        return

    if s_collapse:
        # Matched and preserved-left merge to the left tuples themselves.
        for rt in valid_r:
            yield rt.fact, rt.lineage
    if r_collapse:
        for st in valid_s:
            yield layout.right_fact(st.fact), st.lineage
    if policy.matches and not (s_collapse or r_collapse):
        for rt in valid_r:
            for st in valid_s:
                yield layout.matched_fact(rt.fact, st.fact), land(
                    rt.lineage, st.lineage
                )
    if policy.preserve_left and not s_collapse:
        others = [st.lineage for st in valid_s]
        for rt in valid_r:
            yield layout.left_fact(rt.fact), preserved_lineage(rt.lineage, others)
    if policy.preserve_right and not r_collapse:
        others = [rt.lineage for rt in valid_r]
        for st in valid_s:
            yield layout.right_fact(st.fact), preserved_lineage(st.lineage, others)


def _group(rel: TPRelation, key_idx: tuple[int, ...]) -> dict[tuple, list[TPTuple]]:
    groups: dict[tuple, list[TPTuple]] = {}
    for u in rel.sorted_tuples():
        groups.setdefault(tuple(u.fact[i] for i in key_idx), []).append(u)
    return groups


def _coalesce_fact(fragments: list[TPTuple]) -> list[TPTuple]:
    """Merge adjacent equal-lineage fragments of one fact (Def. 2)."""
    fragments.sort(key=lambda t: (t.start, t.end))
    merged: list[TPTuple] = []
    for t in fragments:
        if merged:
            last = merged[-1]
            if last.end == t.start and last.lineage is t.lineage:
                merged[-1] = TPTuple(
                    last.fact, last.lineage, Interval(last.start, t.end), last.p
                )
                continue
        merged.append(t)
    return merged
