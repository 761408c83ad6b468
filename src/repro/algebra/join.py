"""TP joins — inner, outer and anti, on generalized lineage-aware windows.

The base paper's §VIII outlook ("support for full relational algebra")
is answered by its follow-up, *Generalized Lineage-Aware Temporal
Windows* (arXiv:1902.04379): the same single-scan window machinery that
drives the set operations extends to left/right/full outer joins and
anti joins.  All five operators here follow the two principles the set
operations are built on:

* **snapshot reducibility** — at each time point, apply the
  deterministic join to the probabilistic snapshots: a matched output
  pairs key-matching tuples with lineage ``λr ∧ λs``; a preserved output
  keeps a tuple of the surviving side with the *negated disjunction* of
  its valid matches, ``λp ∧ ¬(λo₁ ∨ … ∨ λoₖ)`` — the probabilistic "no
  partner exists" event (plain ``λp`` when no partner is valid at all);
* **change preservation** — output intervals are maximal periods of
  constant lineage: pairwise overlaps for matches,
  :class:`~repro.core.gtwindow.PreservedWindow` segments (constant match
  set) for the preserved sides.

The temporal work is delegated to
:func:`repro.core.gtwindow.generalized_windows`, run per join-key group
(hash partitioning on the join attributes); probabilities are
materialized through the batched, memoized valuation path, so each
distinct interned lineage is valuated once.

Degenerate layouts collapse (DESIGN.md §8.4): when the non-preserved
side contributes no non-join attributes, its matched and preserved
output facts coincide and their lineages merge to the preserved tuple's
own lineage — e.g. a left outer join against a key-only relation *is*
the left relation.  A full outer join of two key-only relations is
exactly the TP union of the key projections and is delegated to the
fused LAWA kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.errors import SchemaMismatchError, UnsupportedOperationError
from ..exec.config import active_config, columnar_enabled
from ..core.gtwindow import (
    LEFT,
    MatchWindow,
    WINDOW_POLICIES,
    WindowPolicy,
    generalized_windows,
)
from ..core.interval import Interval
from ..core.relation import TPRelation
from ..core.schema import Fact, TPSchema
from ..core.setops import tp_union
from ..core.tuple import TPTuple
from ..lineage.formula import Lineage, land, lnot, lor
from ..prob.valuation import ProbabilityOptions, probability_batch

__all__ = [
    "JOIN_KINDS",
    "JOIN_OPERATIONS",
    "JOIN_SYMBOLS",
    "JoinLayout",
    "join_layout",
    "join_layout_from_schemas",
    "join_group_rows",
    "merge_carried_rows",
    "merge_coinciding_rows",
    "preserved_lineage",
    "tp_join",
    "tp_left_outer_join",
    "tp_right_outer_join",
    "tp_full_outer_join",
    "tp_anti_join",
    "tp_join_operation",
]

JOIN_SYMBOLS = {
    "inner": "⋈",
    "left_outer": "⟕",
    "right_outer": "⟖",
    "full_outer": "⟗",
    "anti": "▷",
}
JOIN_KINDS = tuple(JOIN_SYMBOLS)

# Trusted fast construction for kernel-emitted objects (DESIGN.md §6).
_new = object.__new__
_setattr = object.__setattr__


# ----------------------------------------------------------------------
# schema layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinLayout:
    """Index plumbing shared by the kernel, the naive baseline and the
    possible-worlds oracle — one definition of the output fact layout."""

    kind: str
    join_attrs: tuple[str, ...]
    r_key_idx: tuple[int, ...]
    s_key_idx: tuple[int, ...]
    r_rest_idx: tuple[int, ...]
    s_rest_idx: tuple[int, ...]
    r_arity: int
    out_schema: TPSchema

    @property
    def s_degenerate(self) -> bool:
        """True when the right side has no non-join attributes."""
        return not self.s_rest_idx

    @property
    def r_degenerate(self) -> bool:
        """True when the left side has no non-join attributes."""
        return not self.r_rest_idx

    def key_of_left(self, fact: Fact) -> tuple:
        return tuple(fact[i] for i in self.r_key_idx)

    def key_of_right(self, fact: Fact) -> tuple:
        return tuple(fact[i] for i in self.s_key_idx)

    def matched_fact(self, left_fact: Fact, right_fact: Fact) -> Fact:
        return left_fact + tuple(right_fact[i] for i in self.s_rest_idx)

    def left_fact(self, left_fact: Fact) -> Fact:
        """Preserved-left output fact (anti joins keep the left schema)."""
        if self.kind == "anti":
            return left_fact
        return left_fact + (None,) * len(self.s_rest_idx)

    def right_fact(self, right_fact: Fact) -> Fact:
        """Preserved-right output fact: key values land in the left
        side's key positions, the left rest positions are null-padded."""
        head: list = [None] * self.r_arity
        for k, r_pos in enumerate(self.r_key_idx):
            head[r_pos] = right_fact[self.s_key_idx[k]]
        return tuple(head) + tuple(right_fact[i] for i in self.s_rest_idx)


def join_layout(
    kind: str, r: TPRelation, s: TPRelation, on: Optional[Sequence[str]]
) -> JoinLayout:
    """Resolve join attributes and build the output-fact layout."""
    return join_layout_from_schemas(kind, r.schema, s.schema, on)


def join_layout_from_schemas(
    kind: str, r_schema: TPSchema, s_schema: TPSchema, on: Optional[Sequence[str]]
) -> JoinLayout:
    """Schema-level :func:`join_layout` — no relations required.

    Used by the incremental view maintenance of :mod:`repro.store`,
    which knows its inputs' schemas before any tuples exist.
    """
    join_attrs = _resolve_join_attributes(r_schema, s_schema, on)
    r_key_idx = tuple(r_schema.index_of(a) for a in join_attrs)
    s_key_idx = tuple(s_schema.index_of(a) for a in join_attrs)
    r_rest_idx = tuple(i for i in range(r_schema.arity) if i not in r_key_idx)
    s_rest_idx = tuple(
        i for i, name in enumerate(s_schema.attributes) if name not in join_attrs
    )
    if kind == "anti":
        out_schema = r_schema
    else:
        out_attributes = tuple(r_schema.attributes) + tuple(
            s_schema.attributes[i] for i in s_rest_idx
        )
        out_schema = TPSchema(_disambiguate(out_attributes))
    return JoinLayout(
        kind=kind,
        join_attrs=join_attrs,
        r_key_idx=r_key_idx,
        s_key_idx=s_key_idx,
        r_rest_idx=r_rest_idx,
        s_rest_idx=s_rest_idx,
        r_arity=r_schema.arity,
        out_schema=out_schema,
    )


def _resolve_join_attributes(
    r_schema: TPSchema, s_schema: TPSchema, on: Optional[Sequence[str]]
) -> tuple[str, ...]:
    if on is None:
        shared = tuple(
            name for name in r_schema.attributes if name in s_schema.attributes
        )
        if not shared:
            raise SchemaMismatchError(
                f"natural join needs shared attributes; "
                f"{r_schema.attributes!r} vs {s_schema.attributes!r} share none"
            )
        return shared
    attrs = tuple(on)
    for name in attrs:
        r_schema.index_of(name)
        s_schema.index_of(name)
    if not attrs:
        raise SchemaMismatchError("join attribute list must not be empty")
    return attrs


def _disambiguate(names: tuple[str, ...]) -> tuple[str, ...]:
    """Suffix repeated attribute names so the output schema stays valid.

    Deterministic for any number of collisions: the n-th occurrence of a
    name gets the first free ``name_<k>`` suffix, skipping suffixes that
    are themselves taken by literal attribute names (``a, a_2, a`` →
    ``a, a_2, a_3``).
    """
    used = set(names)
    counts: dict[str, int] = {}
    out: list[str] = []
    for name in names:
        count = counts.get(name, 0)
        counts[name] = count + 1
        if count == 0:
            out.append(name)
            continue
        suffix = count + 1
        candidate = f"{name}_{suffix}"
        while candidate in used:
            suffix += 1
            candidate = f"{name}_{suffix}"
        used.add(candidate)
        out.append(candidate)
    return tuple(out)


# ----------------------------------------------------------------------
# lineage concatenation (Table I of the generalized paper)
# ----------------------------------------------------------------------
def preserved_lineage(lam: Lineage, others: Sequence[Lineage]) -> Lineage:
    """``λp ∧ ¬(λo₁ ∨ … ∨ λoₖ)`` — plain ``λp`` for an empty match set."""
    if not others:
        return lam
    return land(lam, lnot(lor(*others)))


# ----------------------------------------------------------------------
# public operators
# ----------------------------------------------------------------------
def tp_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """Sequenced TP equi-join of ``r`` and ``s``.

    Parameters
    ----------
    on:
        Join attributes, present in both schemas.  ``None`` joins on all
        shared attribute names (natural join); at least one attribute
        must be shared.

    The output schema is r's attributes followed by s's non-join
    attributes; the output fact concatenates the corresponding values.

    >>> from repro import TPRelation
    >>> r = TPRelation.from_rows("r", ("item", "store"),
    ...     [("milk", "hb", 1, 5, 0.5)])
    >>> s = TPRelation.from_rows("s", ("item", "price"),
    ...     [("milk", 2, 3, 8, 0.8)])
    >>> result = tp_join(r, s, on=("item",))
    >>> [str(t) for t in result]
    ["('milk', 'hb', 2, r1∧s1, [3,5), 0.4)"]
    """
    return _generalized_join("inner", r, s, on, materialize, options)


def tp_left_outer_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ⟕ᵀᵖ s — every left tuple survives.

    Matched outputs carry ``λr ∧ λs`` over the pair overlap; for each
    left tuple, null-padded outputs carry ``λr ∧ ¬(λs₁ ∨ … ∨ λsₖ)`` over
    every maximal subinterval with a constant set of valid key matches —
    the probability that the left tuple exists *and* none of its
    potential partners does.
    """
    return _generalized_join("left_outer", r, s, on, materialize, options)


def tp_right_outer_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ⟖ᵀᵖ s — every right tuple survives (mirror of ⟕)."""
    return _generalized_join("right_outer", r, s, on, materialize, options)


def tp_full_outer_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ⟗ᵀᵖ s — both sides survive."""
    return _generalized_join("full_outer", r, s, on, materialize, options)


def tp_anti_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ▷ᵀᵖ s — left tuples with no key match, under r's schema.

    The output keeps the probability that the left tuple exists while
    *no* matching right tuple does: ``λr ∧ ¬(λs₁ ∨ … ∨ λsₖ)``.  Joining
    on all attributes of compatible schemas coincides with −ᵀᵖ.
    """
    return _generalized_join("anti", r, s, on, materialize, options)


#: Dispatch table, consumed by the query executor and the registry.
JOIN_OPERATIONS: dict[str, Callable[..., TPRelation]] = {
    "inner": tp_join,
    "left_outer": tp_left_outer_join,
    "right_outer": tp_right_outer_join,
    "full_outer": tp_full_outer_join,
    "anti": tp_anti_join,
}


def tp_join_operation(
    kind: str,
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """Compute ``r <kind> s`` where kind names a JOIN_OPERATIONS entry."""
    try:
        func = JOIN_OPERATIONS[kind]
    except KeyError as exc:
        raise UnsupportedOperationError(f"unknown TP join kind {kind!r}") from exc
    return func(r, s, on, materialize=materialize, options=options)


# ----------------------------------------------------------------------
# the generalized-window driver
# ----------------------------------------------------------------------
def _generalized_join(
    kind: str,
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]],
    materialize: bool,
    options: Optional[ProbabilityOptions],
) -> TPRelation:
    layout = join_layout(kind, r, s, on)
    name = f"({r.name} {JOIN_SYMBOLS[kind]} {s.name})"
    events = r.merged_events(s)

    policy = WINDOW_POLICIES[kind]
    do_matches = policy.matches
    preserve_left = policy.preserve_left
    preserve_right = policy.preserve_right
    carried: list[TPTuple] = []

    # Degenerate collapses (see module docstring / DESIGN.md §8.4).
    # They merge matched with preserved output, so they only apply to
    # policies that emit matches — never to the anti join, whose negated
    # lineage must survive even when the layouts coincide.
    if (
        do_matches
        and preserve_left
        and layout.s_degenerate
        and preserve_right
        and layout.r_degenerate
    ):
        return _degenerate_full_outer(name, layout, r, s, events, materialize, options)
    if do_matches and preserve_left and layout.s_degenerate:
        # Matched and preserved-left facts coincide; lineages merge to λr.
        # p-less tuples are copied: the output owns what it fills.
        carried.extend(t if t.p is not None else TPTuple(t.fact, t.lineage, t.interval) for t in r)
        do_matches = preserve_left = False
    if policy.matches and preserve_right and layout.r_degenerate:
        # Mirror: the right side collapses to its key-ordered projection.
        carried.extend(
            TPTuple(layout.right_fact(u.fact), u.lineage, u.interval, u.p) for u in s
        )
        do_matches = preserve_right = False

    rows: list = []
    if do_matches or preserve_left or preserve_right:
        sweep_policy = WindowPolicy(do_matches, preserve_left, preserve_right)
        rows = _sweep_rows(layout, r, s, sweep_policy)
        rows, carried = merge_carried_rows(rows, carried)

    if materialize:
        # One batch over the interned lineages: each distinct formula is
        # valuated once, however many output tuples carry it.
        probs: list = list(
            probability_batch((row[1] for row in rows), events, options=options)
        )
        carried_pending = [t for t in carried if t.p is None]
        carried_values = iter(
            probability_batch(
                (t.lineage for t in carried_pending), events, options=options
            )
        )
        carried = [
            t if t.p is not None else t.with_probability(next(carried_values))
            for t in carried
        ]
    else:
        probs = [None] * len(rows)

    # Trusted fast construction, as in the fused set-operation kernel:
    # the sweep guarantees non-empty windows, so Interval validation and
    # the dataclass __init__ machinery are skipped on the hot path.
    new, set_, interval_cls, tuple_cls = _new, _setattr, Interval, TPTuple
    out: list[TPTuple] = []
    append = out.append
    for (fact, lam, win_ts, win_te), p in zip(rows, probs):
        interval = new(interval_cls)
        set_(interval, "start", win_ts)
        set_(interval, "end", win_te)
        t = new(tuple_cls)
        set_(t, "fact", fact)
        set_(t, "lineage", lam)
        set_(t, "interval", interval)
        set_(t, "p", p)
        append(t)
    out.extend(carried)
    _sort_output(out)
    return TPRelation(
        name, layout.out_schema, out, events, validate=False, assume_sorted=True
    )


def _sort_output(out: list[TPTuple]) -> None:
    """Sort into the null-safe ``(F, Ts, Te)`` order.

    Equivalent to sorting by :func:`repro.core.sorting.null_safe_key`,
    but the per-value null wrapping is computed once per *distinct* fact
    — join outputs repeat each fact across many windows.
    """
    fact_keys: dict = {}

    def key(t: TPTuple, _cache=fact_keys) -> tuple:
        fact = t.fact
        wrapped = _cache.get(fact)
        if wrapped is None:
            wrapped = tuple((v is None, v) for v in fact)
            _cache[fact] = wrapped
        interval = t.interval
        return (wrapped, interval.start, interval.end)

    out.sort(key=key)


def _sweep_rows(
    layout: JoinLayout, r: TPRelation, s: TPRelation, policy: WindowPolicy
) -> list:
    """Partition on the join key, sweep each group, assemble output rows."""
    r_groups = _group_by_key(r.sorted_tuples(), layout.r_key_idx)
    s_groups = _group_by_key(s.sorted_tuples(), layout.s_key_idx)

    if policy.preserve_left and policy.preserve_right:
        keys = list(r_groups) + [k for k in s_groups if k not in r_groups]
    elif policy.preserve_left:
        keys = list(r_groups)
    elif policy.preserve_right:
        keys = list(s_groups)
    else:  # matches only: other groups cannot contribute
        keys = [k for k in r_groups if k in s_groups]

    config = active_config()
    if config.enabled:
        # Key-group-sharded pool execution, bit-identical to the serial
        # loop below (DESIGN.md §10); None = stay serial.
        from ..exec.engine import join_sweep_rows

        rows = join_sweep_rows(
            layout, policy, keys, r_groups, s_groups, config=config
        )
        if rows is not None:
            return rows

    empty: tuple[TPTuple, ...] = ()
    rows = []
    for key in keys:
        rows.extend(
            join_group_rows(
                layout, policy, r_groups.get(key, empty), s_groups.get(key, empty)
            )
        )
    return rows


def join_group_rows(
    layout: JoinLayout,
    policy: WindowPolicy,
    group_l: Sequence[TPTuple],
    group_s: Sequence[TPTuple],
) -> list:
    """Sweep one join-key group and assemble output rows.

    ``group_l`` / ``group_s`` are the group's tuples in their relations'
    ``(F, Ts)`` order.  Like :func:`repro.core.setops.sweep_rows`, this
    is the per-group seam the incremental view maintenance re-sweeps
    dirty regions through: returned rows ``(fact, λ, winTs, winTe)`` are
    exactly what :func:`tp_join_operation` emits before materialization.
    """
    if columnar_enabled():
        # End-point-column sweep (DESIGN.md §15); None = time points
        # outside int64, stay on the tuple sweep below.
        from ..exec.block_kernels import columnar_join_group_rows

        rows = columnar_join_group_rows(layout, policy, group_l, group_s)
        if rows is not None:
            return rows
    matched_fact = layout.matched_fact
    left_fact = layout.left_fact
    right_fact = layout.right_fact
    rows: list = []
    append = rows.append
    match_window = MatchWindow
    for w in generalized_windows(group_l, group_s, policy):
        if type(w) is match_window:
            append(
                (
                    matched_fact(w.left.fact, w.right.fact),
                    land(w.left.lineage, w.right.lineage),
                    w.win_ts,
                    w.win_te,
                )
            )
        elif w.side == LEFT:
            append(
                (
                    left_fact(w.tuple.fact),
                    preserved_lineage(w.tuple.lineage, w.others),
                    w.win_ts,
                    w.win_te,
                )
            )
        else:
            append(
                (
                    right_fact(w.tuple.fact),
                    preserved_lineage(w.tuple.lineage, w.others),
                    w.win_ts,
                    w.win_te,
                )
            )
    return merge_coinciding_rows(layout, policy, group_l, group_s, rows)


def merge_coinciding_rows(
    layout: JoinLayout,
    policy: WindowPolicy,
    group_l: Sequence[TPTuple],
    group_s: Sequence[TPTuple],
    rows: list,
) -> list:
    """Union the rows of one key group whose output facts coincide.

    Nulls in an input's non-join attributes (the padding of a nested
    outer join) can make a null-padded output fact equal a matched one,
    or a preserved-left fact equal a preserved-right one.  Set semantics
    keeps a single such fact, present whenever any of its sources is:
    its rows are split at their end points, each segment carries the
    disjunction of the lineages valid there (in row order), and adjacent
    equal-lineage segments are coalesced.  Returns ``rows`` itself
    unless an outer join meets an all-null non-join part.
    """
    sources = policy.matches + policy.preserve_left + policy.preserve_right
    if len(rows) < 2 or sources < 2:
        return rows
    if not (
        (policy.preserve_right and _has_null_rest(group_l, layout.r_rest_idx))
        or (policy.preserve_left and _has_null_rest(group_s, layout.s_rest_idx))
    ):
        return rows
    return _merge_by_fact(rows)


def merge_carried_rows(rows: list, carried: list[TPTuple]) -> tuple[list, list]:
    """Fold collapse-carried tuples into the swept rows they coincide with.

    A degenerate-layout collapse copies one side through while the other
    preserved side is still swept; a carried tuple whose non-join values
    are all null has the same fact as a null-padded row.  Such tuples
    become rows (after the swept ones, so the lineage order matches a
    per-group assembly) and are unioned by :func:`merge_coinciding_rows`'s
    rule; returns ``(rows, carried)`` unchanged when nothing coincides.
    """
    if not rows or not carried:
        return rows, carried
    facts = {row[0] for row in rows}
    if not any(t.fact in facts for t in carried):
        return rows, carried
    hit = [(t.fact, t.lineage, t.start, t.end) for t in carried if t.fact in facts]
    kept = [t for t in carried if t.fact not in facts]
    return _merge_by_fact(rows + hit), kept


def _merge_by_fact(rows: list) -> list:
    by_fact: dict = {}
    for row in rows:
        by_fact.setdefault(row[0], []).append(row)
    if len(by_fact) == len(rows):
        return rows
    merged: list = []
    for fact, same in by_fact.items():
        merged.extend(same if len(same) == 1 else _union_rows(fact, same))
    return merged


def _has_null_rest(group: Sequence[TPTuple], rest_idx: tuple[int, ...]) -> bool:
    return any(all(u.fact[i] is None for i in rest_idx) for u in group)


def _union_rows(fact: Fact, rows: list) -> list:
    points = sorted({point for row in rows for point in (row[2], row[3])})
    out: list = []
    for lo, hi in zip(points, points[1:]):
        active = [row[1] for row in rows if row[2] <= lo and hi <= row[3]]
        if not active:
            continue
        lam = lor(*active)
        if out and out[-1][3] == lo and out[-1][1] == lam:
            out[-1] = (fact, lam, out[-1][2], hi)
        else:
            out.append((fact, lam, lo, hi))
    return out


def _group_by_key(
    tuples_sorted: Sequence[TPTuple], key_idx: tuple[int, ...]
) -> dict[tuple, list[TPTuple]]:
    groups: dict[tuple, list[TPTuple]] = {}
    for u in tuples_sorted:
        groups.setdefault(tuple(u.fact[i] for i in key_idx), []).append(u)
    return groups


def _degenerate_full_outer(
    name: str,
    layout: JoinLayout,
    r: TPRelation,
    s: TPRelation,
    events,
    materialize: bool,
    options: Optional[ProbabilityOptions],
) -> TPRelation:
    """Full outer join of two key-only relations ≡ TP union of the key
    projections — delegated to the fused LAWA kernel."""
    s_projected = TPRelation(
        s.name,
        layout.out_schema,
        [TPTuple(layout.right_fact(u.fact), u.lineage, u.interval, u.p) for u in s],
        s.events,
        validate=False,
    )
    union = tp_union(r, s_projected, materialize=materialize, options=options)
    return TPRelation(
        name,
        layout.out_schema,
        union.tuples,
        events,
        validate=False,
        assume_sorted=True,
    )
