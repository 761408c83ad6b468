"""Materialized TP views with incremental maintenance.

A :class:`MaterializedView` is defined by a parsed query (set operations,
selections and the generalized joins) over :class:`SegmentStore` base
relations, and keeps its result relation continuously consistent under
base-table mutations without recomputing from scratch.

Why incremental maintenance is sound here (DESIGN.md §9): LAWA windows —
and their generalized join cousins — are determined *purely locally* by
the ``(F, Ts)``-sorted neighborhood (arXiv:1910.00474).  A window never
spans a time point at which no input tuple of its fact group (join-key
group for joins) is valid, so the output restricted to a maximal covered
span is a function of the input tuples inside that span alone.  A
mutation therefore perturbs the result only inside **dirty regions**:

1. each committed transaction yields per-fact-group dirty time ranges
   (the spans of the inserted and deleted tuples);
2. every operator node **widens** a dirty range through the maximal
   covered spans of its current inputs that overlap it — after which no
   input tuple, old or new, crosses the widened boundaries;
3. the node re-runs the kernel sweep (:func:`repro.core.setops.sweep_rows`
   / :func:`repro.algebra.join.join_group_rows`) over the widened range
   only and **splices** the rows into its cached output, reusing old
   tuple objects (and their materialized probabilities) whenever the
   regenerated window is identical;
4. changed regions propagate upward, so an operator above an unchanged
   subresult does no work at all.

Three refresh policies: ``eager`` (the database refreshes the view after
every transaction), ``deferred`` (refresh on read — the default), and
``manual`` (only an explicit :meth:`MaterializedView.refresh`).  The
``RECOMPUTE`` maintenance strategy (:mod:`repro.store.maintenance`) runs
the same view by full re-evaluation — the cross-checking oracle the
property suite holds the incremental engine against.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

from ..algebra.join import (
    JoinLayout,
    join_layout_from_schemas,
    merge_carried_rows,
    tp_join_operation,
)
from ..core.errors import UnsupportedOperationError
from ..core.gtwindow import WINDOW_POLICIES, WindowPolicy
from ..core.interval import Interval
from ..core.relation import TPRelation
from ..core.schema import Fact
from ..core.setops import tp_set_operation
from ..core.sorting import null_safe_fact_key
from ..core.tuple import TPTuple
from ..exec.config import parallel_execution
from ..prob.valuation import ProbabilityOptions, probability_batch
from ..query.ast import JoinNode, QueryNode, RelationRef, SelectionNode, SetOpNode
from .segment import Region, SegmentStore

__all__ = ["MaterializedView", "REFRESH_POLICIES"]

#: Supported refresh policies, in "how automatic" order.
REFRESH_POLICIES = ("eager", "deferred", "manual")

_get_interval = operator.attrgetter("interval")
_interval_start = operator.attrgetter("interval.start")


# ----------------------------------------------------------------------
# dirty-range geometry
# ----------------------------------------------------------------------
def _merge_ranges(ranges: Iterable[Sequence[int]]) -> list[list[int]]:
    """Merge overlapping or adjacent ``[lo, hi)`` ranges (sorted output).

    Only overlapping/adjacent ranges merge, so a merged range is always a
    *contiguous* union of its inputs — the property that keeps the
    no-tuple-crosses-the-boundary invariant through merging.
    """
    ordered = sorted([lo, hi] for lo, hi in ranges)
    if not ordered:
        return []
    out = [ordered[0]]
    for lo, hi in ordered[1:]:
        if lo > out[-1][1]:
            out.append([lo, hi])
        elif hi > out[-1][1]:
            out[-1][1] = hi
    return out


class _CrossIndex:
    """Crossing queries over interval pairs sorted by start.

    ``starts`` is the sorted start column; ``prefmax[i]`` is the largest
    end among the first ``i+1`` intervals.  Because ``prefmax`` is
    non-decreasing, both "does any interval cross point p" and "which is
    the leftmost interval crossing p" are single bisects.
    """

    __slots__ = ("starts", "prefmax")

    def __init__(self, pairs: list[tuple[int, int]]) -> None:
        self.starts = [p[0] for p in pairs]
        self.prefmax = (
            list(accumulate((p[1] for p in pairs), max)) if pairs else []
        )


def _pairs_of(runs: Iterable[Sequence[TPTuple]]) -> list[tuple[int, int]]:
    """The (start, end) pairs of the given runs, sorted by start."""
    pairs = [
        (interval.start, interval.end)
        for run in runs
        for interval in map(_get_interval, run)
    ]
    pairs.sort()
    return pairs


def _expand(lo: int, hi: int, indexes: Sequence[_CrossIndex]) -> list[int]:
    """Widen ``[lo, hi)`` until no indexed interval crosses a boundary.

    This is the minimal sound widening (DESIGN.md §9): every window —
    old or new — lies inside some input tuple's interval, so boundaries
    that no input tuple crosses are points no output window crosses
    either, and the kernel sweep restricted to the tuples inside the
    range reproduces exactly the windows a full sweep emits there.  The
    fixpoint converges in a few steps (each move lands on an existing
    start/end), expanding only through directly-overlapping chains — far
    narrower than the connected coverage component.
    """
    moved = True
    while moved:
        moved = False
        for index in indexes:
            starts, prefmax = index.starts, index.prefmax
            i = bisect_left(starts, lo)
            if i:
                # Leftmost interval whose end reaches past lo (if any
                # earlier-starting interval crosses lo at all).
                j = bisect_right(prefmax, lo, 0, i)
                if j < i:
                    lo = starts[j]
                    moved = True
            i = bisect_left(starts, hi)
            if i and prefmax[i - 1] > hi:
                hi = prefmax[i - 1]
                moved = True
    return [lo, hi]


def _starts_of(tuples: Sequence[TPTuple]) -> list[int]:
    """The ``Ts`` column of a start-sorted run (C-level attribute walk)."""
    return list(map(_interval_start, tuples))


def _slice_run(tuples: Sequence[TPTuple], starts: list[int], lo: int, hi: int):
    """The tuples starting inside ``[lo, hi)`` — all of them lie entirely
    inside, because the boundaries are coverage-gap points."""
    i = bisect_left(starts, lo)
    j = bisect_left(starts, hi)
    return tuples[i:j] if i < j else []


def _splice(
    cache: dict,
    fact: Fact,
    parts: list[tuple[Sequence[int], list[TPTuple]]],
) -> list[tuple[int, int]]:
    """Replace the cached tuples of ``fact`` inside each dirty range.

    ``parts`` pairs every widened range (sorted, disjoint) with the
    regenerated tuples for that range.  Cached tuples lie entirely
    inside or outside every range (the widening invariant), so the
    replacement is pure slice surgery — no per-tuple scan, no re-sort.
    Old tuple objects are reused whenever a regenerated window is
    identical in (interval, lineage): their materialized probabilities
    survive, so a refresh only ever valuates genuinely new lineages.

    Returns the ranges whose content actually changed (empty: no-op).
    """
    old = cache.get(fact, [])
    starts = _starts_of(old)
    merged: list[TPTuple] = []
    changed_ranges: list[tuple[int, int]] = []
    prev = 0
    for (lo, hi), fresh in parts:
        i = bisect_left(starts, lo)
        j = bisect_left(starts, hi)
        removed = old[i:j]
        if removed and fresh:
            reuse = {
                (t.interval.start, t.interval.end, t.lineage): t for t in removed
            }
            fresh = [
                reuse.get((t.interval.start, t.interval.end, t.lineage), t)
                for t in fresh
            ]
        if removed != fresh:
            changed_ranges.append((lo, hi))
        merged += old[prev:i]
        merged += fresh
        prev = j
    if not changed_ranges:
        return []
    merged += old[prev:]
    if merged:
        cache[fact] = merged
    elif fact in cache:
        del cache[fact]
    return changed_ranges


def _tuples_from_rows(rows: list) -> list[TPTuple]:
    """Materialize kernel rows ``(fact, λ, winTs, winTe)`` as tuples."""
    return [TPTuple(fact, lam, Interval(ts, te)) for fact, lam, ts, te in rows]


def _group_rows_many(jobs: list) -> list[list]:
    """Batch sweep jobs through :func:`repro.exec.engine.group_rows_many`.

    Imported lazily so purely serial use of the store never loads the
    pool machinery (the same deferral the batch operators practice)."""
    from ..exec.engine import group_rows_many

    return group_rows_many(jobs)


# ----------------------------------------------------------------------
# operator nodes
# ----------------------------------------------------------------------
class _BaseNode:
    """A scan of a :class:`SegmentStore`, replaying its change log."""

    __slots__ = ("store", "schema", "seen_epoch", "_events", "__weakref__")

    def __init__(self, store: SegmentStore, events: dict) -> None:
        self.store = store
        self.schema = store.schema
        self.seen_epoch = store.epoch
        self._events = events
        events.update(store.events)
        store.register_consumer(self)

    def pull(self) -> list[Region]:
        changesets = self.store.changes_since(self.seen_epoch)
        if not changesets:
            return []
        self.seen_epoch = self.store.epoch
        regions: list[Region] = []
        for cs in changesets:
            self._events.update(cs.events)
            for name in cs.removed_events:
                self._events.pop(name, None)
            regions.extend(cs.regions())
        return regions

    def group(self, fact: Fact) -> Sequence[TPTuple]:
        return self.store.tuples_of(fact)

    def facts(self) -> Iterable[Fact]:
        return self.store.facts()


class _SelectNode:
    """σ[attribute=value] — filters whole fact groups, no cache needed."""

    __slots__ = ("child", "schema", "_index", "_value")

    def __init__(self, child, attribute: str, value: object) -> None:
        self.child = child
        self.schema = child.schema
        self._index = self.schema.index_of(attribute)
        self._value = value

    def _passes(self, fact: Fact) -> bool:
        return fact[self._index] == self._value

    def pull(self) -> list[Region]:
        return [r for r in self.child.pull() if self._passes(r[0])]

    def group(self, fact: Fact) -> Sequence[TPTuple]:
        return self.child.group(fact) if self._passes(fact) else []

    def facts(self) -> Iterable[Fact]:
        return [f for f in self.child.facts() if self._passes(f)]


class _SetOpNode:
    """∪/∩/− maintained per fact group via the fused-kernel seam."""

    __slots__ = ("op", "left", "right", "schema", "cache", "_index")

    def __init__(self, op: str, left, right) -> None:
        left.schema.check_compatible(right.schema)
        self.op = op
        self.left = left
        self.right = right
        self.schema = left.schema
        self.cache: dict[Fact, list[TPTuple]] = {}
        # Per fact group: a cached crossing index over the inputs plus an
        # overlay of dirty ranges absorbed since it was built.  Only
        # tuples that existed when the index was built can cross a dirty
        # boundary (later inserts are confined inside reported dirty
        # ranges), so index ∪ overlay always over-approximates the
        # crossing set — over-approximation merely widens a bit more.
        self._index: dict[Fact, list] = {}
        facts = list(set(left.facts()) | set(right.facts()))
        jobs = [
            ("setop", self.op, list(left.group(fact)), list(right.group(fact)))
            for fact in facts
        ]
        # One batch through the kernel seam: serial by default, sharded
        # across the worker pool under an active parallel configuration
        # (bit-identical either way, DESIGN.md §10).
        for fact, rows in zip(facts, _group_rows_many(jobs)):
            if rows:
                self.cache[fact] = _tuples_from_rows(rows)

    def pull(self) -> list[Region]:
        child_regions = self.left.pull() + self.right.pull()
        if not child_regions:
            return []
        dirty: dict[Fact, list[list[int]]] = {}
        for fact, lo, hi in child_regions:
            dirty.setdefault(fact, []).append([lo, hi])
        # Phase 1: widen every dirty fact's ranges and collect one sweep
        # job per widened range (jobs are atomic per group range, so the
        # pool shards them without ever splitting a group).
        prepared: list[tuple[Fact, list]] = []
        jobs: list = []
        for fact, ranges in dirty.items():
            lt = self.left.group(fact)
            rt = self.right.group(fact)
            merged = _merge_ranges(ranges)
            entry = self._index.get(fact)
            if entry is None:
                entry = [_CrossIndex(_pairs_of((lt, rt))), []]
                self._index[fact] = entry
            else:
                overlay = entry[1]
                overlay.extend((lo, hi) for lo, hi in merged)
                if len(overlay) > max(64, len(entry[0].starts) // 4):
                    entry[0] = _CrossIndex(_pairs_of((lt, rt)))
                    entry[1] = []
            indexes = [entry[0]]
            if entry[1]:
                indexes.append(_CrossIndex(sorted(entry[1])))
            widened = _merge_ranges(
                _expand(lo, hi, indexes) for lo, hi in merged
            )
            l_starts = _starts_of(lt)
            r_starts = _starts_of(rt)
            for lo, hi in widened:
                jobs.append(
                    (
                        "setop",
                        self.op,
                        _slice_run(lt, l_starts, lo, hi),
                        _slice_run(rt, r_starts, lo, hi),
                    )
                )
            prepared.append((fact, widened))
        # Phase 2: sweep all jobs (serial or pooled), then splice in the
        # same deterministic order the serial engine used.
        rows_iter = iter(_group_rows_many(jobs))
        out: list[Region] = []
        for fact, widened in prepared:
            parts = [
                ((lo, hi), _tuples_from_rows(next(rows_iter)))
                for lo, hi in widened
            ]
            out.extend(
                (fact, lo, hi) for lo, hi in _splice(self.cache, fact, parts)
            )
        return out

    def group(self, fact: Fact) -> Sequence[TPTuple]:
        return self.cache.get(fact, [])

    def facts(self) -> Iterable[Fact]:
        return list(self.cache)


class _JoinNode:
    """Generalized join maintained per join-key group.

    Mirrors the batch driver of :mod:`repro.algebra.join` exactly —
    including the degenerate-layout collapses of DESIGN.md §8.4 — so the
    incrementally maintained output is lineage-identical to a full
    recompute.
    """

    __slots__ = (
        "kind", "on", "left", "right", "layout", "policy", "schema",
        "cache", "_left_facts", "_right_facts", "_out_facts",
    )

    def __init__(self, kind: str, on, left, right) -> None:
        self.kind = kind
        self.on = on
        self.left = left
        self.right = right
        self.layout: JoinLayout = join_layout_from_schemas(
            kind, left.schema, right.schema, on
        )
        self.policy = WINDOW_POLICIES[kind]
        self.schema = self.layout.out_schema
        self.cache: dict[Fact, list[TPTuple]] = {}
        self._left_facts: dict[tuple, set[Fact]] = {}
        self._right_facts: dict[tuple, set[Fact]] = {}
        self._out_facts: dict[tuple, set[Fact]] = {}
        for fact in left.facts():
            self._left_facts.setdefault(self._left_key(fact), set()).add(fact)
        for fact in right.facts():
            self._right_facts.setdefault(self._right_key(fact), set()).add(fact)
        plans: list[tuple[tuple, list[TPTuple], bool]] = []
        jobs: list = []
        for key in set(self._left_facts) | set(self._right_facts):
            if not self._can_emit(key):
                continue
            group_l = self._gather(self.left, self._left_facts.get(key))
            group_s = self._gather(self.right, self._right_facts.get(key))
            carried, job = self._group_plan(group_l, group_s)
            if job is not None:
                jobs.append(job)
            plans.append((key, carried, job is not None))
        rows_iter = iter(_group_rows_many(jobs))
        for key, carried, has_job in plans:
            rows = next(rows_iter) if has_job else []
            by_fact: dict[Fact, list[TPTuple]] = {}
            for t in self._assemble(carried, rows):
                by_fact.setdefault(t.fact, []).append(t)
            if by_fact:
                self._out_facts[key] = set(by_fact)
                for fact, tuples in by_fact.items():
                    tuples.sort(key=lambda t: t.start)
                    self.cache[fact] = tuples

    def _left_key(self, fact: Fact) -> tuple:
        return tuple(fact[i] for i in self.layout.r_key_idx)

    def _right_key(self, fact: Fact) -> tuple:
        return tuple(fact[i] for i in self.layout.s_key_idx)

    def _can_emit(self, key: tuple) -> bool:
        """Can this key group produce any output under the join policy?

        Mirrors the batch driver's key restriction (``_sweep_rows``): a
        match-only policy needs both sides, a preserved side needs its
        own side — sweeping other groups is provably empty work."""
        has_l = bool(self._left_facts.get(key))
        has_r = bool(self._right_facts.get(key))
        policy = self.policy
        return (
            (policy.preserve_left and has_l)
            or (policy.preserve_right and has_r)
            or (policy.matches and has_l and has_r)
        )

    def _gather(self, node, facts: Optional[set]) -> list[TPTuple]:
        """A key group's tuples in the child's ``(F, Ts)`` order."""
        if not facts:
            return []
        if len(facts) == 1:
            (fact,) = facts
            return list(node.group(fact))
        out: list[TPTuple] = []
        for fact in sorted(facts, key=null_safe_fact_key):
            out.extend(node.group(fact))
        return out

    def _group_plan(
        self, group_l: list[TPTuple], group_s: list[TPTuple]
    ) -> tuple[list[TPTuple], Optional[tuple]]:
        """One key group's work, collapse-aware: ``(carried, sweep job)``.

        ``carried`` holds tuples the degenerate-layout collapses
        (DESIGN.md §8.4) copy through without sweeping; the job — run
        through :func:`repro.exec.engine.group_rows_many`, serially or
        across the pool — produces the group's kernel rows.  Assembled by
        :meth:`_assemble` in the same order the previous in-line code
        emitted."""
        layout = self.layout
        policy = self.policy
        matches = policy.matches
        preserve_left = policy.preserve_left
        preserve_right = policy.preserve_right

        if (
            matches
            and preserve_left
            and layout.s_degenerate
            and preserve_right
            and layout.r_degenerate
        ):
            # Full outer join of key-only sides ≡ TP union of the key
            # projections (DESIGN.md §8.4), via the fused-kernel seam.
            projected = [
                TPTuple(layout.right_fact(u.fact), u.lineage, u.interval, u.p)
                for u in group_s
            ]
            projected.sort(key=lambda t: (null_safe_fact_key(t.fact), t.start))
            return [], ("setop", "union", group_l, projected)

        carried: list[TPTuple] = []
        if matches and preserve_left and layout.s_degenerate:
            # Matched and preserved-left facts coincide; lineages merge to λl.
            carried.extend(group_l)
            matches = preserve_left = False
        if policy.matches and preserve_right and layout.r_degenerate:
            carried.extend(
                TPTuple(layout.right_fact(u.fact), u.lineage, u.interval, u.p)
                for u in group_s
            )
            matches = preserve_right = False

        if matches or preserve_left or preserve_right:
            sweep_policy = WindowPolicy(matches, preserve_left, preserve_right)
            return carried, ("join", layout, sweep_policy, group_l, group_s)
        return carried, None

    @staticmethod
    def _assemble(carried: list[TPTuple], rows: list) -> list[TPTuple]:
        """Kernel rows first, then the collapse-carried tuples — the
        emission order of the pre-batching implementation; carried tuples
        that coincide with a null-padded row are unioned into it."""
        rows, carried = merge_carried_rows(rows, carried)
        out = _tuples_from_rows(rows)
        out.extend(carried)
        return out

    def pull(self) -> list[Region]:
        dirty: dict[tuple, list[list[int]]] = {}
        for fact, lo, hi in self.left.pull():
            key = self._left_key(fact)
            dirty.setdefault(key, []).append([lo, hi])
            index = self._left_facts.setdefault(key, set())
            if self.left.group(fact):
                index.add(fact)
            else:
                index.discard(fact)
        for fact, lo, hi in self.right.pull():
            key = self._right_key(fact)
            dirty.setdefault(key, []).append([lo, hi])
            index = self._right_facts.setdefault(key, set())
            if self.right.group(fact):
                index.add(fact)
            else:
                index.discard(fact)
        if not dirty:
            return []

        # Phase 1: widen each dirty key's ranges and plan one sweep job
        # per widened range (clipped sub-groups stay in (F, Ts) order —
        # the group lists are fact-major and clip preserves that order).
        prepared: list[tuple[tuple, list, list]] = []
        jobs: list = []
        for key, ranges in dirty.items():
            if not self._can_emit(key) and not self._out_facts.get(key):
                # The group can emit nothing and holds no stale cache to
                # splice away — skip the gather/widen/sweep entirely.
                continue
            group_l = self._gather(self.left, self._left_facts.get(key))
            group_s = self._gather(self.right, self._right_facts.get(key))
            # Key groups are small; an exact crossing index per dirty key
            # is cheaper than maintaining overlays as the set-op node does.
            index = _CrossIndex(_pairs_of((group_l, group_s)))
            widened = _merge_ranges(
                _expand(lo, hi, [index]) for lo, hi in _merge_ranges(ranges)
            )
            range_plans: list[tuple[list[TPTuple], bool]] = []
            for lo, hi in widened:
                sub_l = self._clip(group_l, lo, hi)
                sub_s = self._clip(group_s, lo, hi)
                carried, job = self._group_plan(sub_l, sub_s)
                if job is not None:
                    jobs.append(job)
                range_plans.append((carried, job is not None))
            prepared.append((key, widened, range_plans))
        # Phase 2: sweep all jobs (serial or pooled), then splice in the
        # same deterministic order the serial engine used.
        rows_iter = iter(_group_rows_many(jobs))
        out: list[Region] = []
        for key, widened, range_plans in prepared:
            buckets: list[dict[Fact, list[TPTuple]]] = []
            for carried, has_job in range_plans:
                rows = next(rows_iter) if has_job else []
                bucket: dict[Fact, list[TPTuple]] = {}
                for t in self._assemble(carried, rows):
                    bucket.setdefault(t.fact, []).append(t)
                for run in bucket.values():
                    run.sort(key=_interval_start)
                buckets.append(bucket)
            out_index = self._out_facts.setdefault(key, set())
            affected = set(out_index)
            for bucket in buckets:
                affected.update(bucket)
            empty: list[TPTuple] = []
            for fact in affected:
                parts = [
                    ((lo, hi), bucket.get(fact, empty))
                    for (lo, hi), bucket in zip(widened, buckets)
                ]
                out.extend(
                    (fact, lo, hi) for lo, hi in _splice(self.cache, fact, parts)
                )
                if fact in self.cache:
                    out_index.add(fact)
                else:
                    out_index.discard(fact)
        return out

    @staticmethod
    def _clip(group: list[TPTuple], lo: int, hi: int) -> list[TPTuple]:
        """Range restriction of a fact-major group list, order-preserving."""
        return [t for t in group if lo <= t.start < hi]

    def group(self, fact: Fact) -> Sequence[TPTuple]:
        return self.cache.get(fact, [])

    def facts(self) -> Iterable[Fact]:
        return list(self.cache)


# ----------------------------------------------------------------------
# maintenance engines
# ----------------------------------------------------------------------
class IncrementalEngine:
    """Delta-scoped maintenance: dirty regions, widening, splicing."""

    def __init__(
        self,
        query: QueryNode,
        stores: Mapping[str, SegmentStore],
        options: Optional[ProbabilityOptions] = None,
        parallel: Optional[int] = None,
    ) -> None:
        self.events: dict[str, float] = {}
        self._options = options
        self._parallel = parallel
        self._base_nodes: list[_BaseNode] = []
        with parallel_execution(parallel):
            self.root = self._build(query, stores)
        self.schema = self.root.schema
        self._revision = 0
        self._cached: Optional[tuple[int, TPRelation]] = None
        # In-place materialization may only write into lists the engine
        # owns (operator-node caches).  A base/selection root serves the
        # *store's* flat-cache lists — writing probabilities there would
        # bypass the segments and silently vanish on the next flat-cache
        # rebuild; such roots materialize at relation() time instead.
        owner = self.root
        while isinstance(owner, _SelectNode):
            owner = owner.child
        self._root_owns_cache = isinstance(owner, (_SetOpNode, _JoinNode))
        if self._root_owns_cache:
            with parallel_execution(parallel):
                self._materialize_all()

    def _build(self, node: QueryNode, stores: Mapping[str, SegmentStore]):
        if isinstance(node, RelationRef):
            base = _BaseNode(stores[node.name], self.events)
            self._base_nodes.append(base)
            return base
        if isinstance(node, SelectionNode):
            return _SelectNode(
                self._build(node.child, stores), node.attribute, node.value
            )
        if isinstance(node, SetOpNode):
            return _SetOpNode(
                node.op,
                self._build(node.left, stores),
                self._build(node.right, stores),
            )
        if isinstance(node, JoinNode):
            return _JoinNode(
                node.kind,
                node.on,
                self._build(node.left, stores),
                self._build(node.right, stores),
            )
        raise UnsupportedOperationError(
            f"incremental maintenance does not support query node {node!r}"
        )

    def is_fresh(self) -> bool:
        return all(b.store.epoch == b.seen_epoch for b in self._base_nodes)

    def refresh(self) -> bool:
        with parallel_execution(self._parallel):
            regions = self.root.pull()
            if not regions:
                return False
            self._revision += 1
            if self._root_owns_cache:
                self._materialize_regions(regions)
        return True

    def _materialize(self, pending: list) -> None:
        """Valuate the probabilities of not-yet-materialized root tuples.

        Splicing reuses old tuple objects for unchanged windows, so only
        genuinely new lineages reach the batch valuation.
        """
        if not pending:
            return
        probs = probability_batch(
            (t.lineage for _, _, t in pending), self.events, options=self._options
        )
        for (run, i, t), p in zip(pending, probs):
            run[i] = t.with_probability(p)

    def _materialize_all(self) -> None:
        pending = [
            (run, i, t)
            for fact in self.root.facts()
            for run in (self.root.group(fact),)
            for i, t in enumerate(run)
            if t.p is None
        ]
        self._materialize(pending)

    def _materialize_regions(self, regions: list[Region]) -> None:
        """Materialize only inside the changed ranges (bisect-scoped scan)."""
        by_fact: dict[Fact, list[list[int]]] = {}
        for fact, lo, hi in regions:
            by_fact.setdefault(fact, []).append([lo, hi])
        pending: list[tuple[list, int, TPTuple]] = []
        for fact, ranges in by_fact.items():
            run = self.root.group(fact)
            if not run:
                continue
            starts = _starts_of(run)
            for lo, hi in _merge_ranges(ranges):
                i = bisect_left(starts, lo)
                j = bisect_left(starts, hi)
                for k in range(i, j):
                    if run[k].p is None:
                        pending.append((run, k, run[k]))
        self._materialize(pending)

    def relation(self, name: str) -> TPRelation:
        cached = self._cached
        if cached is not None and cached[0] == self._revision:
            return cached[1]
        tuples: list[TPTuple] = []
        for fact in sorted(self.root.facts(), key=null_safe_fact_key):
            tuples.extend(self.root.group(fact))
        relation = TPRelation(
            name,
            self.schema,
            tuples,
            self.events,
            validate=False,
            assume_sorted=True,
        )
        if not self._root_owns_cache:
            # Base/selection roots: store tuples are usually materialized
            # already (no-op); seeded p=None tuples valuate on a *copy*.
            relation = relation.materialize_probabilities(options=self._options)
        self._cached = (self._revision, relation)
        return relation


class RecomputeEngine:
    """Full re-evaluation on every refresh — the cross-checking fallback.

    Runs the view's query through the same batch operators the executor
    uses (set operations via the fused LAWA kernel, joins via GTWINDOW),
    with probabilities materialized at the root.  Registered beside the
    incremental strategy so tests and benchmarks can hold the two
    against each other on identical stores.
    """

    def __init__(
        self,
        query: QueryNode,
        stores: Mapping[str, SegmentStore],
        options: Optional[ProbabilityOptions] = None,
        parallel: Optional[int] = None,
    ) -> None:
        self._query = query
        self._stores = dict(stores)
        self._options = options
        self._parallel = parallel
        self._seen: dict[str, int] = {}
        self._relation: Optional[TPRelation] = None
        self.refresh()
        self.schema = self._relation.schema

    def is_fresh(self) -> bool:
        return all(
            store.epoch == self._seen.get(name)
            for name, store in self._stores.items()
        )

    def refresh(self) -> bool:
        if self._relation is not None and self.is_fresh():
            return False
        # Pin the epochs first, then evaluate every scan through the
        # public epoch-pinned snapshot API: the recompute reads one
        # consistent cut of the stores even if a scan is revisited.
        self._seen = {name: store.epoch for name, store in self._stores.items()}
        with parallel_execution(self._parallel):
            result = self._evaluate(self._query)
            self._relation = result.materialize_probabilities(options=self._options)
        return True

    def _evaluate(self, node: QueryNode) -> TPRelation:
        if isinstance(node, RelationRef):
            store = self._stores[node.name]
            return store.snapshot(epoch=self._seen[node.name])
        if isinstance(node, SelectionNode):
            child = self._evaluate(node.child)
            return child.select(**{node.attribute: node.value})
        if isinstance(node, SetOpNode):
            return tp_set_operation(
                node.op,
                self._evaluate(node.left),
                self._evaluate(node.right),
                materialize=False,
            )
        if isinstance(node, JoinNode):
            return tp_join_operation(
                node.kind,
                self._evaluate(node.left),
                self._evaluate(node.right),
                node.on,
                materialize=False,
            )
        raise UnsupportedOperationError(
            f"view recomputation does not support query node {node!r}"
        )

    def relation(self, name: str) -> TPRelation:
        assert self._relation is not None
        if self._relation.name == name:
            return self._relation
        self._relation = self._relation.rename(name)
        return self._relation


# ----------------------------------------------------------------------
# the view object
# ----------------------------------------------------------------------
class MaterializedView:
    """A named, continuously maintained query result.

    Parameters
    ----------
    query:
        The defining query AST (any :mod:`repro.query.ast` tree whose
        leaves name entries of ``stores``).
    stores:
        The mutable base relations the view reads, by name.
    policy:
        ``eager`` | ``deferred`` | ``manual`` — who triggers refreshes.
    strategy:
        Maintenance strategy name (:func:`repro.store.maintenance
        .maintenance_strategies`): ``INCREMENTAL`` (default) or
        ``RECOMPUTE``.
    parallel:
        Worker-pool size for this view's builds and refreshes
        (DESIGN.md §10).  ``None`` inherits the ambient configuration;
        results are bit-identical either way.
    """

    def __init__(
        self,
        name: str,
        query: QueryNode,
        stores: Mapping[str, SegmentStore],
        *,
        policy: str = "deferred",
        strategy: str = "INCREMENTAL",
        options: Optional[ProbabilityOptions] = None,
        parallel: Optional[int] = None,
    ) -> None:
        if policy not in REFRESH_POLICIES:
            raise ValueError(
                f"unknown refresh policy {policy!r}; choose from {REFRESH_POLICIES}"
            )
        from .maintenance import get_maintenance_strategy

        self.name = name
        self.query = query
        self.policy = policy
        self.strategy = get_maintenance_strategy(strategy)
        self._engine = self.strategy.build(query, stores, options, parallel)

    def refresh(self) -> bool:
        """Bring the view up to date; True when anything changed."""
        return self._engine.refresh()

    def is_fresh(self) -> bool:
        """True when every base store's changes have been applied."""
        return self._engine.is_fresh()

    def relation(self) -> TPRelation:
        """The view's current result relation.

        ``deferred`` views refresh on read; ``eager`` views are normally
        refreshed at write time by the database, but re-check here (a
        per-store epoch comparison) so writes that bypassed the
        notification path — e.g. direct ``store.apply`` calls — can
        never serve stale data as if fresh.  ``manual`` views serve
        their cached state by contract."""
        if self.policy != "manual":
            self._engine.refresh()
        return self._engine.relation(self.name)

    @property
    def schema(self):
        return self._engine.schema

    def __repr__(self) -> str:
        state = "fresh" if self.is_fresh() else "stale"
        return (
            f"MaterializedView({self.name!r} := {self.query}, "
            f"{self.policy}/{self.strategy.name}, {state})"
        )
