"""Duplicate-free temporal-probabilistic relations.

A TP relation is a finite set of TP tuples over a schema (F, λ, T, p).
Following the paper (Section III) we assume *duplicate-free* input and
output relations: the intervals of any two tuples with the same fact must
not overlap.  The constructor validates this invariant (can be switched
off for benchmark-scale data that is duplicate-free by construction).

A relation also carries its *event map*: the marginal probabilities of the
base-tuple variables its lineages mention.  Base relations populate the
map from their own tuples; set operations merge the maps of their inputs,
so derived relations remain self-contained and can valuate lineage
probabilities without access to the original database.

Sortedness propagation (DESIGN.md §6): a relation remembers whether its
tuples are already in the ``(F, Ts)`` order the sweep algorithms require.
Set-operation outputs are emitted in exactly that order, so they are
constructed with ``assume_sorted=True`` and chained operations skip the
redundant re-sort; for any other relation the first :meth:`sorted_tuples`
call sorts once and caches (relations are immutable).
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..lineage.formula import Lineage, variables
from ..prob.valuation import (
    EventMap,
    Method,
    ProbabilityOptions,
    probability,
    probability_batch,
)
from .errors import DuplicateFactError, UnknownVariableError
from .interval import Interval
from .schema import Fact, TPSchema, make_fact
from .sorting import _full_key, null_safe_key
from .tuple import TPTuple, base_tuple

__all__ = ["TPRelation"]


class TPRelation:
    """An immutable, duplicate-free TP relation.

    Iteration yields tuples in insertion order; :meth:`sorted_tuples`
    yields them in the ``(F, Ts)`` order the sweep algorithms require.
    """

    __slots__ = (
        "name", "schema", "_tuples", "events",
        "_sorted_cache", "_merge_cache", "_block_cache", "__weakref__",
    )

    def __init__(
        self,
        name: str,
        schema: TPSchema,
        tuples: Iterable[TPTuple],
        events: Mapping[str, float],
        *,
        validate: bool = True,
        assume_sorted: bool = False,
    ) -> None:
        self.name = name
        self.schema = schema
        self._tuples: tuple[TPTuple, ...] = tuple(tuples)
        # EventMap self-invalidates the valuation memo on mutation.
        self.events: EventMap = EventMap(events)
        self._sorted_cache: Optional[list[TPTuple]] = (
            list(self._tuples) if assume_sorted else None
        )
        self._merge_cache: Optional[tuple] = None
        self._block_cache: Optional[object] = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]],
        *,
        id_prefix: Optional[str] = None,
        validate: bool = True,
    ) -> "TPRelation":
        """Build a base relation from ``(*fact_values, ts, te, p)`` rows.

        Tuple identifiers are generated as ``<prefix>1, <prefix>2, …`` in
        row order (the paper's a1, a2, …); the prefix defaults to the
        relation name.

        >>> a = TPRelation.from_rows(
        ...     "a", ("product",),
        ...     [("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8)])
        >>> len(a)
        2
        """
        prefix = id_prefix if id_prefix is not None else name
        schema = TPSchema(tuple(attributes))
        tuples = []
        events: dict[str, float] = {}
        for index, row in enumerate(rows):
            values = list(row)
            if len(values) != schema.arity + 3:
                raise ValueError(
                    f"row {index} has {len(values)} fields, expected "
                    f"{schema.arity} fact values followed by ts, te, p"
                )
            fact = make_fact(values[: schema.arity])
            ts, te, p = values[schema.arity :]
            identifier = f"{prefix}{index + 1}"
            tuples.append(base_tuple(fact, identifier, Interval(int(ts), int(te)), float(p)))
            events[identifier] = float(p)
        return cls(name, schema, tuples, events, validate=validate)

    @classmethod
    def from_tuples(
        cls,
        name: str,
        schema: TPSchema,
        tuples: Iterable[TPTuple],
        events: Mapping[str, float],
        *,
        validate: bool = True,
    ) -> "TPRelation":
        """Build a (possibly derived) relation from ready-made tuples."""
        return cls(name, schema, tuples, events, validate=validate)

    # ------------------------------------------------------------------
    # invariant checking
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for t in self._tuples:
            if len(t.fact) != self.schema.arity:
                raise ValueError(
                    f"tuple {t} has fact arity {len(t.fact)}, "
                    f"schema expects {self.schema.arity}"
                )
            for var in variables(t.lineage):
                if var not in self.events:
                    raise UnknownVariableError(
                        f"tuple {t} references unknown event {var!r}"
                    )
            if t.p is not None and not 0.0 < t.p <= 1.0:
                raise ValueError(f"tuple {t} has probability outside (0, 1]")
        self._check_duplicate_free()

    def _check_duplicate_free(self) -> None:
        """Duplicate-freeness: same-fact intervals must not overlap."""
        ordered = sorted(self._tuples, key=null_safe_key)
        for prev, curr in zip(ordered, ordered[1:]):
            if prev.fact == curr.fact and curr.start < prev.end:
                raise DuplicateFactError(
                    f"relation {self.name!r} is not duplicate-free: fact "
                    f"{prev.fact!r} valid over overlapping intervals "
                    f"{prev.interval} and {curr.interval}"
                )

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TPTuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    @property
    def tuples(self) -> tuple[TPTuple, ...]:
        return self._tuples

    def sorted_tuples(self) -> list[TPTuple]:
        """Tuples in ``(F, Ts)`` order — the input order for LAWA.

        The result is computed once and cached (relations are immutable);
        treat the returned list as read-only.  Relations constructed with
        ``assume_sorted=True`` — every set-operation output — never sort
        at all.
        """
        cache = self._sorted_cache
        if cache is None:
            # Same full (F, Ts, Te) key as repro.core.sorting, so the
            # default path and the explicit strategies order raw-stream
            # ties identically (DESIGN.md §6.2).  Null-padded facts that
            # reach here unsorted (a collapsed outer join's projection)
            # take the null-safe order, which agrees with the plain one
            # wherever that is defined and with the sweeps' fact_lt.
            try:
                cache = sorted(self._tuples, key=_full_key)
            except TypeError:
                cache = sorted(self._tuples, key=null_safe_key)
            self._sorted_cache = cache
        return cache

    def columnar_block(self):
        """The relation's tuples as a :class:`~repro.core.blocks
        .ColumnarBlock` over the ``(F, Ts)`` order — computed once and
        cached (relations are immutable), the column source of the
        columnar sweep seams (DESIGN.md §15)."""
        block = self._block_cache
        if block is None:
            from .blocks import ColumnarBlock

            block = ColumnarBlock.from_tuples(self.sorted_tuples())
            self._block_cache = block
        return block

    def __getstate__(self) -> dict:
        # The merge cache holds a weakref (unpicklable) and both caches
        # are pure derived state — rebuild lazily after unpickling.
        return {
            "name": self.name,
            "schema": self.schema,
            "tuples": self._tuples,
            "events": dict(self.events),
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.schema = state["schema"]
        self._tuples = state["tuples"]
        self.events = EventMap(state["events"])
        self._sorted_cache = None
        self._merge_cache = None
        self._block_cache = None

    def merged_events(self, other: "TPRelation") -> dict[str, float]:
        """The merged event map ``{**self.events, **other.events}``.

        Cached per right-hand relation (one slot, weakly referenced):
        repeated operations over the same pair — benchmark rounds,
        chained queries — then present the *same* mapping object to the
        valuation layer, whose epoch registry keeps the probability memo
        warm across calls.  Treat the returned mapping as read-only.
        """
        cache = self._merge_cache
        if cache is not None:
            ref, merged, epochs = cache
            # The merged map's own epoch participates so a caller that
            # mutated the returned mapping can never be served it again.
            if ref() is other and epochs == (
                self.events.epoch, other.events.epoch, merged.epoch,
            ):
                return merged
        merged = EventMap(self.events)
        dict.update(merged, other.events)  # no epoch bump: freshly built
        self._merge_cache = (
            weakref.ref(other),
            merged,
            (self.events.epoch, other.events.epoch, merged.epoch),
        )
        return merged

    @property
    def is_sorted_by_fact_ts(self) -> bool:
        """True when the insertion order already is the ``(F, Ts)`` order
        (either declared via ``assume_sorted`` or discovered by a sort)."""
        cache = self._sorted_cache
        if cache is None:
            return False
        return all(a is b for a, b in zip(cache, self._tuples))

    # ------------------------------------------------------------------
    # simple algebra needed by examples and datasets
    # ------------------------------------------------------------------
    def select(self, **equalities: object) -> "TPRelation":
        """Selection σ by attribute equality, e.g. ``r.select(product='milk')``.

        The result keeps the full event map; lineage is unchanged
        (selection never merges or splits intervals).  Sortedness
        propagates: filtering a ``(F, Ts)``-ordered relation keeps the
        order, so downstream sweeps over the selection never re-sort —
        which also keeps null-padded outer-join outputs (born sorted in
        the null-safe order) sortable at all.
        """
        indexes = {
            self.schema.index_of(attribute): value
            for attribute, value in equalities.items()
        }
        kept = [
            t
            for t in self._tuples
            if all(t.fact[i] == value for i, value in indexes.items())
        ]
        label = ",".join(f"{k}={v!r}" for k, v in equalities.items())
        return TPRelation(
            f"σ[{label}]({self.name})",
            self.schema,
            kept,
            self.events,
            validate=False,
            assume_sorted=self.is_sorted_by_fact_ts,
        )

    def where(self, predicate: Callable[[TPTuple], bool]) -> "TPRelation":
        """Selection by arbitrary tuple predicate (sortedness propagates)."""
        kept = [t for t in self._tuples if predicate(t)]
        return TPRelation(
            f"σ({self.name})", self.schema, kept, self.events,
            validate=False, assume_sorted=self.is_sorted_by_fact_ts,
        )

    def rename(self, name: str) -> "TPRelation":
        """The same relation under a new catalog name (sort cache kept)."""
        renamed = TPRelation(
            name, self.schema, self._tuples, self.events, validate=False
        )
        renamed._sorted_cache = self._sorted_cache
        return renamed

    # ------------------------------------------------------------------
    # probabilities
    # ------------------------------------------------------------------
    def materialize_probabilities(
        self, *, method: Method = Method.AUTO,
        options: Optional[ProbabilityOptions] = None,
    ) -> "TPRelation":
        """A copy with every tuple's ``p`` computed from its lineage.

        Valuation is batched: interning makes repeated lineages
        identity-equal, so each distinct formula is valuated once
        (see :func:`repro.prob.valuation.probability_batch`).  ``self``
        and its tuples are left untouched: the ``p``-less tuples are
        copied, and the copies are filled in place.
        """
        copied = [
            t if t.p is not None else TPTuple(t.fact, t.lineage, t.interval)
            for t in self._tuples
        ]
        result = TPRelation(
            self.name, self.schema, copied, self.events, validate=False
        )
        if self._sorted_cache is not None and self.is_sorted_by_fact_ts:
            result._sorted_cache = list(result._tuples)
        result._fill_probabilities(method=method, options=options)
        return result

    def _fill_probabilities(
        self, *, method: Method = Method.AUTO,
        options: Optional[ProbabilityOptions] = None,
    ) -> None:
        """Set ``p`` in place on every ``p``-less tuple (DESIGN.md §6.3).

        Only for a relation that owns its ``p``-less tuples — freshly
        allocated by the caller and not yet seen by anyone else — since
        the write reaches every relation sharing those tuple objects.
        It must also run before the tuples are hashed: the generated
        ``TPTuple.__hash__`` covers ``p``.  The valuation stays behind
        this module's ``probability_batch`` name, the one seam every
        root materialization goes through.
        """
        pending = [t for t in self._tuples if t.p is None]
        values = probability_batch(
            (t.lineage for t in pending), self.events,
            method=method, options=options,
        )
        set_ = object.__setattr__
        for t, p in zip(pending, values):
            set_(t, "p", p)

    def probability_of(self, t: TPTuple, *, method: Method = Method.AUTO) -> float:
        """Marginal probability of one tuple's lineage under this relation."""
        return probability(t.lineage, self.events, method=method)

    # ------------------------------------------------------------------
    # statistics (used by Table IV and Proposition 1 tests)
    # ------------------------------------------------------------------
    def facts(self) -> set[Fact]:
        """The distinct facts appearing in the relation."""
        return {t.fact for t in self._tuples}

    def distinct_points(self) -> set[int]:
        """All distinct start/end points (the TI index keys)."""
        points: set[int] = set()
        for t in self._tuples:
            points.add(t.start)
            points.add(t.end)
        return points

    def endpoint_count(self) -> int:
        """nr of Proposition 1: total number of start and end points."""
        return 2 * len(self._tuples)

    def time_span(self) -> Optional[Interval]:
        """The smallest interval covering every tuple, or None when empty."""
        if not self._tuples:
            return None
        lo = min(t.start for t in self._tuples)
        hi = max(t.end for t in self._tuples)
        return Interval(lo, hi)

    # ------------------------------------------------------------------
    # comparison & display
    # ------------------------------------------------------------------
    def contents(self) -> frozenset[tuple[Fact, Interval, Lineage]]:
        """Hashable summary of (fact, interval, lineage) triples."""
        return frozenset((t.fact, t.interval, t.lineage) for t in self._tuples)

    def equivalent_to(self, other: "TPRelation", *, tol: float = 1e-9) -> bool:
        """Set equality on (fact, interval, lineage), probabilities within tol.

        Lineage comparison is syntactic, mirroring the paper's footnote 1.
        """
        if self.contents() != other.contents():
            return False
        mine = {(t.fact, t.interval): t.p for t in self._tuples}
        theirs = {(t.fact, t.interval): t.p for t in other._tuples}
        for key, p in mine.items():
            q = theirs[key]
            if p is None or q is None:
                if p is not q:
                    return False
            elif abs(p - q) > tol:
                return False
        return True

    def to_table(self) -> str:
        """Render the relation in the paper's tabular layout."""
        header = list(self.schema.attributes) + ["λ", "T", "p"]
        rows = [
            [
                *(repr(v) for v in t.fact),
                str(t.lineage),
                str(t.interval),
                "?" if t.p is None else f"{t.p:.6g}",
            ]
            for t in sorted(self._tuples, key=null_safe_key)
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TPRelation({self.name!r}, {len(self._tuples)} tuples, "
            f"{len(self.facts())} facts)"
        )
