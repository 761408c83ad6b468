"""TP tuples: (fact, lineage, interval, probability).

A tuple r of a TP relation is an ordered set of values (r.F, r.λ, r.T,
r.p) — paper, Section III.  The temporal-probabilistic annotations state
that the tuple's lineage is true with probability ``p`` at every time
point inside ``T`` and false outside ``T``.

``p`` is optional on derived tuples: a set-operation result can be
materialized lazily, with probabilities computed on demand from the
lineage and the relation's event map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lineage.formula import Lineage, Var
from .interval import Interval
from .schema import Fact

__all__ = ["TPTuple", "base_tuple"]


@dataclass(frozen=True, slots=True)
class TPTuple:
    """One tuple of a temporal-probabilistic relation.

    Attributes
    ----------
    fact:
        The conventional attribute values (r.F).
    lineage:
        Boolean formula λ over base-tuple identifiers.  For base tuples
        this is the atomic variable of the tuple itself.
    interval:
        Half-open validity interval ``[Ts, Te)``.
    p:
        Marginal probability of the lineage being true at each point of
        the interval; ``None`` when not (yet) materialized.
    """

    fact: Fact
    lineage: Lineage
    interval: Interval
    p: Optional[float] = None

    @property
    def start(self) -> int:
        """Ts — the inclusive start point of the validity interval."""
        return self.interval.start

    @property
    def end(self) -> int:
        """Te — the exclusive end point of the validity interval."""
        return self.interval.end

    @property
    def sort_key(self) -> tuple:
        """The (F, Ts) key by which LAWA expects relations to be sorted."""
        return (self.fact, self.interval.start)

    # The copies below call the constructor directly: a fraction of
    # dataclasses.replace's cost, which re-reads every field by name.
    def with_probability(self, p: float) -> "TPTuple":
        """A copy of this tuple with its probability materialized."""
        return TPTuple(self.fact, self.lineage, self.interval, p)

    def with_interval(self, interval: Interval) -> "TPTuple":
        """A copy of this tuple valid over a different interval."""
        return TPTuple(self.fact, self.lineage, interval, self.p)

    def __str__(self) -> str:
        fact_text = ", ".join(repr(v) for v in self.fact)
        p_text = "?" if self.p is None else f"{self.p:g}"
        return f"({fact_text}, {self.lineage}, {self.interval}, {p_text})"


def base_tuple(fact: Fact, identifier: str, interval: Interval, p: float) -> TPTuple:
    """Construct a base tuple whose lineage is its own identifier.

    >>> t = base_tuple(("milk",), "a1", Interval(2, 10), 0.3)
    >>> str(t.lineage)
    'a1'
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"base-tuple probability must be in (0, 1], got {p}")
    return TPTuple(fact=fact, lineage=Var(identifier), interval=interval, p=p)
