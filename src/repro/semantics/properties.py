"""Checkers for the formal properties of Definitions 1–3.

These functions return (ok, message) style diagnostics used by the test
suite and by :mod:`repro.bench` self-checks:

* **snapshot reducibility** (Def. 1): τᵖₜ(op(r, s)) ≡ op(τᵖₜ(r), τᵖₜ(s))
  for every time point t;
* **change preservation** (Def. 2): constant lineage inside every output
  interval and maximality of the intervals;
* **duplicate-freeness** of the output (Section III convention).
"""

from __future__ import annotations

from typing import Optional

from ..core.coalesce import is_coalesced
from ..core.relation import TPRelation
from ..core.sorting import null_safe_key
from ..core.timeslice import snapshot_lineages
from ..lineage.concat import concat_and, concat_and_not, concat_or
from ..lineage.formula import Lineage

__all__ = [
    "check_snapshot_reducibility",
    "check_change_preservation",
    "check_duplicate_free",
]


def _expected_lineage(
    op: str, lam_r: Optional[Lineage], lam_s: Optional[Lineage]
) -> Optional[Lineage]:
    if op == "union":
        if lam_r is None and lam_s is None:
            return None
        return concat_or(lam_r, lam_s)
    if op == "intersect":
        if lam_r is None or lam_s is None:
            return None
        return concat_and(lam_r, lam_s)
    if op == "except":
        if lam_r is None:
            return None
        return concat_and_not(lam_r, lam_s)
    raise ValueError(f"unknown operation {op!r}")


def check_snapshot_reducibility(
    op: str,
    r: TPRelation,
    s: TPRelation,
    result: TPRelation,
) -> list[str]:
    """Verify Def. 1 point by point; returns a list of violations (empty = ok).

    For every time point of the combined span and every fact, the lineage
    of the result tuple valid at t must equal the Table-I combination of
    the input lineages at t — and must be absent exactly when the
    combination is null.
    """
    violations: list[str] = []
    span_points: set[int] = set()
    for u in list(r) + list(s) + list(result):
        span_points.update(range(u.start, u.end))
    facts = set(r.facts()) | set(s.facts()) | set(result.facts())

    for t in sorted(span_points):
        in_r = snapshot_lineages(r, t)
        in_s = snapshot_lineages(s, t)
        in_out = snapshot_lineages(result, t)
        for fact in facts:
            expected = _expected_lineage(op, in_r.get(fact), in_s.get(fact))
            actual = in_out.get(fact)
            if expected != actual:
                violations.append(
                    f"t={t} fact={fact!r}: expected lineage "
                    f"{expected}, result has {actual}"
                )
    return violations


def check_change_preservation(result: TPRelation) -> list[str]:
    """Verify Def. 2's maximality: no adjacent same-fact equal-lineage tuples."""
    violations: list[str] = []
    if not is_coalesced(result.tuples):
        ordered = sorted(result.tuples, key=null_safe_key)
        for prev, curr in zip(ordered, ordered[1:]):
            if (
                prev.fact == curr.fact
                and prev.lineage == curr.lineage
                and curr.start <= prev.end
            ):
                violations.append(
                    f"tuples {prev} and {curr} should have been merged"
                )
    return violations


def check_duplicate_free(result: TPRelation) -> list[str]:
    """Verify the duplicate-freeness convention on an output relation."""
    violations: list[str] = []
    ordered = sorted(result.tuples, key=null_safe_key)
    for prev, curr in zip(ordered, ordered[1:]):
        if prev.fact == curr.fact and curr.start < prev.end:
            violations.append(
                f"fact {prev.fact!r} valid over overlapping intervals "
                f"{prev.interval} and {curr.interval}"
            )
    return violations
