"""Tests for the property checkers themselves: they must catch violations."""

from __future__ import annotations

from repro import Interval, TPRelation, TPSchema, tp_intersect
from repro.core.tuple import TPTuple
from repro.lineage import Var, land
from repro.semantics import (
    check_change_preservation,
    check_duplicate_free,
    check_snapshot_reducibility,
)


def _relation(tuples, events, attributes=("x",)):
    return TPRelation("t", TPSchema(attributes), tuples, events, validate=False)


class TestSnapshotReducibilityChecker:
    def test_accepts_correct_result(self, rel_a, rel_c):
        result = tp_intersect(rel_a, rel_c)
        assert check_snapshot_reducibility("intersect", rel_a, rel_c, result) == []

    def test_flags_wrong_lineage(self, rel_a, rel_c):
        correct = tp_intersect(rel_a, rel_c)
        corrupted = _relation(
            [
                TPTuple(t.fact, land(t.lineage, Var("ghost")), t.interval, t.p)
                for t in correct
            ],
            {**correct.events, "ghost": 0.5},
        )
        assert check_snapshot_reducibility("intersect", rel_a, rel_c, corrupted)

    def test_flags_missing_tuple(self, rel_a, rel_c):
        correct = tp_intersect(rel_a, rel_c)
        truncated = _relation(list(correct.tuples)[:-1], correct.events)
        assert check_snapshot_reducibility("intersect", rel_a, rel_c, truncated)

    def test_flags_extra_interval(self, rel_a, rel_c):
        correct = tp_intersect(rel_a, rel_c)
        extra = list(correct.tuples) + [
            TPTuple(("milk",), Var("a1"), Interval(90, 95), 0.3)
        ]
        assert check_snapshot_reducibility(
            "intersect", rel_a, rel_c, _relation(extra, correct.events)
        )


class TestChangePreservationChecker:
    def test_flags_fragmented_output(self):
        v = Var("r1")
        fragmented = _relation(
            [
                TPTuple(("f",), v, Interval(1, 3), 0.5),
                TPTuple(("f",), v, Interval(3, 6), 0.5),
            ],
            {"r1": 0.5},
        )
        assert check_change_preservation(fragmented)

    def test_accepts_maximal_intervals(self):
        fragments = _relation(
            [
                TPTuple(("f",), Var("r1"), Interval(1, 3), 0.5),
                TPTuple(("f",), Var("r2"), Interval(3, 6), 0.5),
            ],
            {"r1": 0.5, "r2": 0.5},
        )
        assert check_change_preservation(fragments) == []


class TestDuplicateFreeChecker:
    def test_flags_overlap(self):
        overlapping = _relation(
            [
                TPTuple(("f",), Var("r1"), Interval(1, 5), 0.5),
                TPTuple(("f",), Var("r2"), Interval(4, 8), 0.5),
            ],
            {"r1": 0.5, "r2": 0.5},
        )
        assert check_duplicate_free(overlapping)

    def test_accepts_disjoint(self, rel_c):
        assert check_duplicate_free(rel_c) == []

    def test_flags_overlap_of_null_padded_facts(self):
        # Outer joins emit facts holding None; the checker must order
        # them without comparing None against a value.
        padded = _relation(
            [
                TPTuple(("k", None), Var("r1"), Interval(1, 5), 0.5),
                TPTuple(("k", "x"), Var("r2"), Interval(2, 3), 0.5),
                TPTuple(("k", None), Var("r2"), Interval(4, 8), 0.5),
            ],
            {"r1": 0.5, "r2": 0.5},
            attributes=("a", "b"),
        )
        assert check_duplicate_free(padded)

