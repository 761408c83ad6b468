"""Cross-validation of every baseline against the snapshot oracle, plus
interface-contract tests (Table II capability enforcement)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import UnsupportedOperationError
from repro.baselines import (
    ALL_OPERATIONS,
    LawaAlgorithm,
    NormAlgorithm,
    OipAlgorithm,
    SweeplineAlgorithm,
    TimelineIndexAlgorithm,
    TpdbAlgorithm,
)
from repro.semantics import (
    check_change_preservation,
    check_duplicate_free,
    snapshot_set_operation,
)

from .strategies import tp_relation_pair

relaxed = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

ALGORITHMS = {
    "LAWA": LawaAlgorithm,
    "NORM": NormAlgorithm,
    "TPDB": TpdbAlgorithm,
    "OIP": OipAlgorithm,
    "TI": TimelineIndexAlgorithm,
    "SWEEP": SweeplineAlgorithm,
}

SUPPORTED = [
    (name, op)
    for name, cls in ALGORITHMS.items()
    for op in ALL_OPERATIONS
    if op in cls.supports
]

UNSUPPORTED = [
    (name, op)
    for name, cls in ALGORITHMS.items()
    for op in ALL_OPERATIONS
    if op not in cls.supports
]


@pytest.mark.parametrize("name,op", SUPPORTED)
class TestSupportedOperations:
    @relaxed
    @given(pair=tp_relation_pair())
    def test_matches_oracle(self, name, op, pair):
        r, s = pair
        expected = snapshot_set_operation(op, r, s)
        actual = ALGORITHMS[name]().compute(op, r, s)
        assert actual.equivalent_to(expected), (
            f"{name}/{op} mismatch:\nexpected:\n{expected.to_table()}\n"
            f"actual:\n{actual.to_table()}"
        )

    @relaxed
    @given(pair=tp_relation_pair())
    def test_output_change_preserved_and_duplicate_free(self, name, op, pair):
        r, s = pair
        result = ALGORITHMS[name]().compute(op, r, s)
        assert check_change_preservation(result) == []
        assert check_duplicate_free(result) == []

    def test_paper_example(self, name, op, rel_a, rel_c):
        expected = snapshot_set_operation(op, rel_a, rel_c)
        actual = ALGORITHMS[name]().compute(op, rel_a, rel_c)
        assert actual.equivalent_to(expected)


@pytest.mark.parametrize("name,op", UNSUPPORTED)
class TestUnsupportedOperations:
    def test_raises(self, name, op, rel_a, rel_c):
        with pytest.raises(UnsupportedOperationError):
            ALGORITHMS[name]().compute(op, rel_a, rel_c)


class TestInterfaceContract:
    def test_unknown_operation_rejected(self, rel_a, rel_c):
        with pytest.raises(UnsupportedOperationError):
            LawaAlgorithm().compute("xor", rel_a, rel_c)

    def test_schema_compatibility_checked(self, rel_a):
        from repro import SchemaMismatchError, TPRelation

        wide = TPRelation.from_rows(
            "w", ("product", "store"), [("milk", "zurich", 1, 3, 0.5)]
        )
        with pytest.raises(SchemaMismatchError):
            NormAlgorithm().compute("union", rel_a, wide)

    def test_result_name_mentions_algorithm(self, rel_a, rel_c):
        result = NormAlgorithm().compute("union", rel_a, rel_c)
        assert "[NORM]" in result.name

    def test_materialize_false_defers_probabilities(self, rel_a, rel_c):
        result = LawaAlgorithm().compute(
            "intersect", rel_a, rel_c, materialize=False
        )
        assert all(t.p is None for t in result)

    def test_events_merged_into_result(self, rel_a, rel_c):
        result = LawaAlgorithm().compute("union", rel_a, rel_c)
        assert set(result.events) == set(rel_a.events) | set(rel_c.events)

    def test_repr_lists_supported_ops(self):
        assert "intersect" in repr(OipAlgorithm())
