"""Root materialization fills a kernel's own output, never a catalog tuple.

A plan whose root is a kernel node (set operation, multiway sweep or
join) has its probabilities set in place on the tuples that kernel built
for this execution (DESIGN.md §6.3).  That is sound only while every
``p``-less tuple in a kernel's output is freshly allocated.  These tests
hold every registered set-op algorithm, every join kind and every join
algorithm to that: a lineage-only relation registered in the catalog
keeps ``p is None`` on every tuple, and each filled root is bit-identical
to the copying :meth:`TPRelation.materialize_probabilities`.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import all_algorithms, join_algorithms
from repro.db import TPDatabase
from repro.query import execute_plan, parse_query, plan_query
from repro.query.optimize import optimize_query
from repro.query.planner import JoinPlan, MultiSetOpPlan, ScanPlan, SelectPlan, SetOpPlan

SET_OPS = {"union": "|", "intersect": "&", "except": "-"}
JOIN_KINDS = (
    "JOIN", "LEFT OUTER JOIN", "RIGHT OUTER JOIN", "FULL OUTER JOIN", "ANTI JOIN",
)
#: (left, right) operand pairs for the joins: ``c`` is key-only, so the
#: outer joins against it take the degenerate-layout collapse, which
#: carries the lineage-only side through.
JOIN_PAIRS = (("lo", "c"), ("c", "lo"), ("lo", "d"), ("d", "lo"), ("lo", "a"))


def build_database() -> TPDatabase:
    db = TPDatabase()
    db.create_relation("a", ("k", "x"), [
        ("k1", "x1", 0, 6, 0.5), ("k2", "x2", 2, 5, 0.4), ("k3", "x3", 1, 9, 0.7),
    ])
    db.create_relation("b", ("k", "x"), [
        ("k1", "x1", 3, 8, 0.8), ("k4", "x4", 0, 2, 0.6), ("k2", "x2", 7, 9, 0.3),
    ])
    db.create_relation("c", ("k",), [("k1", 1, 4, 0.9), ("k3", 5, 7, 0.2)])
    db.create_relation("d", ("k", "y"), [("k1", "y1", 2, 6, 0.35), ("k4", "y4", 1, 3, 0.45)])
    db.register(db.query("a | b", materialize=False).rename("lo"))
    return db


def signature(relation) -> list:
    return [(t.fact, t.interval, t.lineage, t.p) for t in relation]


def assert_root_owned(db: TPDatabase, plan) -> None:
    catalog = db.catalog
    deferred = execute_plan(plan, catalog, materialize=False)
    copied = deferred.materialize_probabilities()
    assert all(t.p is None for t in deferred), "materialize_probabilities wrote its input"
    seen = {}
    filled = execute_plan(
        plan, catalog, observe=lambda path, node, result: seen.setdefault(path, result)
    )
    assert signature(filled) == signature(copied)
    assert all(t.p is not None for t in filled)
    if isinstance(plan, (SetOpPlan, MultiSetOpPlan, JoinPlan)):
        assert filled is seen[()], "a kernel root is filled in place, not copied"
    assert all(t.p is None for t in catalog["lo"]), "a query wrote a catalog tuple"


@pytest.fixture
def db():
    database = build_database()
    assert all(t.p is None for t in database.relation("lo"))
    return database


#: Every (algorithm, operation) pair Table II (plus the extras) supports.
SUPPORTED = [(a.name, op) for a in all_algorithms() for op in SET_OPS if op in a.supports]


@pytest.mark.parametrize("algorithm,op", SUPPORTED)
@pytest.mark.parametrize("operands", [("lo", "a"), ("b", "lo"), ("lo", "lo")], ids="-".join)
def test_set_operation_roots(db, algorithm, op, operands):
    left, right = operands
    plan = plan_query(parse_query(f"{left} {SET_OPS[op]} {right}"), algorithm=algorithm)
    assert isinstance(plan, SetOpPlan)
    assert_root_owned(db, plan)


@pytest.mark.parametrize("query", ["lo | a | b", "lo & a & b", "a | lo | b | lo"])
def test_multiway_roots(db, query):
    plan = plan_query(optimize_query(parse_query(query)))
    assert isinstance(plan, MultiSetOpPlan)
    assert_root_owned(db, plan)


@pytest.mark.parametrize("join_algorithm", [a.name for a in join_algorithms()])
@pytest.mark.parametrize("kind", JOIN_KINDS)
@pytest.mark.parametrize("pair", JOIN_PAIRS, ids="-".join)
def test_join_roots(db, join_algorithm, kind, pair):
    left, right = pair
    plan = plan_query(
        parse_query(f"{left} {kind} {right} ON k"), join_algorithm=join_algorithm
    )
    assert isinstance(plan, JoinPlan)
    assert_root_owned(db, plan)


@pytest.mark.parametrize("query", ["lo", "lo[k='k1']"])
def test_scan_and_selection_roots_copy(db, query):
    plan = plan_query(parse_query(query))
    assert isinstance(plan, (ScanPlan, SelectPlan))
    assert_root_owned(db, plan)


def test_reregistered_collapse_output_stays_lineage_only():
    """The degenerate left-outer collapse once passed catalog tuples
    through, and the root fill then valued them in the catalog."""
    db = build_database()
    for kind in ("LEFT OUTER JOIN", "FULL OUTER JOIN"):
        result = db.query(f"lo {kind} c ON k")
        assert all(t.p is not None for t in result)
        assert all(t.p is None for t in db.relation("lo"))
