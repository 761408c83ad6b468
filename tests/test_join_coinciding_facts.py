"""Outer joins whose null-padded facts coincide with other output facts.

An outer join over the result of another outer join sees nulls in its
inputs' non-join attributes.  A null-padded output fact can then equal
a matched fact, or a preserved-left fact a preserved-right one — e.g.
``(a ⟕ c) ⟖ a`` pads ``a``'s tuples exactly like the matches of the
``a`` tuples that found no ``c`` partner.  Set semantics keeps one such
fact per time point, present whenever any of its sources is, so the
output must stay duplicate-free and every tuple's probability must be
the possible-worlds marginal of its fact.  The engines (tuple sweep,
columnar sweep, worker pool), the naive sweepline baseline and the
incrementally maintained view must all agree.
"""

from __future__ import annotations

import pytest

from repro.core.sorting import null_safe_key
from repro.db import TPDatabase
from repro.exec import shutdown_pools
from repro.exec.config import ParallelConfig, columnar_execution, parallel_execution
from repro.query import parse_query
from repro.semantics import check_duplicate_free, query_marginals_via_worlds

TOL = 1e-9

QUERIES = [
    # e is empty: every tuple of a ⟕ e is a itself, padded with a null.
    "(a LEFT OUTER JOIN e ON k) RIGHT OUTER JOIN a",
    "(a LEFT OUTER JOIN c ON k) RIGHT OUTER JOIN a",
    "(a LEFT OUTER JOIN c ON k) FULL OUTER JOIN a",
    "a FULL OUTER JOIN (a LEFT OUTER JOIN c ON k)",
    "a LEFT OUTER JOIN (a LEFT OUTER JOIN c ON k)",
    # b is key-only: the degenerate-layout collapse carries one side.
    "(b LEFT OUTER JOIN c) FULL OUTER JOIN b",
    "b FULL OUTER JOIN (b LEFT OUTER JOIN c)",
    "(c RIGHT OUTER JOIN b) LEFT OUTER JOIN (b LEFT OUTER JOIN c)",
    # Both sides null-padded and join-attribute-only: the natural full
    # outer join collapses to a TP union over null-bearing facts.
    "(a FULL OUTER JOIN c ON k) FULL OUTER JOIN (a LEFT OUTER JOIN c ON k)",
]


def build_database() -> TPDatabase:
    db = TPDatabase()
    db.create_relation(
        "a", ("k", "x"), [("k1", "x1", 0, 4, 0.5), ("k2", "x2", 1, 3, 0.6)]
    )
    db.create_relation("b", ("k",), [("k1", 1, 6, 0.4), ("k2", 0, 2, 0.3)])
    db.create_relation("c", ("k", "y"), [("k1", "y1", 2, 5, 0.7)])
    db.create_relation("e", ("k", "z"), [])
    return db


def teardown_module(module) -> None:
    shutdown_pools()


def signature(relation) -> list[tuple]:
    return [
        (t.fact, t.start, t.end, str(t.lineage), t.p)
        for t in sorted(relation, key=null_safe_key)
    ]


def assert_matches_oracle(result, query: str, db: TPDatabase) -> None:
    """Each tuple carries its fact's marginal at every point it covers,
    and every (fact, point) with a nonzero marginal is covered."""
    catalog = {name: db.relation(name) for name in "abce"}
    oracle = query_marginals_via_worlds(parse_query(query), catalog)
    covered = set()
    for t in result:
        for point in range(t.start, t.end):
            key = (t.fact, point)
            assert key not in covered, f"{key} covered twice"
            covered.add(key)
            assert t.p == pytest.approx(oracle.get(key, 0.0), abs=TOL), key
    missing = {key for key, p in oracle.items() if p > TOL} - covered
    assert not missing


@pytest.mark.parametrize("query", QUERIES)
class TestCoincidingFacts:
    def test_duplicate_free(self, query):
        assert check_duplicate_free(build_database().query(query)) == []

    def test_matches_possible_worlds(self, query):
        db = build_database()
        assert_matches_oracle(db.query(query), query, db)

    def test_naive_sweep_matches_possible_worlds(self, query):
        db = build_database()
        assert_matches_oracle(
            db.query(query, join_algorithm="NAIVE-SWEEP"), query, db
        )

    def test_columnar_sweep_identical(self, query):
        db = build_database()
        serial = db.query(query)
        with columnar_execution(True):
            columnar = db.query(query)
        assert signature(columnar) == signature(serial)

    def test_parallel_sweep_identical(self, query):
        db = build_database()
        serial = db.query(query)
        config = ParallelConfig(workers=2, min_tuples=0, min_formulas=0)
        with parallel_execution(config):
            parallel = db.query(query)
        assert signature(parallel) == signature(serial)

    def test_view_matches_query_after_inserts(self, query):
        db = build_database()
        view = db.create_view("v", query, policy="eager")
        db.insert("a", [("k2", "x3", 2, 7, 0.45)])
        db.insert("c", [("k2", "y2", 0, 3, 0.35)])
        db.insert("b", [("k3", 1, 4, 0.25)])
        assert signature(view.relation()) == signature(
            db.query(query, use_views=False)
        )
