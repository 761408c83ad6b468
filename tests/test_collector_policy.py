"""Loaded relations leave the cyclic collector's traversal (DESIGN.md §17).

``TPDatabase.register`` (and durable recovery) ends with ``gc.freeze()``:
base tuples, intervals and lineage variables move to the permanent
generation, so full collections stop re-walking them.  Freezing must not
pin anything: a relation that is replaced is still freed by its
refcount, with no collection at all.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

from repro import TPRelation
from repro.db import TPDatabase

ROWS = [(f"k{i % 7}", f"x{i}", i, i + 3, 0.5) for i in range(300)]


def relation(name: str = "a") -> TPRelation:
    return TPRelation.from_rows(name, ("k", "x"), ROWS)


@contextmanager
def collector_off():
    """Keep the collector from freeing anything behind the test's back."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_register_freezes_the_loaded_objects():
    db = TPDatabase()
    before = gc.get_freeze_count()
    db.register(relation())
    assert gc.get_freeze_count() >= before + len(ROWS)


def test_recovery_freezes_the_recovered_stores(tmp_path):
    with TPDatabase(data_dir=tmp_path) as db:
        db.create_relation("a", ("k", "x"), ROWS)
        db.insert("a", [("k9", "x9", 0, 2, 0.25)])
    before = gc.get_freeze_count()
    with TPDatabase(data_dir=tmp_path) as reopened:
        assert gc.get_freeze_count() >= before + len(ROWS)
        assert len(reopened.relation("a")) == len(ROWS) + 1


def test_a_replaced_relation_is_freed_without_a_collection():
    db = TPDatabase()
    old = relation()
    db.register(old)
    old.sorted_tuples()
    ref = weakref.ref(old)
    del old
    with collector_off():
        db.register(relation(), replace=True)
        assert ref() is None


def test_register_replace_cycles_keep_the_frozen_set_bounded():
    db = TPDatabase()
    with collector_off():
        before = gc.get_freeze_count()
        db.register(relation())
        one_relation = gc.get_freeze_count() - before
        for _ in range(200):
            db.register(relation(), replace=True)
        grown = gc.get_freeze_count() - before
    assert one_relation >= len(ROWS)
    assert grown <= 3 * one_relation
