"""Tests for the ASCII timeline and window renderers."""

from __future__ import annotations

import pytest

from repro import TPRelation, lawa_windows, render_timeline, render_windows
from repro.core.sorting import sort_tuples


class TestRenderTimeline:
    def test_fig_style_output(self):
        a = TPRelation.from_rows("a", ("product",), [("milk", 2, 10, 0.3)])
        c = TPRelation.from_rows(
            "c", ("product",), [("milk", 1, 4, 0.6), ("milk", 6, 8, 0.7)]
        )
        text = render_timeline([c, a], fact=("milk",))
        lines = text.splitlines()
        assert lines[0].startswith("time")
        assert lines[1].startswith("c 'milk'")
        assert "[c1" in lines[1] and "[c2" in lines[1]
        assert "[a1" in lines[2]

    def test_all_facts_mode(self, rel_a):
        text = render_timeline([rel_a])
        assert "a 'chips'" in text
        assert "a 'dates'" in text
        assert "a 'milk'" in text

    def test_empty(self):
        empty = TPRelation.from_rows("e", ("x",), [])
        assert render_timeline([empty]) == "(empty timeline)"

    def test_width_guard(self):
        wide = TPRelation.from_rows("w", ("x",), [("v", 0, 10_000, 0.5)])
        with pytest.raises(ValueError, match="too wide"):
            render_timeline([wide])

    def test_gap_dots(self):
        r = TPRelation.from_rows("r", ("x",), [("v", 0, 1, 0.5), ("v", 3, 4, 0.5)])
        text = render_timeline([r])
        lane = text.splitlines()[1]
        assert "." in lane

    def test_doctest(self):
        import doctest

        from repro.core import render

        assert doctest.testmod(render).failed == 0


class TestRenderWindows:
    def test_window_partition(self, rel_a, rel_c):
        c_milk = rel_c.select(product="milk")
        a_milk = rel_a.select(product="milk")
        text = render_windows(
            lawa_windows(sort_tuples(c_milk.tuples), sort_tuples(a_milk.tuples))
        )
        assert "c1;∅" in text.replace(" ", "")
        assert "c1;a1" in text.replace(" ", "")
        assert "∅;a1" in text.replace(" ", "")

    def test_empty(self):
        assert render_windows([]) == "(no windows)"

    def test_width_guard(self):
        from repro import LineageWindow
        from repro.lineage import Var

        wide = [LineageWindow(("f",), 0, 10_000, Var("r1"), None)]
        with pytest.raises(ValueError, match="too wide"):
            render_windows(wide)
