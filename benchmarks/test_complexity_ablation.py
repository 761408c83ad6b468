"""Ablations for the Section VI-B complexity claims.

* LAWA's growth between two sizes must be far below quadratic (the
  O(n log n) claim, Proposition 1).
* The two sorting strategies of the pipeline's first stage.
* Probability materialization cost (the Corollary-1 linear valuation).
* The LAWA sweep in isolation (windows only, no output construction).
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import get_algorithm
from repro.core.lawa import LawaSweep
from repro.core.sorting import sort_tuples
from repro.core.setops import tp_intersect
from repro.datasets import generate_pair

from .conftest import scaled


def test_lawa_subquadratic_growth(benchmark):
    """Quadratic growth would be 16× from 4× the input; require ≤ 8×."""
    benchmark.group = "ablation-scaling"
    small = generate_pair(scaled(4_000), seed=0)
    large = generate_pair(scaled(16_000), seed=0)
    algorithm = get_algorithm("LAWA")

    started = time.perf_counter()
    algorithm.compute("intersect", *small)
    t_small = time.perf_counter() - started

    def run_large():
        return algorithm.compute("intersect", *large)

    benchmark.pedantic(run_large, rounds=3, iterations=1)
    t_large = min(benchmark.stats.stats.data)
    assert t_large / t_small < 8.0, (
        f"LAWA grew {t_large / t_small:.1f}x on 4x input — not linearithmic"
    )


@pytest.mark.parametrize("op", ["union", "intersect", "except"])
def test_lawa_per_operation(benchmark, op, synthetic_medium):
    """The LAWA pipeline on one medium synthetic pair, per set operation."""
    benchmark.group = f"ablation-setops-{op}"
    r, s = synthetic_medium
    algorithm = get_algorithm("LAWA")
    result = benchmark.pedantic(
        lambda: algorithm.compute(op, r, s), rounds=2, iterations=1
    )
    assert len(result) > 0


@pytest.mark.parametrize("strategy", ["comparison", "counting"])
def test_sort_strategies(benchmark, strategy, synthetic_medium):
    benchmark.group = "ablation-sorting"
    r, _ = synthetic_medium
    tuples = list(r.tuples)
    ordered = benchmark(lambda: sort_tuples(tuples, strategy=strategy))
    assert len(ordered) == len(tuples)


@pytest.mark.parametrize("materialize", [True, False])
def test_materialization_share(benchmark, materialize, synthetic_small):
    """With vs without the Corollary-1 probability valuation."""
    benchmark.group = "ablation-materialization"
    r, s = synthetic_small
    result = benchmark(lambda: tp_intersect(r, s, materialize=materialize))
    assert (result.tuples[0].p is not None) == materialize


def test_window_production_only(benchmark, synthetic_small):
    """The raw LAWA sweep: windows per second, no filtering or output."""
    benchmark.group = "ablation-sweep"
    r, s = synthetic_small
    r_sorted = sort_tuples(r.tuples)
    s_sorted = sort_tuples(s.tuples)

    def sweep_all():
        sweep = LawaSweep(r_sorted, s_sorted)
        while sweep.advance() is not None:
            pass
        return sweep.windows_produced

    windows = benchmark(sweep_all)
    fd = len(r.facts() | s.facts())
    assert windows <= r.endpoint_count() + s.endpoint_count() - fd
