"""Execution of physical TP set-query plans.

The executor walks a physical plan bottom-up, computing every set
operation with its bound algorithm.  Probabilities are materialized once,
on the *root* result — intermediate relations carry lineage only, which
mirrors how lineage-based probabilistic databases defer confidence
computation to the end of query evaluation (and keeps repeated-subgoal
queries correct: intermediate 1OF-based shortcuts are never taken).

Performance notes (DESIGN.md §5–§6): intermediate set-operation results
are emitted in ``(F, Ts)`` order and carry their sortedness flag, so a
chain of operations sorts each base relation at most once; the root
materialization is a single batch valuation over interned lineages, so a
formula shared by many result tuples is valuated once, and a kernel root
is filled in place rather than copied (DESIGN.md §6.3).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from ..core.errors import UnknownRelationError
from ..core.multiway import multi_intersect, multi_union
from ..core.relation import TPRelation
from ..exec.config import ParallelConfig, parallel_execution
from .planner import (
    JoinPlan,
    MultiSetOpPlan,
    PhysicalPlan,
    ScanPlan,
    SelectPlan,
    SetOpPlan,
)

__all__ = ["execute_plan"]

#: Per-node observation callback: (path, plan node, result relation).
#: ``path`` addresses the node positionally — ``()`` is the root and
#: ``path + (i,)`` the i-th child — the scheme ``EXPLAIN``'s
#: estimates-vs-actuals rendering keys on.
Observer = Callable[[tuple, PhysicalPlan, TPRelation], None]

#: Plan nodes whose result tuples a kernel built for this execution.
_KERNEL_PLANS = (SetOpPlan, MultiSetOpPlan, JoinPlan)


def execute_plan(
    plan: PhysicalPlan,
    catalog: Mapping[str, TPRelation],
    *,
    materialize: bool = True,
    parallel: Union[int, ParallelConfig, None] = None,
    observe: Optional[Observer] = None,
) -> TPRelation:
    """Evaluate a physical plan against a catalog of named relations.

    ``parallel`` overrides the active worker-pool configuration for this
    plan (DESIGN.md §10): every parallel-capable operator under the plan
    — set-operation sweeps, join drivers, and the root batch valuation —
    runs under it.  ``None`` inherits the ambient configuration
    (``REPRO_PARALLEL`` or an enclosing :func:`parallel_execution`).

    ``observe`` is called once per plan node with its intermediate
    result (``EXPLAIN`` uses this to report actual row counts); it sees
    lineage-only relations, before the root materialization.
    """
    with parallel_execution(parallel):
        result = _run(plan, catalog, observe, ())
        if materialize:
            if isinstance(plan, _KERNEL_PLANS):
                # A kernel's p-less output tuples were allocated under
                # this plan, so the root is filled in place (DESIGN.md
                # §6.3); scans and selections hand out catalog tuples.
                result._fill_probabilities()
            else:
                result = result.materialize_probabilities()
    return result


def _run(
    plan: PhysicalPlan,
    catalog: Mapping[str, TPRelation],
    observe: Optional[Observer] = None,
    path: tuple = (),
) -> TPRelation:
    result = _evaluate(plan, catalog, observe, path)
    if observe is not None:
        observe(path, plan, result)
    return result


def _evaluate(
    plan: PhysicalPlan,
    catalog: Mapping[str, TPRelation],
    observe: Optional[Observer],
    path: tuple,
) -> TPRelation:
    if isinstance(plan, ScanPlan):
        try:
            return catalog[plan.relation]
        except KeyError as exc:
            raise UnknownRelationError(
                f"query references unknown relation {plan.relation!r}"
            ) from exc
    if isinstance(plan, SelectPlan):
        child = _run(plan.child, catalog, observe, path + (0,))
        return child.select(**{plan.attribute: plan.value})
    if isinstance(plan, MultiSetOpPlan):
        inputs = [
            _run(child, catalog, observe, path + (i,))
            for i, child in enumerate(plan.children)
        ]
        combine = multi_union if plan.op == "union" else multi_intersect
        return combine(*inputs, materialize=False)
    if isinstance(plan, JoinPlan):
        left = _run(plan.left, catalog, observe, path + (0,))
        right = _run(plan.right, catalog, observe, path + (1,))
        return plan.algorithm.compute(
            plan.kind, left, right, on=plan.on, materialize=False
        )
    assert isinstance(plan, SetOpPlan)
    left = _run(plan.left, catalog, observe, path + (0,))
    right = _run(plan.right, catalog, observe, path + (1,))
    return plan.algorithm.compute(plan.op, left, right, materialize=False)
