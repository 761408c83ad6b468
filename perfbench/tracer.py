"""In-memory span tracer installed from outside the engine.

The traced run wraps the public functions of each layer at the module
(or class) attribute its *caller* looks up — e.g.
``repro.core.relation.probability_batch`` rather than
``repro.prob.valuation.probability_batch``, because
``TPRelation.materialize_probabilities`` resolves the name in its own
module.  No file under ``src/`` changes.

A span is ``(span_id, parent_id, op_id, name, start_ns, end_ns, attrs)``.
Spans of one operation share the id of its root span.  Collector pauses
are taken from ``gc.callbacks`` and charged to the span that was open on
the collecting thread.  Everything stays in memory until :meth:`dump`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gc
import importlib
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

clock = time.perf_counter_ns


def _rows(_args, result) -> dict:
    return {"rows": len(result)}


def _plan_choice(_args, result) -> dict:
    return {"candidates": result.n_candidates, "est_rows": result.estimate.rows}


def _memo_counters() -> tuple[int, int]:
    from repro.prob.valuation import valuation_cache_stats

    stats = valuation_cache_stats()
    return stats["hits"], stats["misses"]


# (module, attribute path, span name, result attrs, counters sampled
# before and after).  The attribute path is looked up in the module; a
# dotted path names a class attribute (a method every caller reaches
# through the instance).
DB_WRAPS = (
    ("repro.db.database", "parse_query", "query.parse", None, None),
    ("repro.db.database", "substitute_views", "query.views", None, None),
    ("repro.db.database", "TPDatabase.stats_of", "query.stats", None, None),
    ("repro.db.database", "choose_plan", "query.optimize", _plan_choice, None),
    ("repro.db.database", "plan_query", "query.plan", None, None),
    ("repro.db.database", "execute_plan", "query.execute", _rows, None),
)
KERNEL_WRAPS = (
    ("repro.baselines.lawa_algorithm", "LawaAlgorithm.compute", "core.setop", _rows, None),
    ("repro.query.executor", "multi_union", "core.setop", _rows, None),
    ("repro.query.executor", "multi_intersect", "core.setop", _rows, None),
    ("repro.baselines.registry", "JoinAlgorithm.compute", "algebra.join", _rows, None),
    ("repro.core.relation", "TPRelation.select", "core.select", None, None),
    ("repro.core.relation", "TPRelation.sorted_tuples", "core.sort", None, None),
    (
        "repro.core.relation",
        "TPRelation.materialize_probabilities",
        "relation.materialize",
        None,
        None,
    ),
    ("repro.core.relation", "probability_batch", "prob.valuation", None, _memo_counters),
    ("repro.core.setops", "probability_batch", "prob.valuation", None, _memo_counters),
    ("repro.core.multiway", "probability_batch", "prob.valuation", None, _memo_counters),
    ("repro.algebra.join", "probability_batch", "prob.valuation", None, _memo_counters),
)
# View maintenance re-sweeps delta ranges through the shared group
# routine, which ``repro.store.view`` imports at call time.
VIEW_KERNEL_WRAPS = (
    ("repro.exec.engine", "group_rows_many", "core.delta_sweep", None, None),
    ("repro.store.view", "probability_batch", "prob.valuation", None, _memo_counters),
)
STORE_WRAPS = VIEW_KERNEL_WRAPS + (
    ("repro.store.segment", "SegmentStore.apply", "store.apply", None, None),
    ("repro.store.segment", "SegmentStore.snapshot", "store.snapshot", None, None),
    ("repro.store.view", "MaterializedView.refresh", "store.view", None, None),
    ("repro.store.view", "MaterializedView.relation", "store.view", None, None),
    ("repro.store.recovery", "StorePersistence.on_commit", "store.wal", None, None),
)
SERVE_WRAPS = (
    ("repro.serve.service", "QueryService.execute", "serve.execute", None, None),
    ("repro.serve.service", "QueryService.commit", "serve.commit", None, None),
    ("repro.serve.service", "parse_query", "query.parse", None, None),
    ("repro.serve.service", "relation_stats", "query.stats", None, None),
    ("repro.serve.service", "choose_plan", "query.optimize", _plan_choice, None),
    ("repro.serve.service", "plan_query", "query.plan", None, None),
    ("repro.serve.service", "execute_plan", "query.execute", _rows, None),
    ("repro.serve.server", "relation_payload", "serve.encode", None, None),
    ("repro.serve.server", "encode_line", "serve.encode", None, None),
)
IN_PROCESS_WRAPS = DB_WRAPS + KERNEL_WRAPS + STORE_WRAPS
SERVER_WRAPS = SERVE_WRAPS + DB_WRAPS + KERNEL_WRAPS + STORE_WRAPS


class Tracer:
    """Spans and collector pauses, recorded in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.gc_pauses: list[tuple] = []
        self._current: contextvars.ContextVar[Optional[tuple[int, int]]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        self._gc_start = 0

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span around a block (the runner's op roots)."""
        parent = self._current.get()
        span_id = next(self._ids)
        op_id = parent[1] if parent is not None else span_id
        token = self._current.set((span_id, op_id))
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._current.reset(token)
            self.spans.append(
                (span_id, parent and parent[0], op_id, name, start, end, None)
            )

    def _wrapper(self, fn: Callable, name: str, attrs, counters) -> Callable:
        current, ids, spans = self._current, self._ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            span_id = next(ids)
            op_id = parent[1] if parent is not None else span_id
            token = current.set((span_id, op_id))
            before = counters() if counters is not None else None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                current.reset(token)
                extra = None
                if attrs is not None and result is not None:
                    extra = attrs(args, result)
                if before is not None:
                    after = counters()
                    extra = {"hits": after[0] - before[0], "misses": after[1] - before[1]}
                spans.append(
                    (span_id, parent and parent[0], op_id, name, start, end, extra)
                )

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
            return
        parent = self._current.get()
        self.gc_pauses.append(
            (
                self._gc_start,
                clock(),
                info["generation"],
                parent and parent[0],
                parent and parent[1],
            )
        )

    # -- installation --------------------------------------------------
    def install(self, wraps) -> None:
        """Wrap every ``(module, attribute, span, attrs, counters)`` entry."""
        for module_name, path, name, attrs, counters in wraps:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(original, name, attrs, counters))
            self._installed.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and stop watching the collector."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def dump(self, path: Path) -> None:
        """Write spans and pauses as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(["span", *span]) + "\n")
            for pause in self.gc_pauses:
                handle.write(json.dumps(["gc", *pause]) + "\n")


def load_dump(path: Path) -> tuple[list[tuple], list[tuple]]:
    """Read a :meth:`Tracer.dump` file back into (spans, pauses)."""
    spans, pauses = [], []
    with path.open() as handle:
        for line in handle:
            kind, *fields = json.loads(line)
            (spans if kind == "span" else pauses).append(tuple(fields))
    return spans, pauses


class SpanReport:
    """Self time per span name, and collector pauses, over a time window.

    A span's self time is its duration minus the time covered by its
    child spans and by collector pauses charged to it directly.
    """

    def __init__(
        self, spans: list[tuple], pauses: list[tuple], start_ns: int, end_ns: int
    ) -> None:
        self.spans = [s for s in spans if start_ns <= s[4] and s[5] <= end_ns]
        self.pauses = [p for p in pauses if start_ns <= p[0] and p[1] <= end_ns]
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[1] is not None:
                child_ns[span[1]] += span[5] - span[4]
        gc_ns: dict[Optional[int], int] = defaultdict(int)
        for pause in self.pauses:
            gc_ns[pause[3]] += pause[1] - pause[0]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.covered_ns: dict[int, int] = {}
        for span in self.spans:
            span_id, name = span[0], span[3]
            covered = child_ns[span_id] + gc_ns[span_id]
            self.covered_ns[span_id] = covered
            self.self_ns[name] += span[5] - span[4] - covered
            self.count[name] += 1
        self.gc_ns = sum(p[1] - p[0] for p in self.pauses)

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[3] == name]

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s[6][key] for s in self.named(name) if s[6] and key in s[6])

    def gen2_count(self) -> int:
        return sum(1 for p in self.pauses if p[2] == 2)

    def root_qerrors(self) -> list[float]:
        """max(est/act, act/est) of the chosen plan's root, per optimized op."""
        estimates = {
            s[2]: s[6]["est_rows"] for s in self.named("query.optimize") if s[6]
        }
        errors = []
        for span in self.named("query.execute"):
            if span[2] in estimates and span[6]:
                est = max(float(estimates[span[2]]), 1.0)
                act = max(float(span[6]["rows"]), 1.0)
                errors.append(max(est / act, act / est))
        return errors
