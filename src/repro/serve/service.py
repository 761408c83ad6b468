"""The query service: pinned-session execution with two-tier caching.

This is the serving layer's brain (DESIGN.md §14), deliberately free of
any I/O so tests and benchmarks can drive it in-process:

- **Sessions** pin an epoch-consistent snapshot catalog at open (and on
  every ``begin``/``commit``), so readers never block the writer and
  never observe a half-applied transaction.
- **Writes** go through :meth:`TPDatabase.apply` — the store-transaction
  and durability path — then re-pin the committing session to the state
  it just produced.
- **Caching** is two-tier.  The *plan cache* maps canonical form (plus
  optimize level and worker count) to a physical plan; plans for one
  canonical form are result-equivalent, so entries survive commits.  The
  *result cache* additionally keys on the session's epoch signature
  restricted to the query's referenced names — a commit changes the
  signature, so stale results can never be served, and a sweep retires
  entries once no live session pins their epochs.

Thread model: **not** thread-safe.  Lineage interning and the valuation
memo are process-global and unlocked, so the server funnels every call
here through one dedicated executor thread (DESIGN.md §14.2); in-process
callers (tests, benchmarks) are single-threaded already.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..core.errors import QueryParseError, UnknownRelationError
from ..core.relation import TPRelation
from ..db.database import TPDatabase
from ..exec.config import parallel_execution
from ..query.analysis import analyze
from ..query.ast import QueryNode, relation_references
from ..query.cost import choose_plan
from ..query.executor import execute_plan
from ..query.explain import render_explain
from ..query.fingerprint import canonical_key
from ..query.optimize import resolve_level
from ..query.parser import parse_query, strip_explain_prefix
from ..query.planner import plan_query
from ..query.stats import RelationStats, relation_stats
from ..store import ChangeSet
from .cache import LRUCache
from .session import EpochPart, Session

__all__ = ["QueryResponse", "QueryService"]


@dataclass(frozen=True)
class QueryResponse:
    """One query's outcome: a relation or an EXPLAIN report, plus cache facts."""

    relation: Optional[TPRelation]
    explain: Optional[str]
    cached: bool
    epoch_key: tuple[EpochPart, ...]


class QueryService:
    """Sessions, caches and the pinned execution path over a ``TPDatabase``."""

    def __init__(self, db: TPDatabase, *, cache_size: int = 256) -> None:
        self.db = db
        self.results = LRUCache(cache_size)
        self.plans = LRUCache(cache_size)
        self._sessions: dict[int, Session] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(self) -> int:
        """Open a session pinned to the current epochs; returns its id."""
        session = Session(next(self._ids))
        self._pin(session)
        self._sessions[session.session_id] = session
        return session.session_id

    def session(self, session_id: int) -> Session:
        """The live session with this id (KeyError when closed/unknown)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no open session #{session_id}") from None

    def begin(self, session_id: int) -> tuple[EpochPart, ...]:
        """Re-pin a session to the current state; returns its new signature."""
        session = self.session(session_id)
        self._pin(session)
        self.sweep()
        return session.signature()

    def close_session(self, session_id: int) -> None:
        """Release a session's pins (idempotent) and retire dead cache epochs."""
        if self._sessions.pop(session_id, None) is not None:
            self.sweep()

    def close(self) -> None:
        """Release every session and drop both caches."""
        self._sessions.clear()
        self.results.clear()
        self.plans.clear()

    def _pin(self, session: Session) -> None:
        """Capture an epoch-consistent snapshot of every resolvable name.

        Views are refreshed first (their content is then a pure function
        of the base epochs recorded in their part); a ``manual`` view's
        cached state is *not* such a function, so it gets a fresh unique
        part each pin — correct, merely uncacheable across pins.
        """
        db = self.db
        catalog: dict[str, TPRelation] = {}
        epochs: dict[str, EpochPart] = {}
        with parallel_execution(db.parallel):
            for name in db.view_names():
                view = db.view(name)
                catalog[name] = view.relation()
                if view.policy == "manual":
                    epochs[name] = ("view-manual", name, next(self._ids))
                else:
                    bases = tuple(
                        (base, db.store(base).epoch)
                        for base in db.view_base_stores(name)
                    )
                    epochs[name] = ("view", name, bases)
        for name in db.store_names():
            store = db.store(name)
            catalog[name] = store.snapshot()
            epochs[name] = ("store", name, store.epoch)
        for name in db.relation_names():
            if name not in catalog:
                catalog[name] = db.relation(name)
                epochs[name] = ("const", name)
        session.catalog = catalog
        session.epochs = epochs

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def execute(
        self,
        session_id: int,
        text_or_ast: Union[str, QueryNode],
        *,
        optimize: Union[bool, str, None] = False,
        aggressive: bool = False,
    ) -> QueryResponse:
        """Run a query (or ``EXPLAIN`` request) against the session's snapshot.

        Accepts the same grammar and optimize levels as
        :meth:`TPDatabase.query`; reads only the session's pinned
        relations, so concurrent commits are invisible until the session
        re-pins.  Results are cached keyed on (canonical form, level,
        workers, epoch signature of the referenced names) — a repeated
        query at a fixed epoch is served from cache, bit-identically.
        """
        session = self.session(session_id)
        ast, explained = self._parse(text_or_ast)
        level = resolve_level(optimize, aggressive)
        missing = [n for n in relation_references(ast) if n not in session.catalog]
        if missing:
            raise UnknownRelationError(
                f"no relation named {missing[0]!r} in this session's snapshot"
            )
        if explained:
            return QueryResponse(None, self._explain(session, ast, level), False, ())
        key_base = canonical_key(ast)
        workers = self.db.parallel
        epoch_key = session.epoch_key(relation_references(ast))
        result_key = (key_base, level, workers, epoch_key)
        cached = self.results.get(result_key)
        if cached is not None:
            return QueryResponse(cached, None, True, epoch_key)
        plan = self._plan(session, ast, level, key_base, workers, epoch_key)
        result = execute_plan(
            plan, session.catalog, materialize=True, parallel=workers
        )
        self.results.put(result_key, result)
        return QueryResponse(result, None, False, epoch_key)

    def _parse(
        self, text_or_ast: Union[str, QueryNode]
    ) -> tuple[QueryNode, bool]:
        """Parse, honoring the EXPLAIN prefix with PR 2's keyword rules."""
        if not isinstance(text_or_ast, str):
            return text_or_ast, False
        stripped = strip_explain_prefix(text_or_ast)
        if stripped is None:
            return parse_query(text_or_ast), False
        # Keywords are not reserved as relation names: when the remainder
        # is not a query but the whole text is, run the whole text.
        try:
            return parse_query(stripped), True
        except QueryParseError:
            try:
                return parse_query(text_or_ast), False
            except QueryParseError:
                raise QueryParseError(
                    f"EXPLAIN target does not parse: {stripped!r}"
                ) from None

    def _plan(
        self,
        session: Session,
        ast: QueryNode,
        level: str,
        key_base: tuple,
        workers: Optional[int],
        epoch_key: tuple[EpochPart, ...],
    ):
        """The physical plan for ``ast``, through the plan cache.

        Key shape per level: ``off`` executes the raw parsed tree, so the
        tree itself is the key; ``safe`` rewrites are lineage-identical,
        so any cached plan for the canonical form answers bit-identically
        regardless of the epoch its statistics came from; ``aggressive``
        rewrites may change the lineage *form*, so the key pins the
        epochs too — equal keys must imply bit-identical results.
        """
        plan_key: tuple
        if level == "off":
            plan_key = ("off", ast)
        elif level == "aggressive":
            plan_key = (level, key_base, workers, epoch_key)
        else:
            plan_key = (level, key_base, workers)
        plan = self.plans.get(plan_key)
        if plan is not None:
            return plan
        lowered: QueryNode = ast
        if level != "off":
            choice = choose_plan(
                ast,
                self._stats(session, ast),
                aggressive=level == "aggressive",
                workers=workers,
            )
            lowered = choice.chosen
        plan = plan_query(lowered)
        self.plans.put(plan_key, plan)
        return plan

    def _stats(self, session: Session, ast: QueryNode) -> dict[str, RelationStats]:
        """Optimizer statistics computed from the session's *pinned* relations.

        Pinned snapshots are immutable, and :func:`relation_stats` caches
        per relation identity — so a session's statistics are warm after
        the first optimized query and consistent with what it reads.
        """
        stats: dict[str, RelationStats] = {}
        for name in relation_references(ast):
            relation = session.catalog.get(name)
            if relation is not None:
                stats[name] = relation_stats(relation)
        return stats

    def _explain(self, session: Session, ast: QueryNode, level: str) -> str:
        """The EXPLAIN ANALYZE report, over the session's pinned catalog."""
        analysis = analyze(ast)
        stats = self._stats(session, ast)
        choice = None
        lowered: QueryNode = ast
        if level != "off":
            choice = choose_plan(
                ast, stats, aggressive=level == "aggressive", workers=self.db.parallel
            )
            lowered = choice.chosen
        plan = plan_query(lowered)
        counts: dict[tuple, int] = {}
        execute_plan(
            plan,
            session.catalog,
            materialize=False,
            parallel=self.db.parallel,
            observe=lambda path, _node, result: counts.__setitem__(
                path, len(result)
            ),
        )
        return render_explain(
            lowered,
            plan,
            stats,
            level=level,
            analysis=analysis,
            choice=choice,
            actuals=counts,
            workers=self.db.parallel,
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def commit(
        self,
        session_id: int,
        name: str,
        inserts: Iterable[Sequence[object]] = (),
        deletes: Iterable[Sequence[object]] = (),
    ) -> ChangeSet:
        """One transaction through the store/durability path.

        The committing session is re-pinned to the state it produced (it
        reads its own writes); other sessions keep their snapshots until
        they ``begin`` anew.  Cache entries whose epochs are no longer
        pinned by anyone are swept.
        """
        session = self.session(session_id)
        changeset = self.db.apply(name, inserts=inserts, deletes=deletes)
        self._pin(session)
        self.sweep()
        return changeset

    def create_relation(
        self,
        session_id: int,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]],
    ) -> TPRelation:
        """Create and register a base relation; the session re-pins to see it."""
        session = self.session(session_id)
        relation = self.db.create_relation(name, attributes, rows)
        self._pin(session)
        return relation

    # ------------------------------------------------------------------
    # maintenance and introspection
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Retire result-cache entries no live session (nor the present) pins."""
        live: set[EpochPart] = self._current_parts()
        for session in self._sessions.values():
            live.update(session.epochs.values())
        return self.results.sweep(
            lambda key: all(part in live for part in key[3])
        )

    def _current_parts(self) -> set[EpochPart]:
        """The epoch parts a session pinned right now would hold."""
        db = self.db
        parts: set[EpochPart] = set()
        for name in db.store_names():
            parts.add(("store", name, db.store(name).epoch))
        for name in db.view_names():
            if db.view(name).policy != "manual":
                bases = tuple(
                    (base, db.store(base).epoch)
                    for base in db.view_base_stores(name)
                )
                parts.add(("view", name, bases))
        for name in db.relation_names():
            if name not in db.store_names() and name not in db.view_names():
                parts.add(("const", name))
        return parts

    def stats(self) -> dict:
        """Introspection snapshot: sessions, cache counters, store epochs."""
        return {
            "sessions": len(self._sessions),
            "results": self.results.stats(),
            "plans": self.plans.stats(),
            "epochs": {
                name: self.db.store(name).epoch for name in self.db.store_names()
            },
        }

    def __repr__(self) -> str:
        return (
            f"QueryService({self.db!r}, {len(self._sessions)} sessions, "
            f"results={self.results!r})"
        )
