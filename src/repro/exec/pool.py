"""Worker-pool lifecycle and deterministic task mapping.

One persistent :mod:`multiprocessing` pool per worker count, created
lazily on first use and torn down at interpreter exit (or explicitly via
:func:`shutdown_pools`, which the test suite uses between configuration
changes).  The ``fork`` start method is preferred — workers inherit the
loaded modules for free — with ``spawn`` as the portable fallback.

Determinism: tasks are dispatched with :meth:`Pool.map`, whose results
come back in *submission* order regardless of worker completion order.
Combined with the pure-function chunker this makes the merged output a
function of the input alone (DESIGN.md §10.4).

Worker death (OOM kill, segfault, operator ``kill -9``) is survived
rather than hung on: ``multiprocessing.Pool`` silently replaces a dead
worker but never resubmits its in-flight task, so a plain ``map`` would
block forever.  :func:`run_tasks` therefore polls the pool's worker set
while waiting and, when a worker vanishes mid-map, discards the pool,
retries once on a fresh one, and finally falls back to inline serial
execution with a :class:`RuntimeWarning` — the results are bit-identical
in every case, only the transport differs.
"""

from __future__ import annotations

import atexit
import multiprocessing
import warnings
from typing import Any, Optional

from .workers import init_worker, run_task

__all__ = [
    "WorkerDiedError",
    "get_pool",
    "pool_worker_pids",
    "run_tasks",
    "shutdown_pools",
]

_POOLS: dict[int, Any] = {}

#: Poll interval while waiting on an in-flight map (seconds).  Small
#: enough that a killed worker is noticed promptly, large enough that an
#: uneventful map costs a handful of wakeups.
_WATCH_INTERVAL = 0.05


class WorkerDiedError(multiprocessing.ProcessError):
    """A pool worker died while a map was in flight; its task is lost."""


def _context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def get_pool(workers: int):
    """The persistent pool for ``workers`` processes (created lazily)."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _context().Pool(processes=workers, initializer=init_worker)
        _POOLS[workers] = pool
    return pool


def _map_guarded(pool: Any, tasks: list) -> list:
    """``pool.map`` that notices dead workers instead of hanging.

    The pool's maintenance thread replaces a killed worker with a fresh
    process but never resubmits the task the victim was holding, so the
    map's result would simply never become ready.  We watch the worker
    set (``pool._pool`` — internal, but stable across every CPython 3.x)
    while waiting: a vanished baseline pid or a non-``None`` exitcode
    means a worker died, and we raise :class:`WorkerDiedError` rather
    than wait forever.  Because that same maintenance thread mutates
    ``pool._pool`` concurrently, every check snapshots the list once and
    tolerates ``pid is None`` (a replacement mid-start is not a death).

    Infrastructure failures — a pool whose workers are gone before the
    submit, a broken result pipe — are classified here as
    :class:`WorkerDiedError` too, so :func:`run_tasks` can retry on a
    fresh pool.  Exceptions raised *by* a task propagate unchanged
    through ``get()`` and are never retried.
    """
    try:
        result = pool.map_async(run_task, tasks, chunksize=1)
    except (OSError, ValueError, multiprocessing.ProcessError) as exc:
        raise WorkerDiedError(f"could not submit to the pool: {exc}") from exc
    procs = list(pool._pool)
    baseline = {proc.pid for proc in procs if proc.pid is not None}
    while True:
        result.wait(_WATCH_INTERVAL)
        if result.ready():
            return result.get()
        procs = list(pool._pool)
        pids = {proc.pid for proc in procs if proc.pid is not None}
        if not baseline <= pids or any(
            proc.exitcode is not None for proc in procs
        ):
            raise WorkerDiedError(
                "a pool worker died mid-map; its in-flight task is lost"
            )


def run_tasks(tasks: list, workers: int) -> list:
    """Run tasks across the pool; results arrive in task order.

    A single task is executed inline — same code, no transport.  On an
    infrastructure failure (worker death, broken pipe) the pool is
    discarded and the whole batch retried once on a fresh pool; if that
    fails too, the batch runs inline serially with a
    :class:`RuntimeWarning` — correctness is preserved (tasks are pure,
    so re-running a lost task is safe), only parallelism is lost.
    Ordinary exceptions raised *by* a task — ``OSError`` from file I/O
    inside a worker included — propagate unchanged on the first raise:
    only :class:`WorkerDiedError`, the classification
    :func:`_map_guarded` reserves for transport trouble, triggers the
    retry.  (A broader ``except OSError`` here would silently re-execute
    a batch whose *task* failed, and could surface a different error
    than the first run's.)
    """
    if len(tasks) == 1:
        return [run_task(tasks[0])]
    for attempt in range(2):
        try:
            return _map_guarded(get_pool(workers), tasks)
        except WorkerDiedError:
            _discard(workers)
    warnings.warn(
        f"worker pool failed twice ({workers} workers); executing "
        f"{len(tasks)} task(s) inline serially",
        RuntimeWarning,
        stacklevel=2,
    )
    return [run_task(task) for task in tasks]


def _discard(workers: int) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.terminate()
        pool.join()


def pool_worker_pids() -> list[int]:
    """PIDs of every live pool worker process, across all pools.

    The serving layer's shutdown contract is "no leaked exec-pool
    workers"; this is the observable the smoke harness checks against
    (``os.kill(pid, 0)`` after exit must fail for each).  ``pool._pool``
    is snapshotted once per pool — the maintenance thread may be
    swapping workers while we look.
    """
    pids: list[int] = []
    for pool in list(_POOLS.values()):
        pids.extend(
            proc.pid
            for proc in list(pool._pool)
            if proc.pid is not None and proc.exitcode is None
        )
    return pids


def shutdown_pools(workers: Optional[int] = None) -> None:
    """Terminate one pool (or all) — used by tests and at exit."""
    if workers is not None:
        _discard(workers)
        return
    for count in list(_POOLS):
        _discard(count)


atexit.register(shutdown_pools)
