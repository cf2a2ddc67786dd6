"""Executor pool: fan SSSP work out over threads.

The pool owns a set of named :class:`~repro.graph.csr.CSRGraph` objects
and a thread pool.  Tasks name the graph they run against and the
workers share the graphs in-process.  NumPy releases the GIL inside
the vectorised kernels, so frontier stages of independent runs
genuinely overlap; the Python glue between stages serialises.
Closures and lambdas work as task functions.

Process isolation lives one layer up: ``--shard-mode process`` runs
each shard's engine (and its pool) inside a supervised ``repro
shard-worker`` process, which is respawned after SIGKILL, OOM,
corrupt frames or heartbeat silence (see :mod:`repro.net.worker`).

The graph set is fixed at construction.  Per-task timeouts are
enforced at result-collection time (:meth:`ExecutorPool.run` /
:meth:`ExecutorPool.map_ordered` raise :class:`PoolTimeoutError`);
:meth:`ExecutorPool.close` shuts down gracefully, or cancels
not-yet-started work and returns without waiting for running tasks.

**Timed-out tasks cannot be killed.**  ``Future.cancel()`` on a task
that already started is a no-op for threads, so a hung task keeps its
worker slot occupied until (unless) it returns.  :meth:`abandon` makes
that limitation explicit: it cancels what can be cancelled and
*accounts* what cannot — the ``service.pool.lost_workers`` gauge counts
slots currently held by abandoned-but-running tasks (decremented if
the straggler eventually finishes) and :attr:`lost_workers` exposes
the same number in-process.

Deterministic sabotage for tests and chaos drills: pass a
:class:`~repro.resilience.faults.FaultPlan` and the pool delays each
planned task by its ``hang`` (chosen by submission index), so a
shorter per-task timeout sees a hung task.

The pool publishes ``service.pool.queue_depth`` (gauge) and
``service.pool.tasks`` (counter) through the observability context
active at construction (see :mod:`repro.obs.context`).  The pool
itself stays telemetry-agnostic: a telemetry-on engine submits a
closure that installs its context on the worker thread, and the pool
runs it like any other task.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, List, Mapping, Optional, Sequence

from repro import obs
from repro.graph.csr import CSRGraph
from repro.resilience.faults import FaultPlan, FaultSpec, apply_fault

__all__ = [
    "ExecutorPool",
    "PoolTimeoutError",
    "default_max_workers",
]


class PoolTimeoutError(TimeoutError):
    """A task exceeded the pool's per-task timeout."""


def default_max_workers() -> int:
    """A conservative default: the CPU count, capped at 8."""
    return min(8, os.cpu_count() or 1)


def _run_faulted(fault: FaultSpec, fn: Callable, graph, args, kwargs):
    return apply_fault(fault, lambda: fn(graph, *args, **kwargs))


class ExecutorPool:
    """A thread pool over a fixed set of named graphs.

    Parameters
    ----------
    graphs:
        ``{graph_id: CSRGraph}`` — the graphs tasks may name.
    max_workers:
        Worker count; defaults to :func:`default_max_workers`.
    timeout:
        Per-task timeout in seconds applied by :meth:`run` and
        :meth:`map_ordered` (``None`` = wait forever).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; when set,
        each submission is sabotaged (or not) per the plan's seeded
        decision for its submission index.
    """

    # reported by stats/health; worker processes are the shards' job
    mode = "thread"

    def __init__(
        self,
        graphs: Mapping[str, CSRGraph],
        *,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self._graphs = dict(graphs)
        self.max_workers = max_workers or default_max_workers()
        self.timeout = timeout
        self.fault_plan = fault_plan
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()
        self._pending = 0
        self._task_index = 0
        self._lost_workers = 0
        registry = obs.get_registry()
        self._depth_gauge = registry.gauge("service.pool.queue_depth")
        self._task_counter = registry.counter("service.pool.tasks")
        self._lost_gauge = registry.gauge("service.pool.lost_workers")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-pool",
            )
        return self._executor

    def close(self, *, cancel_pending: bool = False) -> None:
        """Shut down; wait for running tasks unless ``cancel_pending``.

        Without ``cancel_pending`` every submitted task runs and the
        call returns once all have finished.  With it, queued tasks
        that have not started are cancelled (their futures raise
        ``CancelledError``) and the call returns at once: a running
        task (say, one abandoned by the timeout) cannot be stopped, so
        it finishes on its own thread without holding the caller.
        """
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(
                wait=not cancel_pending, cancel_futures=cancel_pending
            )
            self._executor = None

    @property
    def alive(self) -> bool:
        """Usable right now: not closed."""
        return not self._closed

    @property
    def lost_workers(self) -> int:
        """Slots currently occupied by abandoned (timed-out) tasks."""
        return self._lost_workers

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Tasks submitted but not yet finished."""
        return self._pending

    def graph(self, graph_id: str) -> CSRGraph:
        return self._graphs[graph_id]

    @property
    def graph_ids(self) -> List[str]:
        return sorted(self._graphs)

    def _track(self, future: Future) -> Future:
        with self._lock:
            self._pending += 1
            self._depth_gauge.set(self._pending)
        self._task_counter.inc()

        def _done(_fut: Future) -> None:
            with self._lock:
                self._pending -= 1
                self._depth_gauge.set(self._pending)

        future.add_done_callback(_done)
        return future

    def submit(
        self, graph_id: str, fn: Callable, *args, **kwargs
    ) -> Future:
        """Schedule ``fn(graph, *args, **kwargs)`` on a worker thread."""
        if graph_id not in self._graphs:
            raise KeyError(
                f"unknown graph {graph_id!r} (have {self.graph_ids})"
            )
        executor = self._ensure_executor()
        graph = self._graphs[graph_id]
        fault = None
        if self.fault_plan is not None:
            with self._lock:
                index = self._task_index
                self._task_index += 1
            fault = self.fault_plan.decide(index)
        if fault is not None:
            future = executor.submit(
                _run_faulted, fault, fn, graph, args, kwargs
            )
        else:
            future = executor.submit(fn, graph, *args, **kwargs)
        return self._track(future)

    def abandon(self, future: Future) -> bool:
        """Give up on a future; account the slot if it cannot be freed.

        Returns True if the task was cancelled before starting.  A
        task already running cannot be stopped — the slot is counted
        lost (``service.pool.lost_workers`` gauge, :attr:`lost_workers`)
        until the straggler finishes on its own, if it ever does.
        """
        if future.cancel() or future.done():
            return future.cancelled()
        with self._lock:
            self._lost_workers += 1
            self._lost_gauge.set(self._lost_workers)

        def _finally_finished(_fut: Future) -> None:
            with self._lock:
                self._lost_workers -= 1
                self._lost_gauge.set(self._lost_workers)

        future.add_done_callback(_finally_finished)
        return False

    def run(self, graph_id: str, fn: Callable, *args, **kwargs):
        """Submit one task and wait for it (honouring the pool timeout)."""
        future = self.submit(graph_id, fn, *args, **kwargs)
        try:
            return future.result(timeout=self.timeout)
        except FutureTimeoutError:
            self.abandon(future)
            raise PoolTimeoutError(
                f"task on graph {graph_id!r} exceeded {self.timeout}s"
            ) from None

    def map_ordered(
        self,
        graph_id: str,
        fn: Callable,
        arg_tuples: Sequence[tuple],
    ) -> list:
        """Run ``fn(graph, *args)`` for every tuple, concurrently.

        Results come back **in input order** regardless of completion
        order, so a parallel batch is a drop-in replacement for the
        serial loop.  The pool timeout applies to each task
        individually; the first failing task raises (the remaining
        futures are left to finish, then cancelled by ``close``).
        """
        futures = [self.submit(graph_id, fn, *args) for args in arg_tuples]
        results = []
        for i, future in enumerate(futures):
            try:
                results.append(future.result(timeout=self.timeout))
            except FutureTimeoutError:
                for later in futures[i:]:
                    self.abandon(later)
                raise PoolTimeoutError(
                    f"task {i} on graph {graph_id!r} exceeded {self.timeout}s"
                ) from None
        return results
