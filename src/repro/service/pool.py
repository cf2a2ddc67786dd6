"""Executor pool: run SSSP tasks on a few threads.

The pool owns a set of named :class:`~repro.graph.csr.CSRGraph` objects
and a thread pool.  Tasks name the graph they run against and the
workers share the graphs in-process.  Closures and lambdas work as
task functions.

Threads add no speed here: the interpreter lock serialises a sweep's
~100 small numpy calls.  On a 2-vCPU host (numpy 2.4) 16 B=2
``batched_nearfar_sssp`` calls ran at 0.68x on two threads against
one, and a two-thread fan-out of the robustness experiment took 0.703 s
wall and 0.871 s CPU against 0.577 s and 0.577 s serially.
Parallelism comes from ``--shard-mode process``: each shard's engine
(and its pool) runs in a supervised ``repro shard-worker`` process
(see :mod:`repro.net.worker`).

The graph set is fixed at construction.  A task's kernel stops at its
own deadline (:mod:`repro.sssp.deadline`), so the pool never gives up
on a thread.  :meth:`ExecutorPool.close` shuts down gracefully, or
cancels not-yet-started work and returns without waiting.

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
from typing import Callable, List, Mapping, Optional

from repro import obs
from repro.graph.csr import CSRGraph

__all__ = ["ExecutorPool", "default_max_workers"]


def default_max_workers() -> int:
    """A conservative default: the CPU count, capped at 8."""
    return min(8, os.cpu_count() or 1)


class ExecutorPool:
    """A thread pool over a fixed set of named graphs.

    Parameters
    ----------
    graphs:
        ``{graph_id: CSRGraph}`` — the graphs tasks may name.
    max_workers:
        Worker count; defaults to :func:`default_max_workers`.
    """

    # reported by stats/health; worker processes are the shards' job
    mode = "thread"

    def __init__(
        self,
        graphs: Mapping[str, CSRGraph],
        *,
        max_workers: Optional[int] = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._graphs = dict(graphs)
        self.max_workers = max_workers or default_max_workers()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()
        self._pending = 0
        registry = obs.get_registry()
        self._depth_gauge = registry.gauge("service.pool.queue_depth")
        self._task_counter = registry.counter("service.pool.tasks")

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
        ``CancelledError``) and the call returns at once, leaving a
        running task to finish on its own thread.
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
        future = executor.submit(fn, self._graphs[graph_id], *args, **kwargs)
        return self._track(future)
