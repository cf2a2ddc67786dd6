"""The SSSP query engine: cache, dedup, pool, observability.

:class:`QueryEngine` turns a :class:`~repro.service.catalog.GraphCatalog`
into something that answers :class:`SSSPQuery` requests:

1. **cache** — repeats are served from a bounded LRU
   (:mod:`repro.service.cache`) keyed on ``(graph fingerprint, source,
   algorithm, canonical params)``; the fingerprint in the key makes a
   stale hit against changed graph data impossible.
2. **dedup** — identical queries submitted in one batch collapse onto
   a single execution; the duplicates report ``cache="coalesced"``.
3. **pool** — misses run on a thread
   :class:`~repro.service.pool.ExecutorPool` with the graphs shared
   in-process, per-query timeouts and graceful shutdown.  Concurrent
   misses on one ``(graph, algorithm, params)`` corridor are coalesced
   into one batched kernel call (``max_batch``).
4. **one run per task** — every pool result is sanity validated
   (:func:`~repro.resilience.retry.validate_result`) before it can
   reach the cache or a client.  A task that raises, outlives the pool
   timeout or returns a corrupt result is abandoned, and each query it
   carried answers the error once: the kernels are deterministic, so a
   rerun would only repeat the failure.  A failed task is **never
   cached**, and the next query on its corridor runs afresh.

Every query emits ``query_start`` / ``query_end`` events and updates
``service.*`` metrics through the observability context active when
the engine was built, so a serve session's hit rate, queue depth,
error count and latency distribution are one ``snapshot()`` away;
:meth:`QueryEngine.health` reports pool liveness for the ``health``
protocol op.

When that context is live, every query also carries a
:class:`~repro.obs.telemetry.TraceContext`: the engine derives a child
of the query's (protocol-minted) trace, and each pool task runs in a
closure that records the kernel's metrics and trace-stamped events
straight into the serving context (see :mod:`repro.obs.telemetry`).
The engine books each settled task's ``worker/...`` span rows and the
labelled ``service.query.latency`` / ``service.query.queue_wait`` /
``service.query.compute`` histograms — per ``(graph, algorithm)`` —
whose p50/p95/p99 the ``metrics`` protocol op exposes.  With a null
context the engine submits the bare runner call.  Either way a pool
task returns the bare result, so validation is one path.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.obs.telemetry import TraceContext, WorkerEvents, emit_span
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import CorruptResultError, validate_result
from repro.service.cache import LRUCache
from repro.service.catalog import GraphCatalog
from repro.service.pool import ExecutorPool, PoolTimeoutError
from repro.service.runners import (
    BATCHED_ALGORITHMS,
    run_algorithm,
    run_algorithm_batch,
    validate_params,
)
from repro.sssp.result import SSSPResult

__all__ = ["SSSPQuery", "QueryResponse", "QueryEngine"]


@dataclass(frozen=True)
class SSSPQuery:
    """One shortest-path request against a catalogued graph."""

    graph_id: str
    source: int
    algorithm: str = "adaptive"
    params: Mapping = field(default_factory=dict)
    request_id: Optional[str] = None
    # the caller's trace (protocol-minted); identity-only, so excluded
    # from equality — two identical queries on different traces still
    # coalesce onto one execution
    trace: Optional[TraceContext] = field(default=None, compare=False)

    def canonical_params(self) -> str:
        """Params as sorted JSON — the cache-key component."""
        return json.dumps(dict(self.params), sort_keys=True, default=float)


@dataclass
class QueryResponse:
    """What the engine answers; :meth:`as_dict` is the wire format."""

    query: SSSPQuery
    ok: bool
    cache: str = "miss"  # "miss" | "hit" | "coalesced"
    error: Optional[str] = None
    fingerprint: Optional[str] = None
    reached: int = 0
    iterations: int = 0
    relaxations: int = 0
    max_dist: Optional[float] = None
    mean_dist: Optional[float] = None
    wall_seconds: float = 0.0
    trace_id: Optional[str] = None

    def as_dict(self) -> dict:
        """The JSON-ready wire form: query echo plus answer or error."""
        out: dict = {"ok": self.ok}
        if self.query.request_id is not None:
            out["id"] = self.query.request_id
        out.update(
            graph=self.query.graph_id,
            source=self.query.source,
            algorithm=self.query.algorithm,
        )
        if self.trace_id is not None:
            out["trace"] = self.trace_id
        if not self.ok:
            out["error"] = self.error
            return out
        out.update(
            fingerprint=self.fingerprint,
            cache=self.cache,
            reached=self.reached,
            iterations=self.iterations,
            relaxations=self.relaxations,
            max_dist=self.max_dist,
            mean_dist=self.mean_dist,
            wall_seconds=round(self.wall_seconds, 6),
        )
        return out

    # Wire fields shipped verbatim between shard-worker processes and
    # the front-end: everything except ``query`` (the caller already
    # holds it, and rebuilding from it keeps ids/traces identical).
    _WIRE_FIELDS = (
        "ok",
        "cache",
        "error",
        "fingerprint",
        "reached",
        "iterations",
        "relaxations",
        "max_dist",
        "mean_dist",
        "wall_seconds",
        "trace_id",
    )

    def to_wire(self) -> dict:
        """A JSON-safe dict for the worker frame protocol.

        Round-tripping through :meth:`from_wire` yields a response
        whose :meth:`as_dict` is byte-identical to this one's — the
        process-mode server answers exactly what thread mode would.
        """
        return {name: getattr(self, name) for name in self._WIRE_FIELDS}

    @classmethod
    def from_wire(cls, query: SSSPQuery, data: Mapping) -> "QueryResponse":
        """Invert :meth:`to_wire`, re-attaching the caller's query."""
        return cls(query=query, **{k: data[k] for k in cls._WIRE_FIELDS})


def _summarise(result: SSSPResult) -> dict:
    finite = result.finite_distances()
    return {
        "reached": result.num_reached,
        "iterations": result.iterations,
        "relaxations": result.relaxations,
        "max_dist": float(finite.max()) if finite.size else None,
        "mean_dist": float(finite.mean()) if finite.size else None,
    }


CacheKey = Tuple[str, int, str, str]

# one pending cache-miss:
# (request index, query, cache key, qid, start time, engine trace ctx)
_Miss = Tuple[int, SSSPQuery, CacheKey, int, float, Optional[TraceContext]]


class QueryEngine:
    """Serve SSSP queries against a catalog, with caching and a pool.

    Parameters
    ----------
    catalog:
        The graphs to serve.  Loaded eagerly at construction — the
        pool needs concrete arrays to hand its workers.
    max_workers, timeout:
        Pool configuration (see :class:`~repro.service.pool.ExecutorPool`).
    cache_size:
        LRU capacity in results (0 disables caching).
    fault_plan:
        Optional deterministic sabotage for chaos drills, passed to
        the pool (see :class:`~repro.resilience.faults.FaultPlan`).
    max_batch:
        Coalescing width: concurrent cache-miss queries on the same
        ``(graph, algorithm, params)`` corridor are dispatched as one
        batched kernel call, at most ``max_batch`` sources per call
        (only for algorithms with a multi-source kernel — see
        :data:`~repro.service.runners.BATCHED_ALGORITHMS`).  1 (the
        default) disables coalescing: every miss is its own pool task.
    labels:
        Extra labels folded into every ``service.query.*`` histogram
        this engine publishes (on top of ``graph``/``algorithm``).
        The shard manager tags each shard engine with
        ``{"shard": "<index>"}`` so per-shard latency stays
        distinguishable in one shared registry.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        *,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        cache_size: int = 128,
        fault_plan: Optional[FaultPlan] = None,
        max_batch: int = 1,
        labels: Optional[Mapping[str, str]] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.catalog = catalog
        self._graphs = catalog.load_all()
        self.pool = ExecutorPool(
            self._graphs,
            max_workers=max_workers,
            timeout=timeout,
            fault_plan=fault_plan,
        )
        self.cache = LRUCache(cache_size)
        self.max_batch = int(max_batch)
        self._extra_labels = dict(labels or {})
        self._qid = 0
        registry = obs.get_registry()
        self._registry = registry
        self._events = obs.get_events()
        self._spans = obs.get_spans()
        # captured once at construction: with a null context this stays
        # False and every pool task is the bare runner call
        self._telemetry = obs.current().enabled
        self._query_counter = registry.counter("service.queries")
        self._error_counter = registry.counter("service.errors")
        self._query_timer = registry.timer("service.query_seconds")
        self._batch_size_hist = registry.histogram("service.batch.size")
        self._batch_coalesced = registry.counter("service.batch.coalesced")
        # labelled per-(graph, algorithm) histogram handles, cached so
        # the hot path does one dict lookup instead of a registry call
        self._query_hist_cache: Dict[
            Tuple[str, str], Tuple[object, object, object]
        ] = {}

    def _query_hists(
        self, graph_id: str, algorithm: str
    ) -> Tuple[object, object, object]:
        """The ``(latency, queue_wait, compute)`` histogram triple for
        one ``(graph, algorithm)`` label pair."""
        cached = self._query_hist_cache.get((graph_id, algorithm))
        if cached is None:
            labels = {
                "graph": graph_id,
                "algorithm": algorithm,
                **self._extra_labels,
            }
            cached = (
                self._registry.histogram("service.query.latency", labels=labels),
                self._registry.histogram(
                    "service.query.queue_wait", labels=labels
                ),
                self._registry.histogram("service.query.compute", labels=labels),
            )
            self._query_hist_cache[(graph_id, algorithm)] = cached
        return cached

    def _observe_latency(self, query: SSSPQuery, response: QueryResponse) -> None:
        """Record end-to-end latency for one answered query."""
        if self._telemetry and response.ok:
            latency, _, _ = self._query_hists(query.graph_id, query.algorithm)
            latency.observe(response.wall_seconds)

    def _mint_ctx(self, query: SSSPQuery) -> Optional[TraceContext]:
        """The engine-side trace context for one query, or None.

        A protocol-minted trace gains an engine child span; a bare
        engine call (no protocol in front) mints its own root so
        direct :meth:`run` users still get traced.
        """
        if not self._telemetry:
            return None
        if query.trace is not None:
            return query.trace.child()
        return TraceContext.mint()

    @property
    def telemetry(self) -> bool:
        """True when the engine was built under a live obs context."""
        return self._telemetry

    @property
    def events(self):
        """The event sink the engine publishes to (protocol spans use it)."""
        return self._events

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, cancel_pending: bool = False) -> None:
        """Shut the pool down; ``cancel_pending`` drops queued tasks, waits for none."""
        self.pool.close(cancel_pending=cancel_pending)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def _cache_key(self, query: SSSPQuery) -> CacheKey:
        fingerprint = self._graphs[query.graph_id].fingerprint()
        return (
            fingerprint,
            int(query.source),
            query.algorithm,
            query.canonical_params(),
        )

    def _next_qid(self) -> int:
        self._qid += 1
        return self._qid

    def _emit_start(
        self,
        qid: int,
        query: SSSPQuery,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        if self._events.enabled:
            event = {
                "type": "query_start",
                "qid": qid,
                "graph": query.graph_id,
                "source": int(query.source),
                "algorithm": query.algorithm,
                "queue_depth": self.pool.pending,
            }
            if ctx is not None:
                event["trace"] = ctx.trace_id
            self._events.emit(event)

    def _emit_end(
        self,
        qid: int,
        response: QueryResponse,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        if self._events.enabled:
            event = {
                "type": "query_end",
                "qid": qid,
                "ok": response.ok,
                "cache": response.cache if response.ok else None,
                "error": response.error,
                "reached": response.reached,
                "iterations": response.iterations,
                "wall_seconds": round(response.wall_seconds, 6),
            }
            if ctx is not None:
                event["trace"] = ctx.trace_id
            self._events.emit(event)
        emit_span(
            self._events,
            ctx,
            "engine/query",
            response.wall_seconds,
            qid=qid,
            graph=response.query.graph_id,
            algorithm=response.query.algorithm,
            cache=response.cache if response.ok else None,
        )

    def _validate(self, query: SSSPQuery) -> Optional[str]:
        """A human-readable rejection reason, or None if runnable."""
        if query.graph_id not in self._graphs:
            return (
                f"unknown graph {query.graph_id!r} "
                f"(have {self.pool.graph_ids or 'none'})"
            )
        try:
            validate_params(query.algorithm, query.params)
        except ValueError as exc:
            return str(exc)
        graph = self._graphs[query.graph_id]
        if not 0 <= int(query.source) < graph.num_nodes:
            return (
                f"source {query.source} out of range for "
                f"{graph.num_nodes}-node graph {query.graph_id!r}"
            )
        return None

    def run(self, query: SSSPQuery) -> QueryResponse:
        """Answer one query (cache -> pool), never raising for bad input."""
        return self.run_many([query])[0]

    def _submit(self, members: List[_Miss]) -> Tuple[object, Optional[list]]:
        """Submit one pool task answering ``members`` (one corridor).

        Two or more members run the multi-source kernel; a lone member
        (a single query, or a corridor's odd one out) runs the
        single-source runner.  Returns ``(future, clock)``: ``clock`` is
        None with telemetry off, else the :meth:`_pool_task` timings.
        """
        lead = members[0][1]
        if len(members) > 1:
            task = run_algorithm_batch
            source = [int(m[1].source) for m in members]
        else:
            task = run_algorithm
            source = int(lead.source)
        clock = None
        if self._telemetry:
            clock = [time.perf_counter()]
            task = self._pool_task(task, members[0][5], clock)
        future = self.pool.submit(
            lead.graph_id, task, source, lead.algorithm, dict(lead.params)
        )
        return future, clock

    def _pool_task(self, run, ctx: TraceContext, clock: List[float]):
        """``run`` as a pool task that records into this engine's context.

        The pool thread gets the engine's registry and, for a sampled
        trace on a live sink, a trace-stamping view of the sink (else
        the null sink); spans stay null, as a recorder's stack is
        single-threaded.  ``clock`` (holding the enqueue time) gains the
        task's start, kernel start, kernel end and end times.
        """
        events = (
            WorkerEvents(self._events, ctx.trace_id)
            if ctx.sampled and self._events.enabled
            else None
        )

        def task(graph, *args):
            started = time.perf_counter()
            with obs.use(registry=self._registry, events=events, scope="thread"):
                kernel_start = time.perf_counter()
                result = run(graph, *args)
                kernel_end = time.perf_counter()
            clock.extend((started, kernel_start, kernel_end, time.perf_counter()))
            return result

        return task

    def _book_task(
        self, query: SSSPQuery, ctx: TraceContext, clock: List[float]
    ) -> None:
        """Book a settled pool task against its lead ``query``: the
        ``worker/task`` and ``worker/task/kernel`` span rows and (sampled
        traces only) events, and the queue-wait and compute histograms."""
        enqueued, started, kernel_start, kernel_end, ended = clock
        task_s, kernel_s = ended - started, kernel_end - kernel_start
        self._spans.merge(
            [
                {"path": "worker/task", "count": 1, "seconds": task_s},
                {"path": "worker/task/kernel", "count": 1, "seconds": kernel_s},
            ]
        )
        worker = ctx.child()
        emit_span(self._events, worker, "worker/task", task_s, count=1)
        emit_span(
            self._events, worker.child(), "worker/task/kernel", kernel_s, count=1
        )
        _, queue_hist, compute_hist = self._query_hists(
            query.graph_id, query.algorithm
        )
        queue_hist.observe(started - enqueued)
        compute_hist.observe(task_s)

    def _emit_batch_dispatch(self, chunk: List[_Miss]) -> None:
        if self._events.enabled:
            lead = chunk[0][1]
            lead_ctx = chunk[0][5]
            event = {
                "type": "batch_dispatch",
                "graph": lead.graph_id,
                "algorithm": lead.algorithm,
                "batch_size": len(chunk),
                "sources": [int(m[1].source) for m in chunk],
                "qids": [m[3] for m in chunk],
            }
            if lead_ctx is not None:
                event["trace"] = lead_ctx.trace_id
            self._events.emit(event)

    def _dispatch(
        self, misses: List[_Miss]
    ) -> List[Tuple[object, Optional[list], List[_Miss]]]:
        """Turn pending misses into ``(future, clock, members)`` submissions.

        With ``max_batch > 1``, misses on one ``(graph, algorithm,
        params)`` corridor whose algorithm has a multi-source kernel
        are coalesced into batch tasks of at most ``max_batch`` sources
        (a corridor dispatches at its first member's position, so
        submission order tracks request order); everything else is one
        task per query.
        """
        groups: Dict[Tuple[str, str, str], List[_Miss]] = {}
        plan: List[List[_Miss]] = []
        for miss in misses:
            query = miss[1]
            if self.max_batch > 1 and query.algorithm in BATCHED_ALGORITHMS:
                corridor = (
                    query.graph_id,
                    query.algorithm,
                    query.canonical_params(),
                )
                if corridor not in groups:
                    groups[corridor] = []
                    plan.append(groups[corridor])
                groups[corridor].append(miss)
            else:
                plan.append([miss])

        dispatches: List[Tuple[object, Optional[list], List[_Miss]]] = []
        for members in plan:
            for start in range(0, len(members), self.max_batch):
                chunk = members[start : start + self.max_batch]
                future, clock = self._submit(chunk)
                if len(chunk) > 1:
                    self._batch_size_hist.observe(len(chunk))
                    self._batch_coalesced.inc(len(chunk) - 1)
                    self._emit_batch_dispatch(chunk)
                dispatches.append((future, clock, chunk))
        return dispatches

    def run_many(self, queries: List[SSSPQuery]) -> List[QueryResponse]:
        """Answer a batch, deduplicating identical in-flight queries.

        Responses come back in request order.  Distinct queries run
        concurrently on the pool; identical ones (same graph content,
        source, algorithm and params) execute once and fan the result
        back out with ``cache="coalesced"``.  With ``max_batch > 1``,
        distinct cache-misses sharing a ``(graph, algorithm, params)``
        corridor are dispatched as one batched kernel call
        (``batch_dispatch`` event, ``service.batch.*`` metrics) while
        keeping per-query caching, validation and ``query_start`` /
        ``query_end`` events.
        """
        responses: List[Optional[QueryResponse]] = [None] * len(queries)
        pending_keys: Dict[CacheKey, bool] = {}
        misses: List[_Miss] = []
        coalesced: List[
            Tuple[int, CacheKey, int, Optional[TraceContext]]
        ] = []

        for i, query in enumerate(queries):
            qid = self._next_qid()
            self._query_counter.inc()
            ctx = self._mint_ctx(query)
            self._emit_start(qid, query, ctx)
            reason = self._validate(query)
            if reason is not None:
                self._error_counter.inc()
                responses[i] = QueryResponse(
                    query=query,
                    ok=False,
                    error=reason,
                    trace_id=ctx.trace_id if ctx else None,
                )
                self._emit_end(qid, responses[i], ctx)
                continue
            key = self._cache_key(query)
            t0 = time.perf_counter()
            cached = self.cache.get(key)
            if cached is not None:
                response = QueryResponse(
                    query=query,
                    ok=True,
                    cache="hit",
                    fingerprint=key[0],
                    wall_seconds=time.perf_counter() - t0,
                    trace_id=ctx.trace_id if ctx else None,
                    **_summarise(cached),  # type: ignore[arg-type]
                )
                self._query_timer.observe(response.wall_seconds)
                self._observe_latency(query, response)
                responses[i] = response
                self._emit_end(qid, response, ctx)
                continue
            if key in pending_keys:
                coalesced.append((i, key, qid, ctx))
                continue
            pending_keys[key] = True
            misses.append((i, query, key, qid, t0, ctx))
            responses[i] = None  # filled in below

        # settle dispatches in submission order
        settled: Dict[CacheKey, QueryResponse] = {}
        for future, clock, members in self._dispatch(misses):
            for miss, response in self._settle(future, clock, members):
                i, query, key, qid, t0, ctx = miss
                self._query_timer.observe(response.wall_seconds)
                self._observe_latency(query, response)
                responses[i] = response
                settled[key] = response
                self._emit_end(qid, response, ctx)

        for i, key, qid, ctx in coalesced:
            primary = settled.get(key)
            assert primary is not None
            response = QueryResponse(
                query=queries[i],
                ok=primary.ok,
                cache="coalesced" if primary.ok else primary.cache,
                error=primary.error,
                fingerprint=primary.fingerprint,
                reached=primary.reached,
                iterations=primary.iterations,
                relaxations=primary.relaxations,
                max_dist=primary.max_dist,
                mean_dist=primary.mean_dist,
                wall_seconds=primary.wall_seconds,
                trace_id=ctx.trace_id if ctx else None,
            )
            if not primary.ok:
                self._error_counter.inc()
            responses[i] = response
            self._emit_end(qid, response, ctx)

        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # settling
    # ------------------------------------------------------------------
    def _settle(
        self, future, clock: Optional[list], members: List[_Miss]
    ) -> List[Tuple[_Miss, QueryResponse]]:
        """Wait for one dispatch; one response per member.

        The wait is bounded by the pool timeout.  Every member result
        must pass sanity validation before *any* of them can reach the
        cache or a client — results of one kernel pass stand or fall
        together.  A task that raises, times out or returns a corrupt
        result is abandoned, and every member answers its error once.
        Errors are **never** cached.  A single query is a one-member
        dispatch whose lone result is wrapped in a list.  With
        telemetry on, a validated task is booked (:meth:`_book_task`).
        """
        lead = members[0][1]
        graph = self._graphs[lead.graph_id]
        try:
            results = future.result(timeout=self.pool.timeout)
            if len(members) == 1:
                results = [results]
            elif (
                not isinstance(results, (list, tuple))
                or len(results) != len(members)
            ):
                raise CorruptResultError(
                    f"batch task returned {type(results).__name__}, "
                    f"expected {len(members)} results"
                )
            for miss, result in zip(members, results):
                validate_result(
                    result,
                    num_nodes=graph.num_nodes,
                    source=int(miss[1].source),
                )
        except Exception as exc:
            self.pool.abandon(future)
            timed_out = isinstance(
                exc, (PoolTimeoutError, TimeoutError, FutureTimeoutError)
            )
            message = (
                f"timeout after {self.pool.timeout}s"
                if timed_out
                else f"{type(exc).__name__}: {exc}"
            )
            now = time.perf_counter()
            self._error_counter.inc(len(members))
            return [
                (
                    miss,
                    QueryResponse(
                        query=miss[1],
                        ok=False,
                        error=message,
                        wall_seconds=now - miss[4],
                        trace_id=miss[5].trace_id if miss[5] else None,
                    ),
                )
                for miss in members
            ]
        if clock is not None:
            self._book_task(lead, members[0][5], clock)
        now = time.perf_counter()
        out: List[Tuple[_Miss, QueryResponse]] = []
        for miss, result in zip(members, results):
            _, query, key, _, t0, ctx = miss
            response = QueryResponse(
                query=query,
                ok=True,
                cache="miss",
                fingerprint=key[0],
                wall_seconds=now - t0,
                trace_id=ctx.trace_id if ctx else None,
                **_summarise(result),  # type: ignore[arg-type]
            )
            self.cache.put(key, result)
            out.append((miss, response))
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Pool liveness (the ``health`` op)."""
        return {
            "pool": {
                "mode": self.pool.mode,
                "max_workers": self.pool.max_workers,
                "pending": self.pool.pending,
                "alive": self.pool.alive,
                "lost_workers": self.pool.lost_workers,
            },
        }

    def stats(self) -> dict:
        """Engine-level counters, JSON-ready (the ``stats`` op)."""
        return {
            "graphs": self.pool.graph_ids,
            "queries": self._qid,
            "max_batch": self.max_batch,
            "telemetry": self._telemetry,
            "cache": self.cache.stats(),
            "pool": {
                "mode": self.pool.mode,
                "max_workers": self.pool.max_workers,
                "pending": self.pool.pending,
            },
        }

    def metrics_snapshot(self) -> dict:
        """The serving registry's full snapshot (the ``metrics`` op).

        Empty when the engine was built under a null context — the
        ``metrics`` protocol op then reports ``{}`` rather than erroring,
        so a client can probe whether telemetry is on.
        """
        return self._registry.snapshot()
