"""Catalog sharding: partition graphs across independent engines.

Ghaffari & Trygub's low-energy distributed SSSP (PAPERS.md) splits the
work of one traversal across machines; serving a *catalog* admits a
much simpler partition with the same flavour: each graph lives on
exactly one **shard**, and a shard owns a full, independent serving
stack — its own :class:`~repro.service.engine.QueryEngine`,
:class:`~repro.service.pool.ExecutorPool` (pool threads) and result
cache, in a worker process of its own under
``shard_mode="process"`` (:mod:`repro.net.worker`).  Queries route by
graph name; a batched ``sources`` array fans to the shard that owns
its graph as one group, so it still coalesces into batched kernel
dispatches there.

Each :class:`Shard` runs one dispatcher thread draining a submission
queue.  The dispatcher merges whatever is waiting (up to
:data:`_DRAIN_LIMIT` queries) into a single
:meth:`~repro.service.engine.QueryEngine.run_many` call — cross-
connection coalescing for free, on top of the engine's own
same-corridor batching — and a shard's engine is only ever touched by
its own dispatcher, so the engines need no cross-request locking.

A dispatcher is also a single point of failure for its shard, so the
loop is survivable by construction: every queued group is tracked in a
pending set, and however the loop exits — a clean ``_STOP``, an
``Exception``, or a ``BaseException`` such as an injected
:class:`~repro.resilience.faults.InjectedShardCrash` — a ``finally``
fails every unresolved future with a retryable :class:`ShardDiedError`
and (on abnormal exit) emits a ``shard_died`` event.  Nothing queued
on a shard can hang forever.  The ``alive`` flag feeds the
:class:`~repro.net.supervisor.ShardSupervisor`, which restarts dead
shards via :meth:`ShardManager.rebuild_shard`; while one is down its
graphs stay on it and answer retryable ``unavailable:`` responses, so
every graph is served by its home shard or by nobody.  A slow shard is
not a dead one: work that runs long is bounded by the engine's per-task
timeout (and, in process mode, by the worker REQUEST deadline).

:class:`ShardManager` is the front-end's view: it exposes the same
duck-typed surface as a single ``QueryEngine`` (``run`` / ``run_many``
/ ``stats`` / ``health`` / ``metrics_snapshot`` / ``catalog`` /
``telemetry`` / ``events``) plus the asynchronous ``submit_many`` the
:class:`~repro.service.protocol.ProtocolSession` prefers, so the
protocol layer cannot tell a sharded deployment from a single engine —
responses are identical either way.  When an
:class:`~repro.net.admission.AdmissionController` is attached, every
submission passes through it first and sheds come back as in-band
``overloaded`` error responses without touching a dispatcher.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.net.admission import UNAVAILABLE_PREFIX, AdmissionController
from repro.resilience.faults import InjectedShardCrash
from repro.service.catalog import GraphCatalog
from repro.service.engine import QueryEngine, QueryResponse, SSSPQuery

__all__ = ["Shard", "ShardDiedError", "ShardManager"]

_STOP = object()

# max queries one dispatcher cycle merges into one engine call: a
# bigger drain amortises more under load, a smaller one bounds how
# long a fast query waits behind a merged batch
_DRAIN_LIMIT = 64


class ShardDiedError(RuntimeError):
    """A shard's dispatcher is gone; the work was never attempted.

    Retryable: the supervisor restarts shards, so the same request
    resubmitted shortly is expected to succeed.  The manager answers
    these in-band with ``unavailable:`` errors.
    """


class _WorkItem:
    """One submit_many group bound for a single shard."""

    __slots__ = ("queries", "future", "enqueued_at")

    def __init__(self, queries: List[SSSPQuery], future: Future):
        self.queries = queries
        self.future = future
        self.enqueued_at = time.monotonic()


class Shard:
    """One catalog partition: an engine, a queue, a dispatcher thread.

    One dispatcher cycle merges up to :data:`_DRAIN_LIMIT` queued
    queries into a single ``run_many`` call.

    ``fault_plan`` (a :class:`~repro.resilience.faults.FaultPlan` or
    :class:`~repro.resilience.faults.ScheduledFaultPlan`) sabotages
    dispatch cycles for chaos drills: ``shard_crash`` kills the
    dispatcher thread, ``slow_shard`` adds ``slow_seconds`` of latency
    per cycle.  Other kinds are ignored here (``conn_drop`` belongs to
    the server).
    """

    def __init__(
        self,
        index: int,
        engine: QueryEngine,
        *,
        fault_plan=None,
    ):
        self.index = index
        self.engine = engine
        self.fault_plan = fault_plan
        self.dispatched = 0
        self.cycles = 0
        self.faults_injected = 0
        self.exit_reason: Optional[str] = None
        self._fault_cycle = 0
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pending: Dict[_WorkItem, None] = {}
        self._plock = threading.Lock()
        self._closed = False
        self._retired = False
        self._events = obs.get_events()
        self._thread = threading.Thread(
            target=self._dispatch_loop,
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, queries: List[SSSPQuery]) -> "Future[List[QueryResponse]]":
        """Queue one group; the future resolves to its responses in order.

        Raises :class:`ShardDiedError` when the dispatcher is closed or
        dead.  A submit that *races* the dispatcher's death cannot
        strand its future either: the item registers in the pending set
        before it is queued, so it is covered by the death cleanup — and
        the post-enqueue liveness re-check below resolves the one
        ordering where the cleanup's snapshot ran before registration
        (in that ordering the death is already visible here).
        """
        if self._closed or not self.alive:
            raise ShardDiedError(
                f"shard {self.index} is "
                + ("closed" if self._closed else "dead")
            )
        item = _WorkItem(list(queries), Future())
        with self._plock:
            self._pending[item] = None
        self._queue.put(item)
        if self._closed or not self.alive:
            self._resolve(
                item,
                error=ShardDiedError(
                    f"shard {self.index} dispatcher died during submit"
                ),
            )
        return item.future

    # ------------------------------------------------------------------
    # the dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        clean = False
        try:
            while True:
                item = self._queue.get()
                if item is _STOP:
                    clean = True
                    return
                items = [item]
                total = len(item.queries)
                while total < _DRAIN_LIMIT:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        self._queue.put(_STOP)  # leave the sentinel for later
                        break
                    items.append(nxt)
                    total += len(nxt.queries)
                fault = self._next_fault()
                if fault is not None:
                    self.faults_injected += 1
                    if fault.kind == "shard_crash":
                        raise InjectedShardCrash(
                            f"injected shard crash (cycle {self.cycles})"
                        )
                    if fault.kind == "slow_shard":
                        time.sleep(fault.slow_seconds)
                if self._retired:
                    return  # replaced meanwhile; waiters already failed
                self._run_items(items)
        except BaseException as exc:  # noqa: BLE001 — must survive *any* death
            self.exit_reason = f"{type(exc).__name__}: {exc}"
        finally:
            self._on_loop_exit(clean)

    def _next_fault(self):
        if self.fault_plan is None:
            return None
        fault = self.fault_plan.decide(self._fault_cycle)
        self._fault_cycle += 1
        if fault is not None and fault.kind not in ("shard_crash", "slow_shard"):
            return None  # not a dispatcher-tier kind; someone else's fault
        return fault

    def _on_loop_exit(self, clean: bool) -> None:
        """However the loop ended, nothing pending may hang (satellite fix).

        A clean ``_STOP`` normally leaves nothing behind, but a submit
        racing ``close()`` can still strand an item after the sentinel;
        an abnormal exit (any ``BaseException``) strands everything.
        Both get their futures failed with a retryable error, and an
        abnormal, non-retired exit surfaces a ``shard_died`` event.
        """
        died = not clean and not self._retired
        if died and self.exit_reason is None:
            self.exit_reason = "dispatcher loop exited unexpectedly"
        reason = (
            f"shard {self.index} dispatcher died"
            + (f" ({self.exit_reason})" if self.exit_reason else "")
            if not clean
            else f"shard {self.index} is closed"
        )
        failed = self._fail_pending(ShardDiedError(reason))
        if died and self._events.enabled:
            self._events.emit(
                {
                    "type": "shard_died",
                    "shard": self.index,
                    "reason": self.exit_reason,
                    "pending_failed": failed,
                }
            )

    def _resolve(self, item: _WorkItem, *, result=None, error=None) -> None:
        with self._plock:
            self._pending.pop(item, None)
        future = item.future
        if future.cancelled() or future.done():
            return
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
        except Exception:  # lost a set-race with retire(); already answered
            pass

    def _fail_pending(self, error: BaseException) -> int:
        """Fail every unresolved future; return how many were failed."""
        with self._plock:
            items = list(self._pending)
            self._pending.clear()
        failed = 0
        for item in items:
            future = item.future
            if future.cancelled() or future.done():
                continue
            try:
                future.set_exception(error)
                failed += 1
            except Exception:
                pass
        return failed

    def _run_items(self, items: List[_WorkItem]) -> None:
        self._run_cycle(items, self.engine.run_many)

    def _run_cycle(self, items: List[_WorkItem], run) -> None:
        """Answer the merged groups with one ``run(queries) -> responses``.

        Each group gets its slice of the responses, or the error ``run`` raised.
        """
        self.cycles += 1
        queries = [q for it in items for q in it.queries]
        self.dispatched += len(queries)
        try:
            responses = run(queries)
        except Exception as exc:  # failures fail the waiters, not us
            for it in items:
                self._resolve(it, error=exc)
            return
        offset = 0
        for it in items:
            chunk = responses[offset : offset + len(it.queries)]
            offset += len(it.queries)
            self._resolve(it, result=chunk)

    # ------------------------------------------------------------------
    # liveness introspection (what the supervisor health-checks)
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Dispatcher thread running and never abnormally exited."""
        return self._thread.is_alive() and self.exit_reason is None

    def heartbeat_expired(self, now: Optional[float] = None) -> bool:
        """Never: a dispatcher thread's liveness is :attr:`alive` alone.

        :class:`~repro.net.worker.ProcessShard` overrides this with its
        worker's idle heartbeat.
        """
        return False

    def pending_count(self) -> int:
        with self._plock:
            return len(self._pending)

    def oldest_pending_age(self, now: Optional[float] = None) -> float:
        """Age of the oldest unresolved group (0 when nothing pending)."""
        now = time.monotonic() if now is None else now
        with self._plock:
            if not self._pending:
                return 0.0
            oldest = min(item.enqueued_at for item in self._pending)
        return max(0.0, now - oldest)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def retire(self, reason: str) -> None:
        """Take a dead shard out of service (supervisor path).

        Fails every pending future with a retryable error, queues a
        stop for a dispatcher that outlived its worker process so it
        exits on its own, and closes the engine with its queued tasks
        cancelled.  Waits on nothing: not the thread (the daemon thread
        exits when it next wakes), not a pool task still running (one
        abandoned by the timeout ends on its own), not a wedged worker
        (it is killed).
        """
        if self._retired:
            return
        self._retired = True
        self._closed = True
        if self.exit_reason is None:
            self.exit_reason = reason
        self._fail_pending(
            ShardDiedError(f"shard {self.index} retired: {reason}")
        )
        self._queue.put(_STOP)
        try:
            self.engine.close(cancel_pending=True)
        except Exception:
            pass  # a broken engine must not block the replacement

    def close(
        self, *, cancel_pending: bool = False, join_timeout: Optional[float] = 5.0
    ) -> None:
        """Drain the queue, stop the dispatcher, close the engine."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_STOP)
        self._thread.join(timeout=join_timeout)
        self.engine.close(cancel_pending=cancel_pending)

    def dispatcher_snapshot(self) -> dict:
        """JSON-ready liveness facts (the ``health`` op's per-shard row)."""
        return {
            "mode": "thread",
            "alive": self.alive,
            "pending": self.pending_count(),
            "oldest_pending_seconds": round(self.oldest_pending_age(), 3),
            "exit_reason": self.exit_reason,
            "faults_injected": self.faults_injected,
        }

    def stats(self) -> dict:
        return {
            "index": self.index,
            "graphs": self.engine.catalog.names(),
            "dispatched": self.dispatched,
            "cycles": self.cycles,
            "dispatcher": self.dispatcher_snapshot(),
            **self.engine.stats(),
        }


class ShardManager:
    """Route queries across catalog shards; look like one engine.

    Parameters
    ----------
    catalog:
        The full catalog.  Graphs are assigned round-robin over the
        sorted names, so the partition is deterministic and every
        graph is loaded by exactly one shard.
    shards:
        Partition count (>= 1).  Each shard builds its own
        :class:`~repro.service.engine.QueryEngine` over its subset.
    admission:
        Optional :class:`~repro.net.admission.AdmissionController`;
        when present, every ``submit_many`` group passes admission
        before it can reach a dispatcher.
    net_fault_plan:
        Optional dispatcher-tier fault plan (chaos drills).  Applied
        to the shard named by ``net_fault_shard`` (all shards when
        ``None``) — and only to original shard incarnations: a shard
        the supervisor rebuilds comes back fault-free, so an injected
        crash cannot become a crash loop.
    engine_kwargs:
        Forwarded to every shard engine (``max_workers``,
        ``cache_size``, ``max_batch``, ``timeout``, ``fault_plan``...).
        Each engine additionally gets ``labels={"shard": "<i>"}`` so
        the shared registry keeps per-shard latency series apart.

    Degraded mode: a shard whose state is not ``"up"`` (the supervisor
    marks ``down`` / ``failed``) answers its groups immediately with
    in-band ``unavailable: ...`` errors.  Routing never changes: every
    graph stays on its home shard for the manager's lifetime.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        *,
        shards: int = 1,
        admission: Optional[AdmissionController] = None,
        net_fault_plan=None,
        net_fault_shard: Optional[int] = None,
        shard_mode: str = "thread",
        heartbeat_ms: float = 1000.0,
        **engine_kwargs,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shard_mode not in ("thread", "process"):
            raise ValueError(
                f"shard_mode must be 'thread' or 'process', got {shard_mode!r}"
            )
        if heartbeat_ms <= 0:
            raise ValueError("heartbeat_ms must be positive")
        names = catalog.names()
        if not names:
            raise ValueError("catalog is empty; nothing to shard")
        shards = min(shards, len(names))  # an engine with no graphs is useless
        self.catalog = catalog
        self.admission = admission
        self.shard_mode = shard_mode
        self.heartbeat_ms = float(heartbeat_ms)
        self._engine_kwargs = dict(engine_kwargs)
        self._net_fault_plan = net_fault_plan
        self._net_fault_shard = net_fault_shard
        self._names = list(names)
        # the partition, fixed for the manager's lifetime
        self._home: Dict[str, int] = {
            name: i % shards for i, name in enumerate(names)
        }
        self._state_lock = threading.Lock()
        self._states: Dict[int, str] = {i: "up" for i in range(shards)}
        self._supervisor = None
        self.shards: List[Shard] = []
        try:
            for index in range(shards):
                self.shards.append(self._build_shard(index, with_faults=True))
                if admission is not None:
                    admission.register_shard(index)
        except BaseException:
            for shard in self.shards:  # no worker or dispatcher outlives us
                shard.close(cancel_pending=True)
            raise
        self._events = obs.get_events()
        self._registry = obs.get_registry()
        self._closed = False

    def _build_shard(self, index: int, *, with_faults: bool) -> Shard:
        owned = [n for n in self._names if self._home[n] == index]
        plan = None
        if with_faults and self._net_fault_plan is not None:
            if self._net_fault_shard is None or self._net_fault_shard == index:
                plan = self._net_fault_plan
        if self.shard_mode == "process":
            from repro.net.worker import ProcessShard

            sub = self.catalog.subset(owned)
            shard = ProcessShard(
                index,
                sub,
                fault_plan=plan,
                heartbeat_ms=self.heartbeat_ms,
                engine_kwargs=self._engine_kwargs,
            )
            self.catalog.adopt(sub)  # reuse graphs the spawn materialised
            return shard
        engine = QueryEngine(
            self.catalog.subset(owned),
            labels={"shard": str(index)},
            **self._engine_kwargs,
        )
        self.catalog.adopt(engine.catalog)  # reuse shard-loaded graphs
        return Shard(index, engine, fault_plan=plan)

    # ------------------------------------------------------------------
    # engine-facade surface (what ProtocolSession needs)
    # ------------------------------------------------------------------
    @property
    def telemetry(self) -> bool:
        return self.shards[0].engine.telemetry

    @property
    def events(self):
        return self._events

    @property
    def graph_ids(self) -> List[str]:
        return sorted(self._home)

    def shard_of(self, graph_id: str) -> Optional[int]:
        """The owning shard index, or None for an unknown graph."""
        return self._home.get(graph_id)

    # ------------------------------------------------------------------
    # supervision surface (ShardSupervisor calls these)
    # ------------------------------------------------------------------
    def attach_supervisor(self, supervisor) -> None:
        self._supervisor = supervisor

    @property
    def supervisor(self):
        return self._supervisor

    def shard_state(self, index: int) -> str:
        with self._state_lock:
            return self._states.get(index, "up")

    def set_shard_state(self, index: int, state: str) -> None:
        with self._state_lock:
            self._states[index] = state

    def rebuild_shard(self, index: int) -> Shard:
        """Replace a dead shard with a fresh engine + dispatcher.

        The old incarnation is retired (pending futures failed, engine
        closed); the replacement serves the same ``_home`` partition.
        """
        old = self.shards[index]
        old.retire("replaced by supervisor")
        shard = self._build_shard(index, with_faults=False)
        self.shards[index] = shard
        if self.shard_mode == "process":
            self._registry.counter(
                "net.worker.restarts", {"shard": str(index)}
            ).inc()
        if self.admission is not None:
            self.admission.register_shard(index)
        return shard

    def submit_many(
        self, queries: List[SSSPQuery]
    ) -> "Future[List[QueryResponse]]":
        """Route a batch; resolves to responses in request order.

        Unknown graphs, shed groups and groups for down shards answer
        immediately (the same error strings a single engine produces,
        plus ``overloaded`` sheds and ``unavailable`` fast-fails);
        everything else lands on its owning shard's queue.
        """
        out: Future = Future()
        results: List[Optional[QueryResponse]] = [None] * len(queries)
        groups: Dict[int, Tuple[List[int], List[SSSPQuery]]] = {}
        for i, query in enumerate(queries):
            shard_index = self._home.get(query.graph_id)
            if shard_index is None:
                # match QueryEngine._validate's message so sharded and
                # single-engine deployments answer identically
                results[i] = QueryResponse(
                    query=query,
                    ok=False,
                    error=(
                        f"unknown graph {query.graph_id!r} "
                        f"(have {self.graph_ids or 'none'})"
                    ),
                )
                continue
            indices, group = groups.setdefault(shard_index, ([], []))
            indices.append(i)
            group.append(query)

        pending: List[Tuple[int, List[int], Future]] = []
        for shard_index, (indices, group) in groups.items():
            state = self.shard_state(shard_index)
            if state != "up":
                reason = (
                    f"{UNAVAILABLE_PREFIX}: shard {shard_index} {state}; "
                    "retry shortly"
                )
                if self.admission is not None:
                    self.admission.record_unavailable(
                        shard_index, len(group), reason
                    )
                for i in indices:
                    results[i] = QueryResponse(
                        query=queries[i], ok=False, error=reason
                    )
                continue
            if self.admission is not None:
                shed_reason = self.admission.try_acquire(shard_index, len(group))
                if shed_reason is not None:
                    for i in indices:
                        results[i] = QueryResponse(
                            query=queries[i], ok=False, error=shed_reason
                        )
                    continue
            try:
                future = self.shards[shard_index].submit(group)
            except RuntimeError as exc:  # died between state check and submit
                reason = f"{UNAVAILABLE_PREFIX}: {exc}; retry shortly"
                if self.admission is not None:
                    self.admission.release(shard_index, len(group))
                    self.admission.record_unavailable(
                        shard_index, len(group), reason
                    )
                for i in indices:
                    results[i] = QueryResponse(
                        query=queries[i], ok=False, error=reason
                    )
                continue
            pending.append((shard_index, indices, future))

        if not pending:
            out.set_result(results)
            return out

        lock = threading.Lock()
        remaining = {"n": len(pending)}

        def _make_callback(shard_index: int, indices: List[int]):
            def _done(future: Future) -> None:
                if self.admission is not None:
                    self.admission.release(shard_index, len(indices))
                try:
                    responses = future.result()
                except ShardDiedError as exc:
                    # the dispatcher died under this group: retryable,
                    # in-band, and the supervisor is already restarting
                    responses = [
                        QueryResponse(
                            query=queries[i],
                            ok=False,
                            error=f"{UNAVAILABLE_PREFIX}: {exc}; retry shortly",
                        )
                        for i in indices
                    ]
                except Exception as exc:
                    responses = [
                        QueryResponse(
                            query=queries[i],
                            ok=False,
                            error=(
                                f"internal error: {type(exc).__name__}: {exc}"
                            ),
                        )
                        for i in indices
                    ]
                for i, response in zip(indices, responses):
                    results[i] = response
                with lock:
                    remaining["n"] -= 1
                    finished = remaining["n"] == 0
                if finished:
                    out.set_result(results)

            return _done

        for shard_index, indices, future in pending:
            future.add_done_callback(_make_callback(shard_index, indices))
        return out

    def run_many(self, queries: List[SSSPQuery]) -> List[QueryResponse]:
        """The blocking facade (stdin transports, tests)."""
        return self.submit_many(queries).result()

    def run(self, query: SSSPQuery) -> QueryResponse:
        return self.run_many([query])[0]

    # ------------------------------------------------------------------
    # introspection (the stats/health/metrics protocol ops)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        shard_stats = [shard.stats() for shard in self.shards]
        return {
            "graphs": self.graph_ids,
            "shard_mode": self.shard_mode,
            "queries": sum(s["queries"] for s in shard_stats),
            "max_batch": shard_stats[0]["max_batch"],
            "telemetry": self.telemetry,
            "cache": {
                key: sum(s["cache"][key] for s in shard_stats)
                for key in ("hits", "misses", "evictions", "size", "capacity")
            },
            "pool": {
                "mode": shard_stats[0]["pool"]["mode"],
                "max_workers": sum(
                    s["pool"]["max_workers"] for s in shard_stats
                ),
                "pending": sum(s["pool"]["pending"] for s in shard_stats),
            },
            "shards": shard_stats,
            "shard_states": {
                str(i): self.shard_state(i) for i in range(len(self.shards))
            },
            "assignment": dict(sorted(self._home.items())),
            "admission": (
                self.admission.snapshot()
                if self.admission is not None
                else None
            ),
        }

    def health(self) -> dict:
        """Aggregated health, per-shard liveness, supervisor state.

        ``serving`` is the front-end's 503 criterion: True while *any*
        shard is up and answering — one dead shard degrades service,
        it does not take the deployment off the balancer.
        """
        shard_health = [shard.engine.health() for shard in self.shards]
        shard_rows = []
        serving = 0
        for shard, h in zip(self.shards, shard_health):
            state = self.shard_state(shard.index)
            up = state == "up" and shard.alive and h["pool"]["alive"]
            serving += bool(up)
            shard_rows.append(
                {
                    "index": shard.index,
                    "state": state,
                    "serving": up,
                    "dispatcher": shard.dispatcher_snapshot(),
                    **h,
                }
            )
        return {
            "serving": serving > 0,
            "shards_up": serving,
            "shard_mode": self.shard_mode,
            "pool": {
                "mode": shard_health[0]["pool"]["mode"],
                "max_workers": sum(
                    h["pool"]["max_workers"] for h in shard_health
                ),
                "pending": sum(h["pool"]["pending"] for h in shard_health),
                "alive": all(h["pool"]["alive"] for h in shard_health),
                "lost_workers": sum(
                    h["pool"]["lost_workers"] for h in shard_health
                ),
            },
            "shards": shard_rows,
            "supervisor": (
                self._supervisor.report() if self._supervisor is not None else None
            ),
            "admission": (
                self.admission.snapshot()
                if self.admission is not None
                else None
            ),
        }

    def metrics_snapshot(self) -> dict:
        return self._registry.snapshot()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, cancel_pending: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.stop()
        for shard in self.shards:
            shard.close(cancel_pending=cancel_pending)

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
