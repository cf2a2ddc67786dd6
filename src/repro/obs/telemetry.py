"""Per-query trace propagation across the serving pool.

The observability context (:mod:`repro.obs.context`) is process-wide:
pool workers would race on one shared registry, and nothing tied a
metric or event to the query that caused it.  This module closes both
holes:

* :class:`TraceContext` — the identity of one traced request:
  ``trace_id`` (shared by every span of the request), ``span_id`` /
  ``parent_id`` (the parentage chain), and the ``sampled`` decision
  made once, at mint time, at the protocol layer.  It serializes to a
  plain dict (:meth:`~TraceContext.to_wire`) so it can ride a task
  envelope into a pool worker or a frame into a shard worker process.
* :class:`TraceSampler` — the deterministic head-sampling decision:
  ``rate=1.0`` samples everything, ``rate=0.1`` samples every 10th
  request, with an error-diffusion accumulator rather than a RNG so
  tests and replays see the same decisions.
* :func:`capture_task` — the **worker-side** half.  Runs a task thunk
  under a private, thread-scoped observability context (fresh
  registry + list sink + span recorder), so the kernel's metrics,
  events and spans land in a buffer instead of a shared registry
  race.  Returns
  ``(result, payload)`` where the payload carries the metric deltas,
  the span profile, the buffered events, and the worker's queue-wait
  and compute timings.
* :func:`merge_payload` — the **engine-side** half.  Folds a shipped
  payload into the serving context: counters add, histograms merge
  bucket-by-bucket, worker spans re-root under the query's span, and
  buffered events replay into the serving sink stamped with the trace
  id and ``"worker": true``.

The net effect: one ``repro query`` against a server yields one trace
whose spans cover protocol -> engine -> pool -> worker -> kernel, and
the serving registry's ``service.query.*`` histograms include
worker-side queue-wait and compute time.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

from repro.obs import context as obs_context
from repro.obs.events import EventSink, ListSink
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder

__all__ = [
    "TraceContext",
    "TraceSampler",
    "emit_span",
    "capture_task",
    "merge_payload",
    "TELEMETRY_WIRE_VERSION",
]

# version stamp on worker payloads, so a future engine can refuse (or
# adapt to) an envelope minted by older worker code after an upgrade
TELEMETRY_WIRE_VERSION = 1


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The identity of one traced request (or one span within it).

    Immutable: :meth:`child` derives the next hop's context, keeping
    ``trace_id`` and the ``sampled`` decision while re-parenting the
    span chain.  ``sampled=False`` contexts still propagate (metric
    deltas always ship) but suppress span/event emission.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    sampled: bool = True

    @classmethod
    def mint(cls, *, sampled: bool = True) -> "TraceContext":
        """A fresh root context — one per request, at the protocol layer."""
        return cls(trace_id=_new_id(), span_id=_new_id(), sampled=sampled)

    def child(self) -> "TraceContext":
        """The context for the next layer down: new span, same trace."""
        return replace(self, span_id=_new_id(), parent_id=self.span_id)

    def to_wire(self) -> dict:
        """A plain picklable/JSON-able dict (the task-envelope form)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_wire(cls, wire: Optional[Mapping]) -> Optional["TraceContext"]:
        """Rebuild from :meth:`to_wire` output (``None`` passes through)."""
        if wire is None:
            return None
        return cls(
            trace_id=str(wire["trace_id"]),
            span_id=str(wire["span_id"]),
            parent_id=wire.get("parent_id"),
            sampled=bool(wire.get("sampled", True)),
        )


class TraceSampler:
    """Deterministic head sampling at a configured rate.

    An error-diffusion accumulator (add ``rate``, fire when it crosses
    1) instead of a coin flip: ``rate=0.25`` samples exactly every 4th
    request, so a replayed request stream re-samples identically and a
    test can assert on the pattern.  Thread-safe.
    """

    def __init__(self, rate: float = 1.0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sample rate must be in [0, 1]")
        self.rate = float(rate)
        self._acc = 0.0
        self._lock = threading.Lock()

    def sample(self) -> bool:
        """The decision for the next request."""
        with self._lock:
            self._acc += self.rate
            if self._acc >= 1.0:
                self._acc -= 1.0
                return True
            return False


def emit_span(
    events: EventSink,
    ctx: Optional[TraceContext],
    name: str,
    seconds: float,
    **fields,
) -> None:
    """Emit one ``span`` event for a closed span, if it should be seen.

    No-op unless the sink is enabled *and* the trace is sampled — the
    guard lives here so call sites stay one line.
    """
    if ctx is None or not ctx.sampled or not events.enabled:
        return
    events.emit(
        {
            "type": "span",
            "trace": ctx.trace_id,
            "span": ctx.span_id,
            "parent": ctx.parent_id,
            "name": name,
            "seconds": round(seconds, 6),
            **fields,
        }
    )


def capture_task(
    envelope: Mapping,
    task: Callable[[], object],
) -> tuple:
    """Run ``task`` under a buffered child context; return ``(result, payload)``.

    The worker-side half of trace propagation.  ``envelope`` is the
    dict the engine attached to the pool task: ``{"ctx": <wire trace
    context>, "enqueue_ts": <time.time() at submission>}``.  The task
    runs inside ``obs.use(..., scope="thread")`` with a fresh registry,
    list sink and span recorder, under a root span named ``"task"`` —
    so whatever the kernel publishes is captured per-task without
    touching any shared state (safe in thread *and* process workers).

    The returned payload is a plain dict (picklable) carrying:

    * ``v`` — :data:`TELEMETRY_WIRE_VERSION`;
    * ``ctx`` — the worker's trace context (already a child of the
      pool span, minted engine-side);
    * ``queue_wait_seconds`` — worker start minus ``enqueue_ts``
      (both ``time.time()``, comparable across processes on one host);
    * ``compute_seconds`` — wall time of the task body;
    * ``metrics`` — the buffered registry snapshot (a pure delta,
      since the registry started empty);
    * ``spans`` — the buffered span profile (``task/...`` paths);
    * ``events`` — the buffered events, or ``[]`` when unsampled.
    """
    ctx = TraceContext.from_wire(envelope.get("ctx"))
    enqueue_ts = envelope.get("enqueue_ts")
    started = time.time()
    registry = MetricsRegistry()
    sink = ListSink()
    spans = SpanRecorder()
    with obs_context.use(
        registry=registry, events=sink, spans=spans, scope="thread"
    ):
        with spans.span("task"):
            result = task()
    sampled = ctx.sampled if ctx is not None else False
    payload = {
        "v": TELEMETRY_WIRE_VERSION,
        "ctx": ctx.to_wire() if ctx is not None else None,
        "queue_wait_seconds": (
            max(0.0, started - enqueue_ts) if enqueue_ts is not None else None
        ),
        "compute_seconds": spans.total("task"),
        "metrics": registry.snapshot(),
        "spans": [stat.as_dict() for stat in spans.profile()],
        "events": list(sink.events) if sampled else [],
    }
    return result, payload


def merge_payload(
    payload: Mapping,
    *,
    registry,
    events: EventSink,
    spans,
) -> Optional[TraceContext]:
    """Fold a worker payload into the serving context (engine-side half).

    Metric deltas merge unconditionally (they are real work that
    happened); spans and buffered events replay only for sampled
    traces.  Replayed events gain ``{"trace": ..., "worker": true}``
    so a reader can tell a worker-side ``batch_run_start`` from an
    engine-side one.  Returns the worker's :class:`TraceContext` (for
    the caller's own span bookkeeping), or ``None`` if the payload
    carried no context.
    """
    ctx = TraceContext.from_wire(payload.get("ctx"))
    metrics = payload.get("metrics")
    if metrics:
        registry.merge_snapshot(metrics)
    span_rows = payload.get("spans") or []
    if span_rows:
        spans.merge(span_rows, prefix="worker")
    if ctx is not None and ctx.sampled and events.enabled:
        for row in span_rows:
            emit_span(
                events,
                ctx if row["path"] == "task" else ctx.child(),
                f"worker/{row['path']}",
                float(row["seconds"]),
                count=int(row["count"]),
            )
        for event in payload.get("events") or []:
            events.emit({**event, "trace": ctx.trace_id, "worker": True})
    return ctx
