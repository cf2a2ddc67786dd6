"""Per-query trace propagation across the serving pool.

The observability context (:mod:`repro.obs.context`) is process-wide,
and nothing in it ties a metric or event to the query that caused it.
This module supplies the per-query half:

* :class:`TraceContext` — the identity of one traced request:
  ``trace_id`` (shared by every span of the request), ``span_id`` /
  ``parent_id`` (the parentage chain), and the ``sampled`` decision
  made once, at mint time, at the protocol layer.
* :class:`TraceSampler` — the deterministic head-sampling decision:
  ``rate=1.0`` samples everything, ``rate=0.1`` samples every 10th
  request, with an error-diffusion accumulator rather than a RNG so
  tests and replays see the same decisions.
* :class:`WorkerEvents` — the sink a pool thread's kernel emits
  through: a view of the serving sink that stamps every event with
  the query's trace id and ``"worker": true``.
* :func:`emit_span` — one ``span`` event for a closed span, emitted
  only for sampled traces on a live sink.

Pool threads run the kernel under the serving registry (it is
lock-guarded) and a :class:`WorkerEvents` view, installed with
``obs.use(..., scope="thread")``; the engine records the
``worker/task`` and ``worker/task/kernel`` rows and the queue-wait and
compute histograms itself (see :mod:`repro.service.engine`).  One
``repro query`` against a server thus yields one trace whose spans
cover protocol -> engine -> pool -> worker -> kernel.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass, replace
from typing import Optional

from repro.obs.events import EventSink

__all__ = [
    "TraceContext",
    "TraceSampler",
    "WorkerEvents",
    "emit_span",
]


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The identity of one traced request (or one span within it).

    Immutable: :meth:`child` derives the next hop's context, keeping
    ``trace_id`` and the ``sampled`` decision while re-parenting the
    span chain.  ``sampled=False`` contexts still propagate (metrics
    always count) but suppress span and event emission.
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


class WorkerEvents(EventSink):
    """A view of ``sink`` that stamps each event ``{"trace": ..., "worker": true}``.

    A pool thread's kernel emits through it, so its ``run_start`` /
    ``iterations`` / ``run_end`` (or ``batch_run_*``) events land in the
    serving sink as they happen, tied to the query that caused them and
    distinguishable from engine-side events.  Closing the view leaves
    ``sink`` open.
    """

    def __init__(self, sink: EventSink, trace_id: str):
        self._sink = sink
        self._trace_id = trace_id

    def emit(self, event: dict) -> None:
        """Forward a stamped copy of ``event`` to the serving sink."""
        self._sink.emit({**event, "trace": self._trace_id, "worker": True})


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
