"""The active observability context.

One :class:`ObsContext` bundles the three channels — metrics registry,
event sink, span recorder — and defaults to the all-null context, so
instrumented code is free to call :func:`get_registry` /
:func:`get_events` / :func:`get_spans` unconditionally.

Enable observability for a region with :func:`use`::

    from repro import obs

    reg = obs.MetricsRegistry()
    with obs.use(registry=reg, events=obs.JsonlSink("run.events.jsonl")):
        nearfar_sssp(graph, source)
    print(reg.snapshot())

Instrumented call sites grab their handles from the context active
*when the run starts* (algorithm entry / object construction), so a
context swap mid-run does not retarget a running algorithm — by
design: a run observes one context.

Two scopes:

* ``scope="process"`` (the default) installs the context globally —
  one place to look for a process observing itself, exactly as before.
* ``scope="thread"`` installs a thread-local override that shadows the
  process context **for the calling thread only**.  This is how a
  serving engine's pool thread sees the engine's registry and a view of
  its sink stamped with the current query's trace (or the null sink
  for an unsampled one) without retargeting its siblings, each of
  which runs a different query (see :mod:`repro.service.engine`).

:func:`current` resolves thread-local first, then the process global.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs.events import NULL_EVENTS, EventSink
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.spans import NULL_SPANS, NullSpanRecorder, SpanRecorder

__all__ = [
    "ObsContext",
    "NULL_CONTEXT",
    "current",
    "get_registry",
    "get_events",
    "get_spans",
    "use",
]


@dataclass(frozen=True)
class ObsContext:
    """The three observability channels, bundled."""

    registry: "MetricsRegistry | NullRegistry" = NULL_REGISTRY
    events: EventSink = NULL_EVENTS
    spans: "SpanRecorder | NullSpanRecorder" = NULL_SPANS

    @property
    def enabled(self) -> bool:
        """True if any of the three channels is live."""
        return (
            self.registry.enabled or self.events.enabled or self.spans.enabled
        )


NULL_CONTEXT = ObsContext()

_active: ObsContext = NULL_CONTEXT
_thread_local = threading.local()


def current() -> ObsContext:
    """The active context for this thread.

    A thread-scoped override (``use(..., scope="thread")``) wins;
    otherwise the process-global context; otherwise the null context.
    """
    override = getattr(_thread_local, "ctx", None)
    return override if override is not None else _active


def get_registry():
    """The active context's metrics registry."""
    return current().registry


def get_events() -> EventSink:
    """The active context's event sink."""
    return current().events


def get_spans():
    """The active context's span recorder."""
    return current().spans


@contextmanager
def use(
    registry: Optional[MetricsRegistry] = None,
    events: Optional[EventSink] = None,
    spans: Optional[SpanRecorder] = None,
    *,
    scope: str = "process",
) -> Iterator[ObsContext]:
    """Install an observability context for the enclosed region.

    Omitted channels stay null.  The previous context is restored on
    exit (contexts nest but do not merge).  ``scope="process"`` (the
    default) swaps the process-global context; ``scope="thread"``
    shadows it for the calling thread only — how a pool thread records
    one query's kernel telemetry under that query's trace.
    """
    if scope not in ("process", "thread"):
        raise ValueError(f"scope must be 'process' or 'thread', got {scope!r}")
    ctx = ObsContext(
        registry=registry if registry is not None else NULL_REGISTRY,
        events=events if events is not None else NULL_EVENTS,
        spans=spans if spans is not None else NULL_SPANS,
    )
    if scope == "thread":
        previous = getattr(_thread_local, "ctx", None)
        _thread_local.ctx = ctx
        try:
            yield ctx
        finally:
            _thread_local.ctx = previous
        return
    global _active
    previous_global = _active
    _active = ctx
    try:
        yield ctx
    finally:
        _active = previous_global
