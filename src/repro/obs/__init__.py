"""Runtime observability: metrics, spans, structured events.

Three channels, all off (and near-zero-cost) by default:

* **metrics** — named counters/gauges/histograms/timers published by
  the SSSP hot paths, the controller, the far queue and the platform
  simulator (:mod:`repro.obs.registry`);
* **spans** — nestable named wall-clock regions with a flat profile
  export (:mod:`repro.obs.spans`);
* **events** — a JSONL log; an SSSP run emits ``run_start`` when it
  starts and its per-iteration columns (one ``iterations`` event) and
  ``run_end`` when it ends (:mod:`repro.obs.events`).

On top of the three channels, :mod:`repro.obs.telemetry` threads a
per-query :class:`~repro.obs.telemetry.TraceContext` through the
serving stack (protocol -> engine -> pool -> worker), with pool
threads recording kernel telemetry straight into the serving context,
and :mod:`repro.obs.exposition` renders any snapshot as Prometheus text.

Activate any subset with :func:`repro.obs.use`; inspect a recorded run
with ``python -m repro trace``.  Metric names and the event schema are
documented in ``docs/trace-and-metrics.md``.
"""

from repro.obs.context import (
    NULL_CONTEXT,
    ObsContext,
    current,
    get_events,
    get_registry,
    get_spans,
    use,
)
from repro.obs.exposition import format_prometheus
from repro.obs.telemetry import TraceContext, TraceSampler
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventSink,
    JsonlSink,
    ListSink,
    NullEventSink,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
)
from repro.obs.spans import NullSpanRecorder, SpanRecorder, SpanStat

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "ListSink",
    "MetricsRegistry",
    "NullEventSink",
    "NullRegistry",
    "NullSpanRecorder",
    "NULL_CONTEXT",
    "ObsContext",
    "SpanRecorder",
    "SpanStat",
    "Timer",
    "TraceContext",
    "TraceSampler",
    "current",
    "format_prometheus",
    "get_events",
    "get_registry",
    "get_spans",
    "use",
]
