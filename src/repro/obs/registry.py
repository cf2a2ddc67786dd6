"""Metrics registry: counters, gauges, histograms and timers.

Every hot path in the package publishes named metrics through the
active registry (see :mod:`repro.obs.context`).  Two implementations
share the interface:

* :class:`MetricsRegistry` — the live registry.  Metric handles are
  created on first use and accumulate values; :meth:`~MetricsRegistry.snapshot`
  exports everything as a plain JSON-ready dict.
* :class:`NullRegistry` — the **default**.  Every ``counter()`` /
  ``gauge()`` / ``histogram()`` / ``timer()`` call returns a shared
  no-op singleton whose mutators are empty methods, so instrumented
  code pays only an attribute lookup and a no-op call when
  observability is off.  The near+far solvers call no handle per
  iteration at all: they book a run's metrics once, when it ends
  (``repro.instrument.trace.publish_run``).

Metric names are dotted paths (``"sssp.relaxations"``,
``"gpusim.energy_j.advance"``); the conventions in use are documented
in ``docs/trace-and-metrics.md``.  Metrics may carry **labels**
(``registry.timer("service.query.latency", labels={"graph": "cal"})``);
each distinct label set is its own time series, keyed in the snapshot
as ``name{k="v",...}`` — the same key shape the Prometheus exposition
in :mod:`repro.obs.exposition` renders.

The live registry is **thread-safe**: handle creation takes a registry
lock and every mutator (``inc``/``set``/``observe``/``observe_many``)
takes a per-metric lock, so a query engine whose pool threads record kernel metrics into
it concurrently (see :mod:`repro.obs.telemetry`) never loses
increments.

:class:`Histogram` keeps fixed log-spaced buckets rather than raw
samples, so a long-running server's latency series stays O(1) memory
while still answering :meth:`~Histogram.quantile` (p50/p95/p99 with
log-linear interpolation, clamped to the observed min/max).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "escape_label_value",
    "qualify_name",
    "parse_name",
]

Number = Union[int, float]

_LABELLED_RE = re.compile(r'^(?P<base>[^{]+)\{(?P<labels>.*)\}$')
_LABEL_PAIR_RE = re.compile(r'(?P<key>[^=,]+)="(?P<value>(?:[^"\\]|\\.)*)"')
_ESCAPE_RE = re.compile(r'\\(.)')


def escape_label_value(value: str) -> str:
    """``value`` with ``\\``, ``"`` and newline escaped, as Prometheus quotes it."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    return _ESCAPE_RE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


def qualify_name(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """The snapshot key for ``name`` + ``labels``: ``name{k="v",...}``.

    Label order is canonical (sorted by key) so the same label set
    always maps to the same series.  Values are escaped as in the
    Prometheus text format, so every value round-trips through
    :func:`parse_name`.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{escape_label_value(str(labels[k]))}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_name(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`qualify_name`: ``name{k="v"}`` -> ``(name, {k: v})``."""
    match = _LABELLED_RE.match(key)
    if match is None:
        return key, {}
    labels = {
        m.group("key"): _unescape(m.group("value"))
        for m in _LABEL_PAIR_RE.finditer(match.group("labels"))
    }
    return match.group("base"), labels


class Counter:
    """A monotonically increasing value (float increments allowed)."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict:
        """JSON-ready export: ``{"type": "counter", "value": ...}``."""
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self.value = float(value)

    def as_dict(self) -> dict:
        """JSON-ready export: ``{"type": "gauge", "value": ...}``."""
        return {"type": self.kind, "value": self.value}


# Log-spaced bucket upper bounds shared by every histogram: four per
# decade from 1e-6 to 1e8 (microseconds of latency up to ~1e8-edge
# relaxation counts), plus an implicit +inf overflow bucket.  Fixed
# and shared so every histogram's buckets align by index (the
# Prometheus exposition relies on it).
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (e / 4.0) for e in range(-24, 33)
)
_OVERFLOW = len(BUCKET_BOUNDS)  # index of the +inf bucket
_BOUNDS = np.asarray(BUCKET_BOUNDS)


class Histogram:
    """A sample distribution over fixed log-spaced buckets.

    Keeps exact ``count``/``sum``/``min``/``max`` scalars plus one
    counter per bucket of :data:`BUCKET_BOUNDS` (values above the last
    bound land in a +inf overflow bucket; values at or below the first
    bound land in the first).  Memory is O(buckets), not O(samples),
    so a serving-path latency histogram can run forever.
    """

    __slots__ = (
        "name", "labels", "_count", "_sum", "_min", "_max", "_buckets",
        "_lock",
    )

    kind = "histogram"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self._buckets: List[int] = [0] * (_OVERFLOW + 1)
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        """Record one sample."""
        value = float(value)
        index = bisect_left(BUCKET_BOUNDS, value) if value > 0 else 0
        with self._lock:
            if self._count == 0:
                self._min = self._max = value
            else:
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            self._count += 1
            self._sum += value
            self._buckets[index] += 1

    def observe_many(self, values: Sequence[Number]) -> None:
        """Record every sample of ``values`` under one lock acquisition.

        The same state as one :meth:`observe` per sample, except that
        ``sum`` adds the samples' total at once: exact for integer counts.
        """
        samples = np.asarray(values, dtype=np.float64)
        if not samples.size:
            return
        index = np.searchsorted(_BOUNDS, samples) * (samples > 0)
        counts = np.bincount(index, minlength=_OVERFLOW + 1)
        low, high = float(samples.min()), float(samples.max())
        with self._lock:
            if self._count:
                low, high = min(self._min, low), max(self._max, high)
            self._min, self._max = low, high
            self._count += samples.size
            self._sum += float(samples.sum())
            for i in counts.nonzero()[0].tolist():
                self._buckets[i] += int(counts[i])

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        """Smallest sample (exact, 0.0 when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample (exact, 0.0 when empty)."""
        return self._max

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the covering bucket, clamped to
        the exact observed ``[min, max]`` — so a single-sample
        histogram answers every quantile with that sample, and the
        +inf overflow bucket tops out at the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = max(1, int(round(q * self._count + 0.5)))
            rank = min(rank, self._count)
            cumulative = 0
            for index, bucket_count in enumerate(self._buckets):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= rank:
                    lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                    upper = (
                        BUCKET_BOUNDS[index]
                        if index < _OVERFLOW
                        else self._max
                    )
                    frac = (rank - cumulative) / bucket_count
                    estimate = lower + frac * (upper - lower)
                    return min(max(estimate, self._min), self._max)
                cumulative += bucket_count
            return self._max  # unreachable unless counters drift

    def percentiles(self) -> Dict[str, float]:
        """The conventional trio: ``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> List[Tuple[int, int]]:
        """Sparse non-empty buckets as ``(index, count)`` pairs.

        Index ``len(BUCKET_BOUNDS)`` is the +inf overflow bucket.
        """
        return [(i, c) for i, c in enumerate(self._buckets) if c]

    def as_dict(self) -> dict:
        """JSON-ready export with summary stats, quantiles and buckets."""
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            **self.percentiles(),
            "buckets": self.bucket_counts(),
        }


class _TimerHandle:
    """Context manager measuring one timed block into a :class:`Timer`."""

    __slots__ = ("_timer", "elapsed", "_t0")

    def __init__(self, timer: "Timer"):
        self._timer = timer
        self.elapsed = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "_TimerHandle":
        import time

        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        import time

        self.elapsed = time.perf_counter() - self._t0
        self._timer.observe(self.elapsed)


class Timer(Histogram):
    """A histogram of durations (seconds) with a ``with timer.time():`` API."""

    __slots__ = ()

    kind = "timer"

    def time(self) -> _TimerHandle:
        """A context manager that observes its elapsed seconds on exit."""
        return _TimerHandle(self)


# ----------------------------------------------------------------------
# no-op singletons: the disabled fast path
# ----------------------------------------------------------------------
class _NullContext:
    __slots__ = ("elapsed",)

    def __init__(self):
        self.elapsed = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_CM = _NullContext()


class _NullCounter:
    __slots__ = ()
    name = "null"
    labels: Dict[str, str] = {}
    value = 0

    def inc(self, amount: Number = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    labels: Dict[str, str] = {}
    value = 0.0

    def set(self, value: Number) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    labels: Dict[str, str] = {}
    count = 0
    total = 0.0
    mean = 0.0
    minimum = 0.0
    maximum = 0.0

    def observe(self, value: Number) -> None:
        pass

    def observe_many(self, values: Sequence[Number]) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def bucket_counts(self) -> List[Tuple[int, int]]:
        return []


class _NullTimer(_NullHistogram):
    __slots__ = ()

    def time(self) -> _NullContext:
        return _NULL_CM


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Live named-metric store.

    Handles are created on first use and cached; asking for an existing
    name with a different metric type is an error (names are global).
    Creation and every handle mutator are lock-guarded, so the registry
    can back a multi-threaded serving path without losing updates.
    """

    enabled = True

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, labels: Optional[Mapping[str, str]] = None):
        key = qualify_name(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels)
                self._metrics[key] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {key!r} already registered as {metric.kind}"
                )
            return metric

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """The counter registered under ``name`` (+ optional labels)."""
        return self._get(name, Counter, labels)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """The gauge registered under ``name`` (+ optional labels)."""
        return self._get(name, Gauge, labels)

    def histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Histogram:
        """The histogram registered under ``name`` (+ optional labels)."""
        return self._get(name, Histogram, labels)

    def timer(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Timer:
        """The timer registered under ``name`` (+ optional labels)."""
        return self._get(name, Timer, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, dict]:
        """All metrics as ``{key: {type, ...values}}`` (JSON-ready).

        Keys are qualified names (``name`` or ``name{k="v"}``); values
        include histogram quantiles and sparse bucket counts, so a
        snapshot is both human-diffable and renderable as Prometheus
        text (:mod:`repro.obs.exposition`).
        """
        with self._lock:
            metrics = list(self._metrics.items())
        return {key: metric.as_dict() for key, metric in sorted(metrics)}


class NullRegistry:
    """The disabled registry: shared no-op handles, empty snapshot."""

    enabled = False

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> _NullCounter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> _NullGauge:
        """The shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> _NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def timer(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> _NullTimer:
        """The shared no-op timer."""
        return _NULL_TIMER

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def snapshot(self) -> Dict[str, dict]:
        """Always empty."""
        return {}


NULL_REGISTRY = NullRegistry()
