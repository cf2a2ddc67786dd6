"""Admission control: bound in-flight work, shed the excess early.

The energy framing of the source paper applies to serving too: work
that cannot be served promptly is cheapest to turn away *before* it
enters a shard.  :class:`AdmissionController` has one gate per shard,
driven by a measured count rather than a latency guess: at most
``max_inflight`` queries may be inside a shard (queued or executing)
at once.  Admission takes tokens up front; :meth:`release` returns
them when the work settles.  A group that does not fit is shed at
once, however long the shard has been full.

Every shed increments the ``net.shed`` counter (labelled per shard)
and answers in-band with an ``overloaded: ...`` protocol error — the
client sees *why* immediately rather than timing out.  ``net.inflight``
gauges (also per shard) expose the live occupancy.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro import obs

__all__ = ["AdmissionController", "OVERLOADED_PREFIX", "UNAVAILABLE_PREFIX"]

# every shed response's error string starts with this; clients and the
# load generator classify shed vs genuine failure by it
OVERLOADED_PREFIX = "overloaded"

# fast-fail responses for a shard that is down or restarting start with
# this; retryable by definition — the supervisor is already on it
UNAVAILABLE_PREFIX = "unavailable"


class AdmissionController:
    """A per-shard token bound on in-flight queries.

    Parameters
    ----------
    max_inflight:
        In-flight query bound per shard (queued + executing).  0 sheds
        everything — the drain/maintenance mode, also handy in tests.
    """

    def __init__(self, max_inflight: int = 256):
        if max_inflight < 0:
            raise ValueError("max_inflight must be >= 0")
        self.max_inflight = int(max_inflight)
        self._lock = threading.Lock()
        self._inflight: Dict[int, int] = {}
        self.admitted = 0
        self.shed = 0
        self.unavailable = 0
        registry = obs.get_registry()
        self._registry = registry
        self._inflight_gauges: Dict[int, object] = {}
        self._shed_counters: Dict[int, object] = {}
        self._unavail_counters: Dict[int, object] = {}
        self._events = obs.get_events()

    # ------------------------------------------------------------------
    # per-shard metric handles (eager on first sight, so /metrics shows
    # a zero shed count rather than no series at all)
    # ------------------------------------------------------------------
    def register_shard(self, shard: int) -> None:
        """Pre-create the shard's gauges/counters (zero-valued)."""
        self._inflight_gauge(shard)
        self._shed_counter(shard)

    def _inflight_gauge(self, shard: int):
        gauge = self._inflight_gauges.get(shard)
        if gauge is None:
            gauge = self._registry.gauge(
                "net.inflight", labels={"shard": str(shard)}
            )
            self._inflight_gauges[shard] = gauge
        return gauge

    def _shed_counter(self, shard: int):
        counter = self._shed_counters.get(shard)
        if counter is None:
            counter = self._registry.counter(
                "net.shed", labels={"shard": str(shard)}
            )
            self._shed_counters[shard] = counter
        return counter

    def _unavail_counter(self, shard: int):
        counter = self._unavail_counters.get(shard)
        if counter is None:
            counter = self._registry.counter(
                "net.unavailable", labels={"shard": str(shard)}
            )
            self._unavail_counters[shard] = counter
        return counter

    # ------------------------------------------------------------------
    # the admission decision
    # ------------------------------------------------------------------
    def try_acquire(self, shard: int, n: int = 1) -> Optional[str]:
        """Admit ``n`` queries into ``shard``, or explain the shed.

        Returns ``None`` on admission (tokens taken — pair with
        :meth:`release`) or the ``overloaded: ...`` error string when
        the shard has no room for the group.
        """
        with self._lock:
            inflight = self._inflight.get(shard, 0)
            admitted = inflight + n <= self.max_inflight
            if admitted:
                self._inflight[shard] = inflight + n
                self.admitted += n
            else:
                self.shed += n
        if admitted:
            self._inflight_gauge(shard).set(inflight + n)
            return None
        reason = (
            f"{OVERLOADED_PREFIX}: shard {shard} at "
            f"{inflight}/{self.max_inflight} in-flight"
        )
        self._shed_counter(shard).inc(n)
        if self._events.enabled:
            self._events.emit(
                {"type": "query_shed", "shard": shard, "count": n,
                 "reason": reason}
            )
        return reason

    def record_unavailable(self, shard: int, n: int, reason: str) -> None:
        """Account a fast-failed group for a down/restarting shard.

        Unavailability is the supervisor's problem, not saturation: it
        counts separately from sheds and takes no tokens.
        """
        with self._lock:
            self.unavailable += n
        self._unavail_counter(shard).inc(n)
        if self._events.enabled:
            self._events.emit(
                {"type": "query_unavailable", "shard": shard, "count": n,
                 "reason": reason}
            )

    def release(self, shard: int, n: int) -> None:
        """Return ``n`` tokens to ``shard``."""
        with self._lock:
            inflight = max(0, self._inflight.get(shard, 0) - n)
            self._inflight[shard] = inflight
        self._inflight_gauge(shard).set(inflight)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def inflight(self, shard: int) -> int:
        with self._lock:
            return self._inflight.get(shard, 0)

    def snapshot(self) -> dict:
        """Occupancy and totals, JSON-ready."""
        with self._lock:
            inflight = dict(self._inflight)
        return {
            "max_inflight": self.max_inflight,
            "admitted": self.admitted,
            "shed": self.shed,
            "unavailable": self.unavailable,
            "inflight": {str(k): v for k, v in sorted(inflight.items())},
        }
