"""Structured event log: one JSON object per line, written as emitted.

A near+far run emits ``run_start`` when it starts and, when it ends,
one ``iterations`` event holding its per-iteration columns, then
``run_end``; serving-path events stream as they happen.

Event schema (version :data:`EVENT_SCHEMA_VERSION`, documented in the
README's *Observability* section and ``docs/trace-and-metrics.md``):

* ``run_start`` — ``{"type", "v", "algorithm", "graph", "source", ...}``;
  the only event carrying the schema version.
* ``iterations`` — one list per :class:`~repro.instrument.trace.RunTrace`
  column (``x1`` … ``drains``, plus a controller-driven run's queue
  moves, ``d_estimate``, ``alpha_estimate`` and ``controller_seconds``).
* ``run_end`` — ``{"type", "iterations", "relaxations", "reached"}``.

Schema **v2** added ``span`` events and the ``"trace"`` / ``"worker"``
stamps of the serving path (:class:`~repro.obs.telemetry.WorkerEvents`);
**v3** replaced the per-iteration ``iteration`` event with ``iterations``.

Sinks share a tiny interface: ``emit(dict)``, ``close()``, and an
``enabled`` flag instrumented code checks before building the event
dict (so the disabled path allocates nothing).
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import IO, List, Optional, Union

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventSink",
    "NullEventSink",
    "ListSink",
    "JsonlSink",
    "NULL_EVENTS",
]

EVENT_SCHEMA_VERSION = 3


def _jsonable(value):
    """NaN/inf are not valid JSON; map them to null, in lists and dicts too."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class EventSink:
    """Interface; also usable as a base class."""

    enabled = True

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullEventSink(EventSink):
    """The default: drops everything."""

    enabled = False

    def emit(self, event: dict) -> None:
        pass


class ListSink(EventSink):
    """Collects events in memory (tests, programmatic consumers)."""

    def __init__(self):
        self.events: List[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def of_type(self, event_type: str) -> List[dict]:
        return [e for e in self.events if e.get("type") == event_type]


class JsonlSink(EventSink):
    """Writes one JSON line per event, flushing so the stream is live.

    Emission is lock-guarded: a serving engine's worker threads may
    emit concurrently, and interleaved *lines* are fine but interleaved
    *bytes* are not.
    """

    def __init__(self, target: Union[str, Path, IO[str]]):
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns = False
            self.path: Optional[Path] = None
        else:
            self.path = Path(target)
            self._file = self.path.open("w")
            self._owns = True
        self.count = 0
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        try:
            line = json.dumps(event, allow_nan=False) + "\n"
        except ValueError:  # NaN or inf somewhere in the event
            line = json.dumps(_jsonable(event)) + "\n"
        with self._lock:
            self._file.write(line)
            self._file.flush()
            self.count += 1

    def close(self) -> None:
        if self._owns and not self._file.closed:
            self._file.close()


NULL_EVENTS = NullEventSink()
