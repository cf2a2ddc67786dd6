"""Structured event log: one JSON object per line, streamed as it happens.

Unlike the :class:`~repro.instrument.trace.RunTrace` (which
materialises at the end of a run), an event sink receives each event
the moment the instrumented code emits it, so a long run can be
watched live (``tail -f run.events.jsonl``).

Event schema (version :data:`EVENT_SCHEMA_VERSION`, documented in the
README's *Observability* section):

* ``run_start`` — ``{"type", "v", "algorithm", "graph", "source", ...}``;
  the only event carrying the schema version.
* ``iteration`` — one per outer SSSP iteration:
  ``{"type", "k", "x1", "x2", "x3", "x4", "delta", "far_size"}`` plus,
  for controller-driven runs, ``"d"`` and ``"alpha"`` (the learned
  estimates; ``null`` before the first update).
* ``run_end`` — ``{"type", "iterations", "relaxations", "reached"}``.

Schema **v2** adds the telemetry vocabulary: ``span`` events (one per
closed trace span — ``{"type", "trace", "span", "parent", "name",
"seconds", ...}``) and an optional ``"trace"`` field on serving-path
events (``query_start`` / ``query_end`` / ``batch_dispatch``), plus
``"worker": true`` on the kernel events a serving pool thread emits
(stamped by :class:`~repro.obs.telemetry.WorkerEvents`).  See
``docs/trace-and-metrics.md`` for the full vocabulary.

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

EVENT_SCHEMA_VERSION = 2


def _jsonable(value):
    """NaN/inf are not valid JSON; map them to null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
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
        clean = {k: _jsonable(v) for k, v in event.items()}
        line = json.dumps(clean) + "\n"
        with self._lock:
            self._file.write(line)
            self._file.flush()
            self.count += 1

    def close(self) -> None:
        if self._owns and not self._file.closed:
            self._file.close()


NULL_EVENTS = NullEventSink()
