"""Span-based wall-clock timing.

A *span* is a named timed region entered with ``with recorder.span("x"):``.
Spans nest: entering ``span("bootstrap")`` inside ``span("plan")``
accumulates under the path ``"plan/bootstrap"``.  The recorder keeps a
flat profile — ``(path, count, seconds)`` per distinct path — which is
what the controller-overhead experiment and the ``repro trace`` CLI
export.

This replaces the ad-hoc ``time.perf_counter()`` bracketing the
controller and the overhead experiment used to carry around: every
timed region in the package now reads the same clock through the same
accounting.

:class:`SpanRecorder` is cheap enough to keep on per request (one
``perf_counter`` pair, a stack push and pop and a locked dict update
per span); code that only wants timing when observability is on goes
through the active context's recorder, which defaults to
:data:`NULL_SPANS`.  The set-point controller, timed on every
iteration, books its own ``perf_counter`` pairs and hands out the same
flat profile as :attr:`SetpointController.spans`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping

__all__ = ["SpanStat", "SpanRecorder", "NullSpanRecorder", "NULL_SPANS"]


@dataclass(frozen=True)
class SpanStat:
    """One row of the flat profile."""

    path: str
    count: int
    seconds: float

    @property
    def depth(self) -> int:
        return self.path.count("/")

    def as_dict(self) -> dict:
        return {"path": self.path, "count": self.count, "seconds": self.seconds}


class _Span:
    """A single active span; class-based so the timed window is tight."""

    __slots__ = ("_recorder", "_name", "_t0", "elapsed")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self._recorder = recorder
        self._name = name
        self._t0 = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_Span":
        self._recorder._push(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        self._recorder._pop(self.elapsed)


class SpanRecorder:
    """Accumulates nested span timings into a flat path-keyed profile.

    The span *stack* is intentionally single-threaded (one recorder
    belongs to one run), but the accumulated *profile* is lock-guarded
    so a serving engine can :meth:`merge` the rows it times for its
    pool tasks from its settle path while another thread reads
    :meth:`profile`.
    """

    enabled = True

    def __init__(self):
        self._stack: List[str] = []
        self._stats: Dict[str, List[float]] = {}  # path -> [count, seconds]
        self._lock = threading.Lock()

    def span(self, name: str) -> _Span:
        if "/" in name:
            raise ValueError("span names must not contain '/'")
        return _Span(self, name)

    # -- internals used by _Span ---------------------------------------
    def _push(self, name: str) -> None:
        path = f"{self._stack[-1]}/{name}" if self._stack else name
        self._stack.append(path)

    def _pop(self, elapsed: float) -> None:
        path = self._stack.pop()
        self._add(path, 1, elapsed)

    def _add(self, path: str, count: int, seconds: float) -> None:
        with self._lock:
            stat = self._stats.get(path)
            if stat is None:
                self._stats[path] = [count, seconds]
            else:
                stat[0] += count
                stat[1] += seconds

    def merge(self, profile: Iterable[Mapping]) -> None:
        """Fold profile rows (``[{path, count, seconds}, ...]``) in.

        This is how spans timed off the recorder's own stack land in
        it: the serving engine books each pool task's ``worker/task``
        and ``worker/task/kernel`` rows here (see
        :mod:`repro.service.engine`).
        """
        for row in profile:
            self._add(row["path"], int(row["count"]), float(row["seconds"]))

    # -- reporting ------------------------------------------------------
    def total(self, path: str) -> float:
        """Accumulated seconds under ``path`` (0 if never entered)."""
        stat = self._stats.get(path)
        return stat[1] if stat else 0.0

    def count(self, path: str) -> int:
        stat = self._stats.get(path)
        return stat[0] if stat else 0

    @property
    def total_seconds(self) -> float:
        """Sum of *top-level* spans only (nested time is already inside)."""
        return sum(s[1] for path, s in self._stats.items() if "/" not in path)

    def profile(self) -> List[SpanStat]:
        """The flat profile, sorted by path (parents before children)."""
        with self._lock:
            items = sorted(self._stats.items())
        return [
            SpanStat(path=path, count=stat[0], seconds=stat[1])
            for path, stat in items
        ]


class _NullSpan:
    __slots__ = ()
    elapsed = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()


class NullSpanRecorder:
    """Disabled recorder: spans are shared no-op context managers."""

    enabled = False
    total_seconds = 0.0

    def span(self, name: str) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def total(self, path: str) -> float:
        """Always 0.0."""
        return 0.0

    def count(self, path: str) -> int:
        """Always 0."""
        return 0

    def merge(self, profile) -> None:
        """Dropped: a disabled recorder absorbs nothing."""

    def profile(self) -> List[SpanStat]:
        """Always empty."""
        return []


NULL_SPANS = NullSpanRecorder()
