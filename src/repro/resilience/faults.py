"""Chaos-drill helpers: the injected shard crash, the answer check, a bad controller.

Drills break the real thing.  ``repro chaos-net`` kills a shard worker
process with SIGKILL, as the OOM killer or a segfaulting kernel would,
and arms :class:`InjectedShardCrash` on a shard's dispatcher thread
(:attr:`repro.net.shard.Shard.crash_at`): that thread is the one
serving component nothing outside the process can kill.  Nothing in
a worker or on the request path knows about faults.

:func:`verify_answers` is the drill's answer check: ``repro
chaos-net`` holds every answer it got against a clean Dijkstra run.

:class:`DivergentController` is the controller-level fault: a proxy
that behaves like the wrapped :class:`~repro.core.controller.SetpointController`
for ``after`` decisions and then emits non-finite deltas — the input
the :mod:`repro.resilience.guard` watchdog exists to survive.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = [
    "InjectedShardCrash",
    "verify_answers",
    "DivergentController",
]


class InjectedShardCrash(BaseException):
    """A deliberately injected shard-dispatcher death.

    Deliberately a ``BaseException``: a real dispatcher thread can die
    from things ``except Exception`` never sees (``SystemExit``,
    ``KeyboardInterrupt``, interpreter teardown), and the shard's
    pending-future cleanup must survive exactly that class of exit.
    """


def verify_answers(catalog, rows) -> dict:
    """Hold served answers against clean Dijkstra runs.

    ``rows`` are wire-form answers (``graph``, ``source``, ``reached``,
    ``max_dist``, ``mean_dist``); each distinct ``(graph, source)`` is
    solved once on ``catalog.get(graph)``.  Returns ``checked``,
    ``unique_sources``, ``mismatches`` and up to five
    ``mismatch_samples`` (``{"got": row, "want": reference}``).
    """
    import numpy as np

    from repro.sssp import dijkstra

    def differs(got, want) -> bool:
        if got is None or want is None:
            return got is not want
        return not np.isclose(got, want, rtol=1e-9, atol=1e-12)

    reference = {}
    wrong = []
    for row in rows:
        key = (row["graph"], row["source"])
        if key not in reference:
            clean = dijkstra(catalog.get(row["graph"]), row["source"])
            finite = clean.finite_distances()
            reference[key] = {
                "reached": clean.num_reached,
                "max_dist": float(finite.max()) if finite.size else None,
                "mean_dist": float(finite.mean()) if finite.size else None,
            }
        want = reference[key]
        if row["reached"] != want["reached"] or any(
            differs(row[f], want[f]) for f in ("max_dist", "mean_dist")
        ):
            wrong.append({"got": dict(row), "want": dict(want)})
    return {
        "checked": len(rows),
        "unique_sources": len(reference),
        "mismatches": len(wrong),
        "mismatch_samples": wrong[:5],
    }


class DivergentController:
    """A controller proxy that goes insane after ``after`` decisions.

    Wraps a real :class:`~repro.core.controller.SetpointController`
    and delegates everything, except that :meth:`plan` starts emitting
    deltas from ``schedule`` once the wrapped controller has made
    ``after`` decisions.  The default schedule is NaN forever — the
    canonical "SGD blew up" failure.  Pass e.g.
    ``schedule=itertools.cycle([1e-12, 1e12])`` for violent
    oscillation instead.

    Swap it onto a stepper to force a divergence::

        stepper = AdaptiveNearFarStepper(graph, source, params)
        stepper.controller = DivergentController(stepper.controller, after=3)
    """

    def __init__(self, controller, *, after: int = 3, schedule=None):
        self._controller = controller
        self._after = after
        self._schedule = schedule
        self._decisions = 0
        self._last_poison: Optional[float] = None

    def __getattr__(self, name):
        return getattr(self._controller, name)

    @property
    def delta(self) -> float:
        # repeat the latest poisoned value rather than advancing the
        # schedule: only plan() consumes it, so the sequence of planned
        # deltas is exactly the schedule regardless of how often other
        # code reads .delta
        if self._decisions > self._after:
            if self._last_poison is None:
                self._last_poison = self._next_poison()
            return self._last_poison
        return self._controller.delta

    def _next_poison(self) -> float:
        value = math.nan if self._schedule is None else next(self._schedule)
        self._last_poison = value
        return value

    def plan(self, x4, **kwargs):
        from repro.core.controller import DeltaDecision

        self._decisions += 1
        if self._decisions <= self._after:
            return self._controller.plan(x4, **kwargs)
        bad = self._next_poison()
        return DeltaDecision(
            delta=bad,
            delta_change=bad - self._controller.delta,
            alpha_used=math.nan,
            target_frontier=math.nan,
            bootstrapped=False,
        )
