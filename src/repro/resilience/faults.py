"""Deterministic fault injection for the query service.

A :class:`FaultPlan` decides, purely from a seed and a task sequence
number, whether a task is sabotaged and how.  Because the decision is
a function of ``(seed, index)`` — not of wall clock, thread timing or
call order within an index — the same plan replays the same faults in
tests, in CI and at the ``repro faults`` command line.

Pool fault kinds (``FAULT_KINDS``, the only kinds ``--fault-kinds``
accepts):

* ``"transient"`` — raise :class:`InjectedTransientError` before the
  task body runs (a blip the retry layer should absorb);
* ``"crash"`` — raise :class:`InjectedCrashError` (a simulated worker
  crash: classified transient, because a resubmitted task lands on a
  healthy worker);
* ``"hang"`` — sleep ``hang_seconds`` before running the task body, so
  a pool with a shorter per-task timeout sees a hung task;
* ``"corrupt"`` — run the task body, then hand back a *corrupted*
  result (negated distances on an SSSP result, a junk string
  otherwise) that result validation must catch.

Network-tier fault kinds (``NET_FAULT_KINDS``) extend the same plan
machinery above the pool, into :mod:`repro.net`.  They are *decided*
here but *interpreted* by the serving layer — :func:`apply_fault`
rejects them, because they sabotage infrastructure, not tasks:

* ``"shard_crash"`` — a shard dispatcher thread dies mid-cycle
  (raises :class:`InjectedShardCrash`, a ``BaseException`` on purpose:
  it must escape ``except Exception`` handlers the way a real
  interpreter-level death would);
* ``"slow_shard"`` — every dispatch cycle pays ``slow_seconds`` extra
  latency (a slow shard, not a dead one: the supervisor leaves it
  serving, and admission sheds only once its in-flight bound is full);
* ``"conn_drop"`` — the server closes a client connection abruptly
  after reading a request, before answering it.

Worker-process fault kinds (``WORKER_FAULT_KINDS``, a subset of
``NET_FAULT_KINDS``) are interpreted *inside* an out-of-process shard
worker (``repro shard-worker``), indexed by request frame.  They are
how a drill kills a process (``repro chaos-net --shard-mode process``):

* ``"worker_kill"`` — the worker SIGKILLs itself mid-request: the
  parent's waitpid sees a signal death, exactly like an OOM killer or
  a segfaulting kernel;
* ``"worker_oom"`` — the worker clamps its own address-space rlimit
  and then allocates until ``MemoryError``, dying with a distinct exit
  code (a realistic out-of-memory death, not a simulated one);
* ``"frame_corrupt"`` — the worker flips bytes in one response frame
  *after* computing its CRC, so the front-end's checksum verification
  must reject the frame and answer that request with a retryable
  error.

:class:`ScheduledFaultPlan` is the precision variant for drills: it
fires a chosen kind at explicit indices (``at=(3,)`` = sabotage the
third dispatch cycle) instead of rolling seeded dice per index.

Plans cross the shard-worker process boundary as JSON
(:func:`plan_to_wire` / :func:`plan_from_wire`).

:func:`verify_answers` is the drills' shared answer check: ``repro
faults`` and ``repro chaos-net`` both hold every answer they got
against a clean Dijkstra run.

:class:`DivergentController` is the controller-level fault: a proxy
that behaves like the wrapped :class:`~repro.core.controller.SetpointController`
for ``after`` decisions and then emits non-finite deltas — the input
the :mod:`repro.resilience.guard` watchdog exists to survive.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

__all__ = [
    "ALL_FAULT_KINDS",
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedShardCrash",
    "InjectedTransientError",
    "ScheduledFaultPlan",
    "apply_fault",
    "plan_from_wire",
    "plan_to_wire",
    "verify_answers",
    "DivergentController",
]

FAULT_KINDS = ("transient", "crash", "hang", "corrupt")

# worker-process kinds: decided by the same machinery, shipped over the
# frame protocol and interpreted inside `repro shard-worker` processes
WORKER_FAULT_KINDS = ("worker_kill", "worker_oom", "frame_corrupt")

# network-tier kinds: decided by the same seeded machinery, interpreted
# by repro.net (shard dispatcher / TCP server / worker), never by
# apply_fault
NET_FAULT_KINDS = ("shard_crash", "slow_shard", "conn_drop") + WORKER_FAULT_KINDS

ALL_FAULT_KINDS = FAULT_KINDS + NET_FAULT_KINDS


class InjectedTransientError(RuntimeError):
    """A deliberately injected transient failure (retry should absorb it)."""


class InjectedCrashError(RuntimeError):
    """A deliberately injected worker crash (simulated, in-band)."""


class InjectedShardCrash(BaseException):
    """A deliberately injected shard-dispatcher death.

    Deliberately a ``BaseException``: a real dispatcher thread can die
    from things ``except Exception`` never sees (``SystemExit``,
    ``KeyboardInterrupt``, interpreter teardown), and the shard's
    pending-future cleanup must survive exactly that class of exit.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One concrete sabotage decision for one task."""

    kind: str
    hang_seconds: float = 0.25
    slow_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(have {', '.join(ALL_FAULT_KINDS)})"
            )
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")
        if self.slow_seconds < 0:
            raise ValueError("slow_seconds must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of task sabotage.

    ``decide(i)`` answers "what happens to the i-th submitted task":
    ``None`` (run clean) or a :class:`FaultSpec`.  ``rate`` is the
    per-task fault probability; ``kinds`` the pool the sabotage is
    drawn from, uniformly.
    """

    rate: float
    seed: int = 0
    kinds: Tuple[str, ...] = ("transient", "crash", "hang")
    hang_seconds: float = 0.25
    slow_seconds: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if not self.kinds:
            raise ValueError("kinds must not be empty")
        for kind in self.kinds:
            if kind not in ALL_FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} "
                    f"(have {', '.join(ALL_FAULT_KINDS)})"
                )
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")
        if self.slow_seconds < 0:
            raise ValueError("slow_seconds must be >= 0")

    def decide(self, index: int) -> Optional[FaultSpec]:
        """The fault for task ``index`` (deterministic in seed and index)."""
        rng = random.Random(self.seed * 1_000_003 + index)
        if rng.random() >= self.rate:
            return None
        return FaultSpec(
            kind=rng.choice(self.kinds),
            hang_seconds=self.hang_seconds,
            slow_seconds=self.slow_seconds,
        )

    def count(self, tasks: int) -> int:
        """How many of the first ``tasks`` submissions get sabotaged."""
        return sum(1 for i in range(tasks) if self.decide(i) is not None)

    @classmethod
    def parse_kinds(cls, spec: str) -> Tuple[str, ...]:
        """``"crash,hang"`` -> ``("crash", "hang")``: pool kinds only.

        A pool plan (``--fault-kinds``) can only sabotage what
        :func:`apply_fault` can apply, so network and worker kinds are
        rejected here rather than failing every sabotaged task later.
        """
        kinds = tuple(k.strip() for k in spec.split(",") if k.strip())
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} for pool tasks "
                    f"(have {', '.join(FAULT_KINDS)})"
                )
        return kinds


@dataclass(frozen=True)
class ScheduledFaultPlan:
    """A fault plan that fires at explicit indices, not by seeded dice.

    Drills want precision ("crash the dispatcher on its third cycle,
    once"), not probability.  ``decide(i)`` returns a
    :class:`FaultSpec` of ``kind`` exactly when ``i`` is in ``at``.
    The surface matches :class:`FaultPlan` where the serving layer
    cares (``decide`` / ``count`` / ``kinds``), so shard and server
    fault hooks accept either interchangeably.
    """

    at: Tuple[int, ...]
    kind: str = "shard_crash"
    hang_seconds: float = 0.25
    slow_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(have {', '.join(ALL_FAULT_KINDS)})"
            )
        for index in self.at:
            if index < 0:
                raise ValueError("schedule indices must be >= 0")

    @property
    def kinds(self) -> Tuple[str, ...]:
        return (self.kind,)

    def decide(self, index: int) -> Optional[FaultSpec]:
        if index not in self.at:
            return None
        return FaultSpec(
            kind=self.kind,
            hang_seconds=self.hang_seconds,
            slow_seconds=self.slow_seconds,
        )

    def count(self, tasks: int) -> int:
        return sum(1 for i in self.at if i < tasks)


def plan_to_wire(plan) -> Optional[dict]:
    """A JSON-safe description of a fault plan (worker bootstrap).

    Out-of-process shard workers receive their fault plan inside the
    CONFIG frame; this is the encoding.  ``None`` stays ``None``.
    """
    if plan is None:
        return None
    if isinstance(plan, ScheduledFaultPlan):
        return {
            "type": "scheduled",
            "at": list(plan.at),
            "kind": plan.kind,
            "hang_seconds": plan.hang_seconds,
            "slow_seconds": plan.slow_seconds,
        }
    if isinstance(plan, FaultPlan):
        return {
            "type": "seeded",
            "rate": plan.rate,
            "seed": plan.seed,
            "kinds": list(plan.kinds),
            "hang_seconds": plan.hang_seconds,
            "slow_seconds": plan.slow_seconds,
        }
    raise TypeError(
        f"cannot serialize fault plan of type {type(plan).__name__}"
    )


def plan_from_wire(data: Optional[dict]):
    """Invert :func:`plan_to_wire`; validation re-runs in the plan."""
    if data is None:
        return None
    plan_type = data.get("type")
    if plan_type == "scheduled":
        return ScheduledFaultPlan(
            at=tuple(int(i) for i in data["at"]),
            kind=data["kind"],
            hang_seconds=float(data.get("hang_seconds", 0.25)),
            slow_seconds=float(data.get("slow_seconds", 0.05)),
        )
    if plan_type == "seeded":
        return FaultPlan(
            rate=float(data["rate"]),
            seed=int(data.get("seed", 0)),
            kinds=tuple(data["kinds"]),
            hang_seconds=float(data.get("hang_seconds", 0.25)),
            slow_seconds=float(data.get("slow_seconds", 0.05)),
        )
    raise ValueError(f"unknown fault plan wire type {plan_type!r}")


def _corrupt(result: object) -> object:
    """Damage a task result in a way validation must detect."""
    dist = getattr(result, "dist", None)
    if dist is not None:
        try:
            import numpy as np

            bad = np.where(np.isfinite(dist), -(dist + 1.0), dist)
            return type(result)(
                dist=bad,
                source=result.source,
                iterations=result.iterations,
                relaxations=result.relaxations,
                algorithm=result.algorithm,
                extra=dict(result.extra or {}, corrupted=True),
            )
        except Exception:
            pass
    return "corrupted-result"


def apply_fault(fault: Optional[FaultSpec], call: Callable[[], object]) -> object:
    """Run ``call`` under ``fault`` (``None`` = run clean)."""
    if fault is None:
        return call()
    if fault.kind in NET_FAULT_KINDS:
        raise ValueError(
            f"network-tier fault {fault.kind!r} cannot be applied to a "
            "pool task; it belongs to the repro.net shard/server hooks"
        )
    if fault.kind == "transient":
        raise InjectedTransientError("injected transient fault")
    if fault.kind == "crash":
        raise InjectedCrashError("injected worker crash")
    if fault.kind == "hang":
        time.sleep(fault.hang_seconds)
        return call()
    # corrupt
    return _corrupt(call())


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
