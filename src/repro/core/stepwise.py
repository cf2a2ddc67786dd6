"""Iteration-stepped execution of the self-tuning near+far SSSP.

:class:`AdaptiveNearFarStepper` exposes the algorithm one outer
iteration at a time: each :meth:`step` runs advance → filter →
bisect-frontier → rebalancer and returns that iteration's row as an
:class:`~repro.instrument.trace.IterationRecord`, keeping the row in
``rows`` when something will read it.  :meth:`finish` ends the run: it
books the rows into the observability context once
(:func:`~repro.instrument.trace.publish_run`) and returns the result.

This is the integration point for *outer* control loops that need to
react between iterations — most importantly the power-target servo of
:mod:`repro.cosim`, which implements the paper's future-work idea of
feeding *measured power* back into the set-point ("measured power
would need to be part of the feedback control system", §6).  The
set-point can be retargeted between any two steps via
:attr:`setpoint`.

:func:`repro.core.adaptive_sssp.adaptive_sssp` is a thin wrapper that
drives this stepper to completion.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.controller import DELTA_MIN, DeltaDecision, SetpointController
from repro.core.partitions import FarQueuePartitions
from repro.graph.csr import CSRGraph
from repro.instrument.trace import IterationRecord, RunTrace, publish_run
from repro.obs import context as obs
from repro.obs.events import EVENT_SCHEMA_VERSION
from repro.resilience.guard import DivergenceGuard
from repro.sssp.deadline import DeadlineExceeded, check_deadline
from repro.sssp.frontier import advance, bisect, filter_frontier, sorted_unique
from repro.sssp.nearfar import finite_positive, suggest_delta
from repro.sssp.result import SSSPResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.adaptive_sssp import AdaptiveParams

__all__ = ["AdaptiveNearFarStepper"]

_EMPTY = np.zeros(0, dtype=np.int64)


class AdaptiveNearFarStepper:
    """One-iteration-at-a-time driver of the self-tuning algorithm."""

    def __init__(self, graph: CSRGraph, source: int, params: "AdaptiveParams"):
        n = graph.num_nodes
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for {n} nodes")
        if graph.has_negative_weights():
            raise ValueError("near+far requires non-negative edge weights")

        self.graph = graph
        self.source = source
        self.params = params
        self.initial_delta = (
            params.initial_delta
            if params.initial_delta is not None
            else suggest_delta(graph)
        )
        self.controller = SetpointController(
            params.setpoint,
            self.initial_delta,
            initial_d=max(graph.average_degree, 1.0),
            use_bootstrap=params.use_bootstrap,
            sgd_mode=params.sgd_mode,
        )
        # the flat-queue ablation is one partition covering [0, inf),
        # never refreshed by Eq. 7
        self.partitions = FarQueuePartitions(
            suggest_delta(graph) if params.use_partitions else math.inf
        )

        # divergence watchdog: a blown-up controller (NaN/runaway delta,
        # limit-cycle oscillation) degrades the run to plain near-far
        # with the last-good static delta instead of stalling
        self.guard = DivergenceGuard(self.initial_delta)
        self.fallback = False
        self.fallback_reason: str | None = None
        self._fallback_delta = self.initial_delta

        self.dist = np.full(n, np.inf)
        self.dist[source] = 0.0
        # distance each vertex had when its out-edges were last relaxed;
        # a queued copy is stale iff dist[v] >= advanced_at[v]
        self.advanced_at = np.full(n, np.inf)

        self.frontier = np.array([source], dtype=np.int64)
        self.lower = 0.0
        self.split = self.controller.delta

        self.iterations = 0
        self.relaxations = 0
        self._controller_prev_seconds = 0.0
        # one row per iteration (repro.instrument.trace.ROW_FIELDS),
        # kept while something reads them: the observability context
        # active at construction, booked once by finish(), or a trace
        # passed to run()
        ctx = obs.current()
        self._registry, self._events = ctx.registry, ctx.events
        self.rows: list = []
        self._keep_rows = ctx.registry.enabled or ctx.events.enabled
        self._finished = False
        self._m_fallbacks = ctx.registry.counter("controller.fallbacks")
        if self._events.enabled:
            self._events.emit(
                {
                    "type": "run_start",
                    "v": EVENT_SCHEMA_VERSION,
                    "algorithm": "adaptive-nearfar",
                    "graph": graph.name,
                    "source": source,
                    "setpoint": params.setpoint,
                    "initial_delta": self.initial_delta,
                }
            )

    # ------------------------------------------------------------------
    # outer-loop interface
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the frontier is empty and the run is complete."""
        return self.frontier.size == 0

    @property
    def setpoint(self) -> float:
        """The controller's live parallelism set-point P (settable)."""
        return self.controller.setpoint

    @setpoint.setter
    def setpoint(self, value: float) -> None:
        """Retarget the controller mid-run (the power servo uses this)."""
        self.controller.setpoint = finite_positive("setpoint", float(value))

    def step(self, *, record: bool = True) -> Optional[IterationRecord]:
        """Run one outer iteration and return its record; ``None`` once
        the run has finished, and always with ``record=False``, which
        builds no record."""
        if self.done:
            return None
        self.iterations += 1
        controller, partitions = self.controller, self.partitions
        dist, advanced_at = self.dist, self.advanced_at

        x1 = int(self.frontier.size)
        if not self.fallback:
            controller.begin_iteration(x1)

        # stage 1: advance
        advanced_at[self.frontier] = dist[self.frontier]
        adv = advance(self.graph, self.frontier, dist)
        self.relaxations += adv.relaxations
        if not self.fallback:
            controller.observe_advance(x1, adv.x2)

        # stage 2: filter
        unique_improved = filter_frontier(adv.improved)
        x3 = int(unique_improved.size)

        # stage 3: bisect-frontier
        near, far_add = bisect(unique_improved, dist, self.split)
        if far_add.size:
            partitions.insert(far_add, dist[far_add])
        x4 = int(near.size)

        # stage 4: rebalancer (replaces bisect-far-queue), unless the
        # watchdog has benched the controller — then a static delta
        # turns the rest of the run into plain near-far
        if self.fallback:
            decision = self._static_decision()
        else:
            decision = controller.plan(
                x4,
                window_lower=self.lower,
                window_split=self.split,
                far_total=partitions.total(),
                far_partition_size=partitions.current_partition_size(),
                far_partition_upper=partitions.current_partition_upper(),
            )
            if self.guard.observe(decision.delta, adv.x2):
                self._enter_fallback()
                decision = self._static_decision()
        new_split = self.lower + decision.delta
        moved_from_far = moved_to_far = 0
        far_scanned = 0

        if new_split > self.split:
            # delta grew: pull far vertices that now fall inside the window
            near, moved_from_far, scanned = _pull_from_far(
                partitions, near, dist, advanced_at, new_split
            )
            far_scanned += scanned
        elif new_split < self.split and near.size:
            # delta shrank: postpone frontier vertices beyond the new split
            keep_mask = dist[near] < new_split
            postponed = near[~keep_mask]
            if postponed.size:
                partitions.insert(postponed, dist[postponed])
                moved_to_far = int(postponed.size)
            near = near[keep_mask]
        self.split = new_split

        # Eq. 7 refresh — skipped by the flat queue, and when the
        # decision's α is not usable as a partition width (a diverged
        # controller the guard has not condemned yet must not rewrite
        # the far-queue boundaries)
        alpha = float(decision.alpha_used)
        if self.params.use_partitions and not self.fallback and 0.0 < alpha < math.inf:
            partitions.refresh_boundaries(controller.setpoint, alpha)

        self.frontier = near
        drains = 0
        if self.frontier.size == 0 and partitions.total():
            self.frontier, self.lower, self.split, drains, scanned = _drain(
                partitions,
                dist,
                advanced_at,
                self.lower,
                self.split,
                self._fallback_delta if self.fallback else controller.delta,
            )
            far_scanned += scanned
            # the next X^(1) was produced by draining, not by delta_change:
            # it would mislabel the BISECT-MODEL sample
            if not self.fallback:
                controller.invalidate_pending()

        now = controller.seconds
        seconds, self._controller_prev_seconds = now - self._controller_prev_seconds, now
        if not (record or self._keep_rows):
            return None
        row = (
            x1, adv.x2, x3, x4, decision.delta, self.split, partitions.total(),
            drains, moved_from_far, moved_to_far, far_scanned,
            controller.d, controller.alpha, seconds,
        )
        if self._keep_rows:
            self.rows.append(row)
        return IterationRecord(self.iterations - 1, *row) if record else None

    # ------------------------------------------------------------------
    # divergence fallback
    # ------------------------------------------------------------------
    def _static_decision(self) -> DeltaDecision:
        """The frozen decision used once the controller is benched."""
        return DeltaDecision(
            delta=self._fallback_delta,
            delta_change=0.0,
            alpha_used=float("nan"),
            target_frontier=float("nan"),
            bootstrapped=False,
        )

    def _enter_fallback(self) -> None:
        """Bench the controller; keep the run going as plain near-far.

        The fallback delta is the last decision the watchdog judged
        sane (the initial delta if the very first one diverged) —
        correctness is independent of delta, so the run still ends in
        exact distances, just without self-tuning.
        """
        self.fallback = True
        self.fallback_reason = self.guard.reason
        self._fallback_delta = self.guard.last_good_delta
        self._m_fallbacks.inc()
        if self._events.enabled:
            self._events.emit(
                {
                    "type": "controller_fallback",
                    "k": self.iterations - 1,
                    "reason": self.fallback_reason,
                    "fallback_delta": self._fallback_delta,
                }
            )

    def run(
        self, trace: RunTrace | None = None, *, deadline: float | None = None
    ) -> SSSPResult:
        """Drive to completion and :meth:`finish`; ``trace`` gets the
        rows of the steps run here.  Past ``deadline`` (see
        :mod:`repro.sssp.deadline`) the run stops unfinished with
        ``DeadlineExceeded``, once :meth:`finish` has booked the steps
        it ran."""
        params = self.params
        if trace is not None:
            self._keep_rows = True
        start = len(self.rows)
        try:
            while not self.done:
                if deadline is not None:
                    check_deadline(deadline, "adaptive-nearfar", self.iterations)
                self.step(record=False)
                if params.max_iterations and self.iterations >= params.max_iterations:
                    break
        except DeadlineExceeded:
            self.finish()
            raise
        if trace is not None:
            trace.rows.extend(self.rows[start:])
        return self.finish()

    def finish(self) -> SSSPResult:
        """End the run: book its rows once (the ``sssp.*`` metrics, the
        ``iterations`` and ``run_end`` events), then return :meth:`result`.
        An outer loop that drives :meth:`step` itself calls this when it
        stops; later calls book nothing."""
        result = self.result()
        if not self._finished:
            self._finished = True
            publish_run(self._registry, self._events, self.rows, result.num_reached)
        return result

    def result(self) -> SSSPResult:
        """The (current) distances packaged as an :class:`SSSPResult`."""
        return SSSPResult(
            dist=self.dist,
            source=self.source,
            iterations=self.iterations,
            relaxations=self.relaxations,
            algorithm="adaptive-nearfar",
            extra={
                "setpoint": self.params.setpoint,
                "final_setpoint": self.controller.setpoint,
                "initial_delta": self.initial_delta,
                "final_delta": (
                    self._fallback_delta if self.fallback else self.controller.delta
                ),
                "d": self.controller.d,
                "alpha": self.controller.alpha,
                "controller_seconds": self.controller.seconds,
                "controller_fallback": self.fallback,
                "fallback_reason": self.fallback_reason,
            },
        )


def _pull_from_far(
    partitions: FarQueuePartitions,
    near: np.ndarray,
    dist: np.ndarray,
    advanced_at: np.ndarray,
    split: float,
) -> Tuple[np.ndarray, int, int]:
    """Move live far-queue vertices with dist < split into the frontier.

    Pulled entries are re-validated: stale copies (already advanced at
    their current distance) are discarded; entries still at or beyond
    the split are re-inserted.  Returns ``(frontier, moved, scanned)``
    where ``scanned`` is the number of entries the range query had to
    touch (the cost the partitioned queue exists to minimise).
    """
    pulled = partitions.extract_below(split)
    if pulled.size == 0:
        return near, 0, 0
    scanned = int(pulled.size)
    pulled = sorted_unique(pulled)
    live = pulled[dist[pulled] < advanced_at[pulled]]
    inside = live[dist[live] < split]
    outside = live[dist[live] >= split]
    if outside.size:
        partitions.insert(outside, dist[outside])
    if inside.size == 0:
        return near, 0, scanned
    merged = sorted_unique(np.concatenate((near, inside))) if near.size else inside
    return merged, int(inside.size), scanned


def _drain(
    partitions: FarQueuePartitions,
    dist: np.ndarray,
    advanced_at: np.ndarray,
    lower: float,
    split: float,
    delta: float,
) -> Tuple[np.ndarray, float, float, int, int]:
    """Advance the window until the far queue yields a non-empty frontier.

    Empty distance ranges are jumped over (probing from the first
    occupied partition), so progress is O(live far entries) even when
    the controller has driven delta very small.  Each loop round either
    produces a frontier or permanently discards stale entries, so the
    loop terminates.  Returns the scanned-entry count alongside the
    window state for kernel-cost accounting.
    """
    step = max(delta, DELTA_MIN)
    drains = 0
    scanned = 0
    frontier = _EMPTY
    while partitions.total():
        drains += 1
        probe = max(split, partitions.min_occupied_lower()) + step
        pulled = partitions.extract_below(probe)
        if pulled.size == 0:  # defensive: cannot happen while total() > 0
            break
        scanned += int(pulled.size)
        pulled = sorted_unique(pulled)
        live = pulled[dist[pulled] < advanced_at[pulled]]
        if live.size == 0:
            continue  # only stale duplicates: dropped, total() shrank
        d_live = dist[live]
        new_split = max(probe, float(d_live.min()) + step)
        inside_mask = d_live < new_split
        outside = live[~inside_mask]
        if outside.size:
            partitions.insert(outside, dist[outside])
        lower, split = split, new_split
        frontier = live[inside_mask]
        break
    return frontier, lower, split, drains, scanned
