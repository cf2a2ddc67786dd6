"""The self-tuning near+far SSSP (paper Section 4).

Identical four-stage structure to the baseline
:func:`repro.sssp.nearfar.nearfar_sssp`, with two changes, exactly as
the paper describes:

1. delta is dynamic — the :class:`~repro.core.controller.SetpointController`
   recomputes it every iteration (Eq. 6) so the advance workload
   converges to the parallelism set-point ``P``;
2. the bisect-far-queue stage is replaced by a **rebalancer** that
   moves vertices between the frontier and the (partitioned) far queue
   whenever delta changes: delta grew -> pull far vertices inside the
   widened window; delta shrank -> postpone frontier vertices that fell
   outside.

Correctness does not depend on the controller: near+far is
label-correcting, so any delta schedule yields exact distances as long
as improved vertices are always re-enqueued and far entries are only
dropped when their out-edges were already relaxed at their current
distance.  The implementation (in :mod:`repro.core.stepwise`) enforces
the latter exactly with an ``advanced_at`` array (the distance each
vertex had when last advanced) instead of the window-based staleness
argument the fixed-delta baseline can use.

This module holds the run configuration (:class:`AdaptiveParams`,
including the ablation switches) and the one-call entry point
:func:`adaptive_sssp`; iteration-stepped execution for outer control
loops lives in :class:`repro.core.stepwise.AdaptiveNearFarStepper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.controller import SetpointController
from repro.core.stepwise import AdaptiveNearFarStepper
from repro.graph.csr import CSRGraph
from repro.instrument.trace import RunTrace
from repro.sssp.nearfar import finite_positive
from repro.sssp.result import SSSPResult

__all__ = ["AdaptiveParams", "adaptive_sssp"]


@dataclass(frozen=True)
class AdaptiveParams:
    """Configuration of the self-tuning algorithm.

    Parameters
    ----------
    setpoint:
        ``P``, the target available parallelism (advance workload per
        iteration), finite and positive.  The paper argues this is the
        natural user-facing knob: it depends on the hardware (see
        :func:`repro.core.setpoint.setpoint_menu`), not on the graph.
    initial_delta:
        Starting delta (finite and positive); defaults to the average
        edge weight.
    max_iterations:
        Safety valve for tests (0 = unlimited).
    use_bootstrap:
        Ablation: disable the Eq. 8 bootstrap (trust the learned α
        from the first iteration).
    use_partitions:
        Ablation: replace the Section-4.6 partitioned far queue with a
        flat one — one partition covering [0, ∞), never refreshed by
        Eq. 7, so every range query scans everything.
    sgd_mode:
        Ablation: ``'adaptive'`` = the paper's Algorithm 1;
        ``'fixed'`` = damped-Newton steps with a constant rate.

    The controller's other tuning is fixed (the constants of
    :mod:`repro.core.controller`), its far-queue boundaries are
    refreshed (Eq. 7) every iteration, and the divergence watchdog
    (:class:`repro.resilience.guard.DivergenceGuard`) always runs: when
    the learned controller emits a NaN/runaway delta or falls into a
    limit cycle, the run degrades to plain near-far with the last-good
    static delta instead of stalling.  Distances are exact either way.
    """

    setpoint: float
    initial_delta: float | None = None
    max_iterations: int = 0
    use_bootstrap: bool = True
    use_partitions: bool = True
    sgd_mode: str = "adaptive"

    def __post_init__(self) -> None:
        finite_positive("setpoint", self.setpoint)
        if self.initial_delta is not None:
            finite_positive("initial_delta", self.initial_delta)
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.sgd_mode not in ("adaptive", "fixed"):
            raise ValueError("sgd_mode must be 'adaptive' or 'fixed'")


def adaptive_sssp(
    graph: CSRGraph,
    source: int,
    params: AdaptiveParams,
    *,
    collect_trace: bool = True,
    deadline: float | None = None,
) -> Tuple[SSSPResult, RunTrace, SetpointController]:
    """Run the self-tuning near+far SSSP to completion.

    Returns the exact shortest-path result, the per-iteration trace
    (with controller state columns filled in), and the controller
    itself (exposing the learned ``d``/``α`` and the cumulative
    controller overhead in seconds, §5.2).  ``deadline``: see
    :meth:`~repro.core.stepwise.AdaptiveNearFarStepper.run`.
    """
    stepper = AdaptiveNearFarStepper(graph, source, params)
    trace = RunTrace(
        algorithm="adaptive-nearfar",
        graph_name=graph.name,
        source=source,
        meta={
            "setpoint": params.setpoint,
            "initial_delta": stepper.initial_delta,
            "graph_fingerprint": graph.fingerprint(),
        },
    )
    result = stepper.run(trace if collect_trace else None, deadline=deadline)
    return result, trace, stepper.controller
