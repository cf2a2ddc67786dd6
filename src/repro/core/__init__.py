"""The paper's contribution: a self-tuning near+far SSSP.

* :mod:`~repro.core.sgd` — Algorithm 1: stochastic gradient descent
  with the adaptive learning rate of Schaul et al. ("No More Pesky
  Learning Rates"), plus the fixed-rate ablation optimiser.
* :mod:`~repro.core.advance_model` — ADVANCE-MODEL: learns ``d`` in
  ``X̂^(2) = d · X^(1)`` (the frontier's effective average degree).
* :mod:`~repro.core.bisect_model` — BISECT-MODEL: learns ``α`` in
  ``X̂_{k+1}^(1) = X_k^(4) + α · Δδ_k``.
* :mod:`~repro.core.partitions` — the recursively partitioned far
  queue with Eq. 7 boundary updates (monotonic shifts); the flat-queue
  ablation is the same queue with one partition, never refreshed.
* :mod:`~repro.core.controller` — the set-point controller: Eq. 6
  delta update with the Eq. 8 bootstrap.
* :mod:`~repro.core.adaptive_sssp` — run configuration and the
  one-call self-tuning near+far SSSP entry point.
* :mod:`~repro.core.stepwise` — iteration-stepped execution for outer
  control loops (e.g. the power-target servo in :mod:`repro.cosim`).
* :mod:`~repro.core.setpoint` — hardware-derived set-point menus.

A caller sets the paper's knobs (:class:`AdaptiveParams`); every other
tuning value is a constant of the module that reads it.
"""

from repro.core.adaptive_sssp import AdaptiveParams, adaptive_sssp
from repro.core.advance_model import AdvanceModel
from repro.core.bisect_model import BisectModel
from repro.core.controller import SetpointController
from repro.core.partitions import FarQueuePartitions
from repro.core.setpoint import setpoint_menu, setpoint_for_utilization
from repro.core.sgd import AdaptiveSGD, FixedRateSGD
from repro.core.stepwise import AdaptiveNearFarStepper

__all__ = [
    "AdaptiveNearFarStepper",
    "AdaptiveParams",
    "AdaptiveSGD",
    "AdvanceModel",
    "BisectModel",
    "FarQueuePartitions",
    "FixedRateSGD",
    "SetpointController",
    "adaptive_sssp",
    "setpoint_for_utilization",
    "setpoint_menu",
]
