"""Power-target control: servo the set-point on measured power.

Implements the paper's future-work controller (§6 and Figure 8): the
user specifies a board power budget in watts; an outer loop measures
average power (exponentially weighted, like a PowerMon reading) while
the self-tuning SSSP runs, and multiplicatively retargets the inner
parallelism set-point:

    P ← P · (target_watts_dynamic / measured_dynamic)^gain

The *dynamic* portion (above the board's static floor) is what the
set-point can actually influence — dividing full board power would
stall against the static offset.  Figure 8 established the monotone
P→power link this loop relies on.

The inner loop is untouched: it is exactly the paper's Eq. 6
controller, consuming whatever set-point the servo last wrote.  This
two-level structure mirrors the DVFS+knob composition argued for in
the paper's Section 5.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.adaptive_sssp import AdaptiveParams
from repro.core.stepwise import AdaptiveNearFarStepper
from repro.gpusim.device import DeviceSpec
from repro.gpusim.dvfs import DVFSPolicy, default_governor
from repro.gpusim.executor import PlatformRun, cost_iteration
from repro.gpusim.power import PowerModel
from repro.graph.csr import CSRGraph
from repro.instrument.trace import RunTrace
from repro.sssp.result import SSSPResult

__all__ = [
    "PowerTargetParams",
    "PowerTargetResult",
    "PowerTargetServo",
    "power_target_sssp",
]


@dataclass(frozen=True)
class PowerTargetParams:
    """Configuration of the power-target servo.

    Parameters
    ----------
    target_watts:
        The board power budget.  Must exceed the device's static floor
        (nothing the algorithm does can get below that).
    initial_setpoint:
        Starting P before any power feedback arrives.
    gain:
        Exponent of the multiplicative correction (1.0 = proportional
        in log space; smaller = gentler).
    ema_halflife_iterations:
        Half-life of the measured-power EMA, in iterations.  Short
        half-lives chase per-iteration noise; long ones lag phase
        changes.
    adjust_period:
        Retarget every this many iterations (the servo is slower than
        the inner loop by design, like a governor).
    setpoint_min, setpoint_max:
        Clamp box for P.
    """

    target_watts: float
    initial_setpoint: float = 1000.0
    gain: float = 0.5
    ema_halflife_iterations: float = 8.0
    adjust_period: int = 4
    setpoint_min: float = 8.0
    setpoint_max: float = 1e9

    def __post_init__(self) -> None:
        if self.target_watts <= 0:
            raise ValueError("target_watts must be positive")
        if self.initial_setpoint <= 0:
            raise ValueError("initial_setpoint must be positive")
        if not 0 < self.gain <= 2:
            raise ValueError("gain must be in (0, 2]")
        if self.ema_halflife_iterations <= 0:
            raise ValueError("ema_halflife_iterations must be positive")
        if self.adjust_period < 1:
            raise ValueError("adjust_period must be >= 1")
        if not 0 < self.setpoint_min <= self.setpoint_max:
            raise ValueError("need 0 < setpoint_min <= setpoint_max")


@dataclass
class PowerTargetResult:
    """Everything a power-target run produced."""

    result: SSSPResult
    trace: RunTrace
    platform: PlatformRun
    setpoint_history: np.ndarray  # P after each iteration
    power_history: np.ndarray  # measured (EMA) watts after each iteration

    @property
    def final_setpoint(self) -> float:
        return float(self.setpoint_history[-1]) if self.setpoint_history.size else 0.0

    def steady_state_power(self, skip_fraction: float = 0.3) -> float:
        """Mean measured power after the servo's settling phase."""
        p = self.power_history
        if p.size == 0:
            return 0.0
        return float(p[int(p.size * skip_fraction) :].mean())


class PowerTargetServo:
    """Outer loop: measured watts in, parallelism set-point out."""

    def __init__(self, params: PowerTargetParams, device: DeviceSpec):
        if params.target_watts <= device.static_power_w:
            raise ValueError(
                f"target {params.target_watts} W is at or below the board's "
                f"static floor ({device.static_power_w} W); unreachable"
            )
        self.params = params
        self.device = device
        self.setpoint = params.initial_setpoint
        self._ema: float | None = None
        self._decay = 0.5 ** (1.0 / params.ema_halflife_iterations)
        self._since_adjust = 0

    @property
    def measured_watts(self) -> float:
        return self._ema if self._ema is not None else 0.0

    def observe(self, watts: float) -> float:
        """Feed one iteration's average power; returns the new set-point."""
        if watts < 0:
            raise ValueError("watts must be non-negative")
        if self._ema is None:
            self._ema = watts
        else:
            self._ema = self._decay * self._ema + (1.0 - self._decay) * watts
        self._since_adjust += 1
        if self._since_adjust >= self.params.adjust_period:
            self._since_adjust = 0
            self._retarget()
        return self.setpoint

    def _retarget(self) -> None:
        static = self.device.static_power_w
        measured_dyn = max(self.measured_watts - static, 1e-3)
        target_dyn = max(self.params.target_watts - static, 1e-3)
        ratio = target_dyn / measured_dyn
        p = self.setpoint * (ratio ** self.params.gain)
        self.setpoint = float(
            min(max(p, self.params.setpoint_min), self.params.setpoint_max)
        )


def power_target_sssp(
    graph: CSRGraph,
    source: int,
    device: DeviceSpec,
    params: PowerTargetParams,
    *,
    policy: DVFSPolicy | None = None,
    adaptive: AdaptiveParams | None = None,
    max_iterations: int = 0,
) -> PowerTargetResult:
    """Run SSSP under a watt budget on a simulated device.

    The algorithm and the platform advance in lock-step: each SSSP
    iteration is costed on the device at the governor's current
    operating point, the resulting power reading feeds the servo, and
    the servo's set-point steers the next iteration's delta controller.
    """
    if policy is None:
        policy = default_governor(device)
    policy.reset()
    if adaptive is None:
        adaptive = AdaptiveParams(setpoint=params.initial_setpoint)

    servo = PowerTargetServo(params, device)
    stepper = AdaptiveNearFarStepper(graph, source, adaptive)
    stepper.setpoint = servo.setpoint
    power = PowerModel(device)

    trace = RunTrace(
        algorithm="adaptive-nearfar-powertarget",
        graph_name=graph.name,
        source=source,
    )
    platform = PlatformRun(
        device=device,
        policy_label=policy.label,
        algorithm=trace.algorithm,
        graph_name=graph.name,
    )
    setpoints: List[float] = []
    watts_history: List[float] = []

    while not stepper.done:
        record = stepper.step()
        assert record is not None
        trace.append(record)

        setting = policy.select(device)
        cost = cost_iteration(
            record, device, power, setting, include_controller=True
        )
        platform.iterations.append(cost)
        policy.observe(cost.utilization, cost.seconds)

        stepper.setpoint = servo.observe(cost.power_w)
        setpoints.append(stepper.setpoint)
        watts_history.append(servo.measured_watts)

        if max_iterations and stepper.iterations >= max_iterations:
            break

    return PowerTargetResult(
        result=stepper.finish(),
        trace=trace,
        platform=platform,
        setpoint_history=np.asarray(setpoints),
        power_history=np.asarray(watts_history),
    )
