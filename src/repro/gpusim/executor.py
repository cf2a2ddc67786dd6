"""Replay an SSSP trace on a simulated device.

:func:`simulate_run` walks an algorithm's
:class:`~repro.instrument.trace.RunTrace`, launches each iteration's
four stage kernels on the device model, and integrates time, energy
and power.  Per kernel:

* compute time — an affine latency + throughput model (LogP-style)::

      t_c = cycles_per_item * (items + saturation_items / 2) / (cores * f_core)

  The ``saturation_items / 2`` term is the pipeline-fill cost every
  launch pays regardless of size: an under-filled launch is almost as
  slow as a half-saturated one, which is exactly why low-parallelism
  iterations waste time and energy (the board burns static power over
  that fixed latency no matter how little work it does), and why
  merging bands into fewer, fuller iterations — what the controller
  does — buys real time.

* memory time — ``t_m = items * bytes_per_item / bandwidth(f_mem)``.

* kernel time — ``launch_overhead + max(t_c, t_m)``.

* utilisation — ``min(1, items / saturation_items)`` for the core
  domain, achieved-bandwidth fraction for the memory domain; both feed
  the :class:`~repro.gpusim.power.PowerModel`.

Self-tuning runs additionally pay the CPU-side controller overhead per
iteration (§5.2 of the paper; the measured wall-clock overhead is kept
separately in the trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.dvfs import DVFSPolicy, FixedDVFS, FrequencySetting, default_governor
from repro.gpusim.kernels import KernelSpec, iteration_kernels
from repro.gpusim.power import PowerModel
from repro.instrument.trace import RunTrace
from repro.obs import context as obs

__all__ = [
    "KernelCost",
    "IterationCost",
    "PlatformRun",
    "cost_iteration",
    "simulate_run",
]


@dataclass(frozen=True)
class KernelCost:
    """Simulated cost of one kernel launch."""

    name: str
    items: int
    seconds: float
    compute_seconds: float
    memory_seconds: float
    utilization: float
    mem_utilization: float
    power_w: float

    @property
    def energy_j(self) -> float:
        return self.power_w * self.seconds


@dataclass(frozen=True)
class IterationCost:
    """Simulated cost of one SSSP iteration (four kernels + host work)."""

    k: int
    setting: FrequencySetting
    kernels: List[KernelCost]
    controller_seconds: float
    controller_power_w: float

    @property
    def seconds(self) -> float:
        return sum(kc.seconds for kc in self.kernels) + self.controller_seconds

    @property
    def energy_j(self) -> float:
        kernel_energy = sum(kc.energy_j for kc in self.kernels)
        return kernel_energy + self.controller_power_w * self.controller_seconds

    @property
    def power_w(self) -> float:
        s = self.seconds
        return self.energy_j / s if s > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Time-weighted core utilisation (drives the DVFS governor)."""
        s = sum(kc.seconds for kc in self.kernels)
        if s <= 0:
            return 0.0
        return sum(kc.utilization * kc.seconds for kc in self.kernels) / s


@dataclass
class PlatformRun:
    """Aggregated result of replaying one trace on one device."""

    device: DeviceSpec
    policy_label: str
    algorithm: str
    graph_name: str
    iterations: List[IterationCost] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(it.seconds for it in self.iterations)

    @property
    def total_energy_j(self) -> float:
        return sum(it.energy_j for it in self.iterations)

    @property
    def average_power_w(self) -> float:
        t = self.total_seconds
        return self.total_energy_j / t if t > 0 else 0.0

    @property
    def controller_seconds(self) -> float:
        return sum(it.controller_seconds for it in self.iterations)

    @property
    def controller_overhead_fraction(self) -> float:
        t = self.total_seconds
        return self.controller_seconds / t if t > 0 else 0.0

    def power_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(iteration end times, per-iteration average power)."""
        times = np.cumsum([it.seconds for it in self.iterations])
        power = np.asarray([it.power_w for it in self.iterations])
        return times, power

    def utilization_series(self) -> np.ndarray:
        return np.asarray([it.utilization for it in self.iterations])

    def summary(self) -> dict:
        return {
            "device": self.device.name,
            "dvfs": self.policy_label,
            "algorithm": self.algorithm,
            "graph": self.graph_name,
            "iterations": len(self.iterations),
            "time_ms": round(self.total_seconds * 1e3, 3),
            "energy_j": round(self.total_energy_j, 4),
            "avg_power_w": round(self.average_power_w, 3),
        }


def _kernel_cost(
    spec: KernelSpec,
    items: int,
    device: DeviceSpec,
    power: PowerModel,
    setting: FrequencySetting,
) -> KernelCost:
    f_core_hz = setting.core_mhz * 1e6
    sat = device.saturation_items

    # affine launch cost: pipeline fill (sat/2 item-equivalents) + items
    effective_items = float(items) + 0.5 * sat
    compute_s = spec.cycles_per_item * effective_items / (device.num_cores * f_core_hz)
    bandwidth = device.mem_bandwidth(setting.mem_mhz)
    memory_s = items * spec.bytes_per_item / bandwidth if items > 0 else 0.0
    busy_s = max(compute_s, memory_s)
    seconds = device.kernel_launch_overhead_s + busy_s

    utilization = min(1.0, items / sat) if items > 0 else 0.0
    # fraction of peak bandwidth actually achieved while busy
    mem_utilization = (
        min(1.0, (items * spec.bytes_per_item) / (busy_s * bandwidth))
        if busy_s > 0 and items > 0
        else 0.0
    )
    watts = power.total(utilization, mem_utilization, setting.core_mhz, setting.mem_mhz)
    return KernelCost(
        name=spec.name,
        items=items,
        seconds=seconds,
        compute_seconds=compute_s,
        memory_seconds=memory_s,
        utilization=utilization,
        mem_utilization=mem_utilization,
        power_w=watts,
    )


def cost_iteration(
    rec,
    device: DeviceSpec,
    power: PowerModel,
    setting: FrequencySetting,
    *,
    include_controller: bool = False,
) -> IterationCost:
    """Simulated cost of one iteration record at a fixed operating point.

    The building block :func:`simulate_run` uses per record; also the
    co-simulation hook for outer loops (:mod:`repro.cosim`) that need
    iteration costs *while* the algorithm runs.
    """
    kernels = [
        _kernel_cost(spec, items, device, power, setting)
        for spec, items in iteration_kernels(rec)
    ]
    return IterationCost(
        k=rec.k,
        setting=setting,
        kernels=kernels,
        controller_seconds=device.controller_overhead_s if include_controller else 0.0,
        # during host-side control the GPU idles at static power
        controller_power_w=power.idle_power,
    )


def simulate_run(
    trace: RunTrace,
    device: DeviceSpec,
    policy: DVFSPolicy | None = None,
    *,
    include_controller: bool | None = None,
) -> PlatformRun:
    """Replay ``trace`` on ``device`` under a DVFS policy.

    Parameters
    ----------
    policy:
        A :class:`~repro.gpusim.dvfs.DVFSPolicy`; defaults to the
        device's stock :class:`~repro.gpusim.dvfs.AutoGovernor` (the
        paper's "no additional explicit control" baseline mode).
    include_controller:
        Whether to charge the per-iteration CPU controller overhead.
        Defaults to auto-detection from the trace's algorithm name
        (any ``adaptive`` algorithm pays it).
    """
    if policy is None:
        policy = default_governor(device)
    policy.reset()
    if include_controller is None:
        include_controller = "adaptive" in trace.algorithm

    power = PowerModel(device)
    run = PlatformRun(
        device=device,
        policy_label=policy.label,
        algorithm=trace.algorithm,
        graph_name=trace.graph_name,
    )
    for rec in trace:
        setting = policy.select(device)
        device.validate_setting(setting.core_mhz, setting.mem_mhz)
        it = cost_iteration(
            rec, device, power, setting, include_controller=include_controller
        )
        run.iterations.append(it)
        policy.observe(it.utilization, it.seconds)
    reg = obs.get_registry()
    if reg.enabled:
        _publish_replay(reg, run)
    return run


def _publish_replay(reg, run: PlatformRun) -> None:
    """Book a finished replay's per-stage simulated energy and time
    (the trajectory every perf PR wants to watch) and its totals, one
    increment per counter."""
    stages: dict = {}
    controller_s = controller_j = 0.0
    for it in run.iterations:
        for kc in it.kernels:
            energy_j, seconds = stages.get(kc.name, (0.0, 0.0))
            stages[kc.name] = (energy_j + kc.energy_j, seconds + kc.seconds)
        controller_s += it.controller_seconds
        controller_j += it.controller_power_w * it.controller_seconds
    for name, (energy_j, seconds) in stages.items():
        reg.counter(f"gpusim.energy_j.{name}").inc(energy_j)
        reg.counter(f"gpusim.seconds.{name}").inc(seconds)
    if controller_s:
        reg.counter("gpusim.controller_seconds").inc(controller_s)
        reg.counter("gpusim.controller_energy_j").inc(controller_j)
    reg.counter("gpusim.runs").inc()
    reg.counter("gpusim.total_energy_j").inc(run.total_energy_j)
    reg.counter("gpusim.total_seconds").inc(run.total_seconds)
