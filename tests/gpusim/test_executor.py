"""Unit tests for the platform executor (trace replay)."""

import numpy as np
import pytest

from repro.gpusim.device import JETSON_TK1, JETSON_TX1
from repro.gpusim.dvfs import AutoGovernor, FixedDVFS
from repro.gpusim.executor import simulate_run
from repro.instrument.trace import IterationRecord, RunTrace


def _trace(parallelisms, algorithm="nearfar") -> RunTrace:
    trace = RunTrace(algorithm=algorithm, graph_name="synthetic", source=0)
    for k, p in enumerate(parallelisms):
        trace.append(
            IterationRecord(
                k=k,
                x1=max(1, p // 8),
                x2=p,
                x3=max(0, p // 2),
                x4=max(0, p // 3),
                delta=1.0,
                split=float(k + 1),
                far_size=100,
            )
        )
    return trace


MAXPERF = FixedDVFS.max_performance(JETSON_TK1)


class TestBasics:
    def test_empty_trace(self):
        run = simulate_run(_trace([]), JETSON_TK1, MAXPERF)
        assert run.total_seconds == 0.0
        assert run.total_energy_j == 0.0
        assert run.average_power_w == 0.0

    def test_iterations_counted(self):
        run = simulate_run(_trace([100, 200, 300]), JETSON_TK1, MAXPERF)
        assert len(run.iterations) == 3
        assert all(len(it.kernels) == 4 for it in run.iterations)

    def test_time_energy_positive(self):
        run = simulate_run(_trace([1000]), JETSON_TK1, MAXPERF)
        assert run.total_seconds > 0
        assert run.total_energy_j > 0
        assert (
            JETSON_TK1.static_power_w
            <= run.average_power_w
            <= JETSON_TK1.static_power_w
            + JETSON_TK1.max_core_dynamic_w
            + JETSON_TK1.max_mem_dynamic_w
        )

    def test_summary_keys(self):
        run = simulate_run(_trace([50]), JETSON_TK1, MAXPERF)
        s = run.summary()
        for key in ("device", "dvfs", "time_ms", "energy_j", "avg_power_w"):
            assert key in s


class TestCostModelShape:
    def test_more_work_takes_longer(self):
        short = simulate_run(_trace([100] * 10), JETSON_TK1, MAXPERF)
        long = simulate_run(_trace([100_000] * 10), JETSON_TK1, MAXPERF)
        assert long.total_seconds > short.total_seconds

    def test_more_iterations_cost_launch_overhead(self):
        few = simulate_run(_trace([10_000]), JETSON_TK1, MAXPERF)
        many = simulate_run(_trace([100] * 100), JETSON_TK1, MAXPERF)
        # same total edges, but 100x launch+fill overhead
        assert many.total_seconds > few.total_seconds

    def test_low_frequency_slower_and_cheaper_power(self):
        fast = simulate_run(_trace([5000] * 20), JETSON_TK1, MAXPERF)
        slow = simulate_run(
            _trace([5000] * 20), JETSON_TK1, FixedDVFS(JETSON_TK1, 252, 396)
        )
        assert slow.total_seconds > fast.total_seconds
        assert slow.average_power_w < fast.average_power_w

    def test_utilization_saturates(self):
        run = simulate_run(_trace([10_000_000]), JETSON_TK1, MAXPERF)
        assert run.iterations[0].utilization == pytest.approx(1.0, abs=0.05)

    def test_small_kernels_low_utilization(self):
        run = simulate_run(_trace([4] * 5), JETSON_TK1, MAXPERF)
        assert run.iterations[0].utilization < 0.2

    def test_high_parallelism_higher_power(self):
        low = simulate_run(_trace([100] * 20), JETSON_TK1, MAXPERF)
        high = simulate_run(_trace([50_000] * 20), JETSON_TK1, MAXPERF)
        assert high.average_power_w > low.average_power_w

    def test_memory_frequency_matters_for_big_kernels(self):
        fast_mem = simulate_run(
            _trace([200_000] * 5), JETSON_TK1, FixedDVFS(JETSON_TK1, 852, 924)
        )
        slow_mem = simulate_run(
            _trace([200_000] * 5), JETSON_TK1, FixedDVFS(JETSON_TK1, 852, 204)
        )
        assert slow_mem.total_seconds > fast_mem.total_seconds


class TestControllerOverhead:
    def test_adaptive_traces_pay_controller(self):
        base = simulate_run(_trace([100] * 10, "nearfar"), JETSON_TK1, MAXPERF)
        tuned = simulate_run(
            _trace([100] * 10, "adaptive-nearfar"), JETSON_TK1, MAXPERF
        )
        assert base.controller_seconds == 0.0
        assert tuned.controller_seconds == pytest.approx(
            10 * JETSON_TK1.controller_overhead_s
        )
        assert 0 < tuned.controller_overhead_fraction < 1

    def test_override_flag(self):
        run = simulate_run(
            _trace([100] * 10, "nearfar"),
            JETSON_TK1,
            MAXPERF,
            include_controller=True,
        )
        assert run.controller_seconds > 0


class TestRegistryBooking:
    def test_counters_booked_once_with_per_record_totals(self):
        from repro import obs

        class CountingRegistry(obs.MetricsRegistry):
            lookups = 0

            def counter(self, name, labels=None):
                CountingRegistry.lookups += 1
                return super().counter(name, labels)

        lookups = []
        for length in (1, 40):
            reg = CountingRegistry()
            CountingRegistry.lookups = 0
            with obs.use(registry=reg):
                run = simulate_run(_trace([300] * length, "adaptive-nearfar"), JETSON_TK1)
            lookups.append(CountingRegistry.lookups)
        assert lookups[0] == lookups[1]  # once per counter, not per record
        snap = reg.snapshot()
        for kc in run.iterations[0].kernels:
            assert snap[f"gpusim.energy_j.{kc.name}"]["value"] == pytest.approx(
                sum(k.energy_j for it in run.iterations for k in it.kernels if k.name == kc.name)
            )
            assert snap[f"gpusim.seconds.{kc.name}"]["value"] == pytest.approx(
                sum(k.seconds for it in run.iterations for k in it.kernels if k.name == kc.name)
            )
        assert snap["gpusim.controller_seconds"]["value"] == pytest.approx(
            run.controller_seconds
        )
        assert snap["gpusim.controller_energy_j"]["value"] == pytest.approx(
            sum(it.controller_power_w * it.controller_seconds for it in run.iterations)
        )
        assert snap["gpusim.runs"]["value"] == 1


class TestGovernorIntegration:
    def test_default_policy_is_auto(self):
        run = simulate_run(_trace([100] * 5), JETSON_TK1)
        assert run.policy_label == "auto"

    def test_governor_raises_clock_under_sustained_load(self):
        gov = AutoGovernor(period_s=1e-6)  # decide every iteration
        run = simulate_run(_trace([1_000_000] * 30), JETSON_TK1, gov)
        freqs = [it.setting.core_mhz for it in run.iterations]
        assert freqs[-1] == JETSON_TK1.max_core_mhz

    def test_power_series_shapes(self):
        run = simulate_run(_trace([100, 5000, 100]), JETSON_TK1, MAXPERF)
        times, power = run.power_series()
        assert times.shape == power.shape == (3,)
        assert np.all(np.diff(times) > 0)
        assert power[1] > power[0]

    def test_tx1_faster_than_tk1(self):
        t = _trace([50_000] * 10)
        tk1 = simulate_run(t, JETSON_TK1, FixedDVFS.max_performance(JETSON_TK1))
        tx1 = simulate_run(t, JETSON_TX1, FixedDVFS.max_performance(JETSON_TX1))
        assert tx1.total_seconds < tk1.total_seconds
