"""Tests for the active observability context and the hot-path wiring."""

import numpy as np
import pytest

from repro import obs
from repro.core import AdaptiveParams, adaptive_sssp
from repro.gpusim.device import JETSON_TK1
from repro.gpusim.executor import simulate_run
from repro.sssp.nearfar import nearfar_sssp


class TestContext:
    def test_default_is_null(self):
        ctx = obs.current()
        assert not ctx.enabled
        assert not ctx.registry.enabled
        assert not ctx.events.enabled

    def test_use_swaps_and_restores(self):
        reg = obs.MetricsRegistry()
        with obs.use(registry=reg) as ctx:
            assert obs.current() is ctx
            assert obs.get_registry() is reg
            assert ctx.enabled
        assert not obs.current().enabled

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.use(registry=obs.MetricsRegistry()):
                raise RuntimeError("boom")
        assert not obs.current().enabled

    def test_nested_use(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        with obs.use(registry=a):
            with obs.use(registry=b):
                assert obs.get_registry() is b
            assert obs.get_registry() is a

    def test_omitted_channels_stay_null(self):
        with obs.use(registry=obs.MetricsRegistry()) as ctx:
            assert not ctx.events.enabled
            assert not ctx.spans.enabled


class TestNearfarWiring:
    def test_metrics_published(self, small_grid):
        reg = obs.MetricsRegistry()
        with obs.use(registry=reg):
            result, trace = nearfar_sssp(small_grid, 0)
        snap = reg.snapshot()
        assert snap["sssp.iterations"]["value"] == result.iterations
        assert snap["sssp.relaxations"]["value"] == result.relaxations
        assert snap["sssp.parallelism"]["count"] == len(trace)
        assert snap["sssp.parallelism"]["sum"] == trace.total_edges_expanded

    def test_events_streamed(self, small_grid):
        sink = obs.ListSink()
        with obs.use(events=sink):
            result, trace = nearfar_sssp(small_grid, 0)
        assert [e["type"] for e in sink.events] == [
            "run_start", "iterations", "run_end"
        ]
        starts = sink.of_type("run_start")
        assert starts[0]["v"] == obs.EVENT_SCHEMA_VERSION
        assert starts[0]["algorithm"] == "nearfar"
        columns = sink.of_type("iterations")[0]
        for name in ("x1", "x2", "x3", "x4", "delta", "far_size"):
            assert len(columns[name]) == result.iterations
            assert columns[name] == trace.column(name).tolist()
        assert columns["x1"][0] == 1  # k = 0 advances the source alone
        assert sink.of_type("run_end")[0]["reached"] == result.num_reached

    def test_disabled_run_publishes_nothing(self, small_grid):
        reg = obs.MetricsRegistry()
        nearfar_sssp(small_grid, 0)  # no context active
        assert reg.snapshot() == {}


class TestAdaptiveWiring:
    def test_metrics_and_controller_timers(self, small_grid):
        reg = obs.MetricsRegistry()
        with obs.use(registry=reg):
            result, trace, controller = adaptive_sssp(
                small_grid, 0, AdaptiveParams(setpoint=200.0)
            )
        snap = reg.snapshot()
        assert snap["sssp.iterations"]["value"] == result.iterations
        assert snap["controller.decisions"]["value"] == controller.decisions
        assert snap["controller.plan_seconds"]["count"] == controller.decisions
        # the far queue published its traffic
        assert snap["farq.inserted"]["value"] >= 0
        assert snap["farq.refreshes"]["value"] > 0

    def test_iteration_events_carry_controller_estimates(self, small_grid):
        sink = obs.ListSink()
        with obs.use(events=sink):
            _, trace, _ = adaptive_sssp(
                small_grid, 0, AdaptiveParams(setpoint=200.0)
            )
        (columns,) = sink.of_type("iterations")
        for name in ("delta", "d_estimate", "alpha_estimate"):
            assert len(columns[name]) == len(trace)
            assert np.array_equal(
                columns[name], trace.column(name), equal_nan=True
            )
        assert columns["delta"][-1] == trace.records[-1].delta

    def test_trace_meta_records_setpoint(self, small_grid):
        _, trace, _ = adaptive_sssp(small_grid, 0, AdaptiveParams(setpoint=200.0))
        assert trace.meta["setpoint"] == 200.0
        assert trace.meta["initial_delta"] > 0

    def test_controller_seconds_from_spans(self, small_grid):
        _, _, controller = adaptive_sssp(
            small_grid, 0, AdaptiveParams(setpoint=200.0)
        )
        assert controller.seconds > 0
        paths = {s.path for s in controller.spans.profile()}
        assert "plan" in paths
        assert controller.seconds == pytest.approx(
            controller.spans.total_seconds
        )


class TestGpusimWiring:
    def test_simulated_energy_metrics(self, small_grid):
        _, trace = nearfar_sssp(small_grid, 0)
        reg = obs.MetricsRegistry()
        with obs.use(registry=reg):
            run = simulate_run(trace, JETSON_TK1)
        snap = reg.snapshot()
        assert snap["gpusim.runs"]["value"] == 1
        assert snap["gpusim.total_energy_j"]["value"] == pytest.approx(
            run.total_energy_j
        )
        per_stage = sum(
            v["value"]
            for k, v in snap.items()
            if k.startswith("gpusim.energy_j.")
        )
        assert per_stage == pytest.approx(run.total_energy_j)

    def test_results_identical_with_and_without_registry(self, small_grid):
        """Observability must never change what is computed."""
        _, trace = nearfar_sssp(small_grid, 0)
        a = simulate_run(trace, JETSON_TK1)
        with obs.use(registry=obs.MetricsRegistry()):
            b = simulate_run(trace, JETSON_TK1)
        assert a.total_seconds == pytest.approx(b.total_seconds)
        assert a.total_energy_j == pytest.approx(b.total_energy_j)

    def test_distances_identical_under_observation(self, small_grid):
        baseline, _ = nearfar_sssp(small_grid, 0)
        with obs.use(
            registry=obs.MetricsRegistry(), events=obs.ListSink()
        ):
            observed, _ = nearfar_sssp(small_grid, 0)
        assert np.array_equal(baseline.dist, observed.dist)
