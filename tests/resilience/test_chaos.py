"""The acceptance drill: a run whose controller diverges.

A run whose controller is forced to diverge (NaN deltas, or violent
oscillation) completes through the static-delta fallback with
distances identical to plain near-far.
"""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.core import AdaptiveParams
from repro.core.stepwise import AdaptiveNearFarStepper
from repro.graph.generators import grid_road_network
from repro.resilience import DivergentController
from repro.sssp.dijkstra import dijkstra
from repro.sssp.nearfar import nearfar_sssp
from repro.sssp.result import assert_distances_close


@pytest.fixture(scope="module")
def graph():
    return grid_road_network(12, 12, seed=3)


class TestDivergentControllerRun:
    def test_nan_controller_falls_back_and_stays_exact(self, graph):
        registry = obs.MetricsRegistry()
        sink = obs.ListSink()
        with obs.use(registry=registry, events=sink):
            stepper = AdaptiveNearFarStepper(
                graph, 0, AdaptiveParams(setpoint=300.0)
            )
            stepper.controller = DivergentController(stepper.controller, after=3)
            result = stepper.run()

        assert result.extra["controller_fallback"] is True
        assert "non-finite" in result.extra["fallback_reason"]
        assert np.isfinite(result.extra["final_delta"])

        # distances identical to plain near-far (both are exact)
        reference, _ = nearfar_sssp(graph, 0)
        assert_distances_close(result, reference)
        assert_distances_close(result, dijkstra(graph, 0))

        assert registry.counter("controller.fallbacks").value == 1
        events = sink.of_type("controller_fallback")
        assert len(events) == 1
        assert events[0]["fallback_delta"] == result.extra["final_delta"]

    def test_oscillating_controller_trips_the_window_rule(self, graph):
        stepper = AdaptiveNearFarStepper(graph, 0, AdaptiveParams(setpoint=300.0))
        # swings violent enough for the window rule (mean |Δδ| > 1.5 ×
        # mean δ) but small enough that the run lasts past the window
        stepper.controller = DivergentController(
            stepper.controller,
            after=0,
            schedule=itertools.cycle([stepper.initial_delta * 0.2,
                                      stepper.initial_delta * 2.0]),
        )
        result = stepper.run()
        assert result.extra["controller_fallback"] is True
        assert result.extra["fallback_reason"].startswith("oscillating delta")
        assert_distances_close(result, dijkstra(graph, 0))

    def test_guard_watches_every_run(self, graph):
        stepper = AdaptiveNearFarStepper(graph, 0, AdaptiveParams(setpoint=300.0))
        assert stepper.guard.config.window == 8
        # a healthy controller is never benched
        result = stepper.run()
        assert result.extra["controller_fallback"] is False
        assert_distances_close(result, dijkstra(graph, 0))
