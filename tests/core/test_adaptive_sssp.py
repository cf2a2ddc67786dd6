"""Unit and behavioural tests for the self-tuning near+far SSSP."""

import dataclasses

import numpy as np
import pytest

from repro.core import AdaptiveParams, adaptive_sssp
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, path_graph, star_graph
from repro.sssp.dijkstra import dijkstra
from repro.sssp.nearfar import nearfar_sssp
from repro.sssp.result import assert_distances_close


def _run(graph, source=0, setpoint=500.0, collect_trace=True, **kw):
    return adaptive_sssp(
        graph,
        source,
        AdaptiveParams(setpoint=setpoint, **kw),
        collect_trace=collect_trace,
    )


class TestCorrectness:
    @pytest.mark.parametrize("setpoint", [1.0, 10.0, 500.0, 1e7])
    def test_exact_for_any_setpoint(self, small_grid, setpoint):
        result, _, _ = _run(small_grid, setpoint=setpoint)
        assert_distances_close(dijkstra(small_grid, 0), result)

    @pytest.mark.parametrize("initial_delta", [1e-6, 0.1, 1.0, 1e6])
    def test_exact_for_any_initial_delta(self, small_rmat, initial_delta):
        result, _, _ = _run(small_rmat, setpoint=100.0, initial_delta=initial_delta)
        assert_distances_close(dijkstra(small_rmat, 0), result)

    def test_random_batch(self, random_graphs):
        for g in random_graphs:
            result, _, _ = _run(g)
            assert_distances_close(dijkstra(g, 0), result)

    def test_path_graph(self):
        g = path_graph(50)
        result, _, _ = _run(g, setpoint=10.0)
        assert list(result.dist) == list(range(50))

    def test_star_graph(self):
        g = star_graph(100)
        result, _, _ = _run(g, setpoint=10.0)
        assert result.dist[0] == 0
        assert np.all(result.dist[1:] == 1.0)

    def test_disconnected(self, disconnected):
        result, _, _ = _run(disconnected)
        assert np.isinf(result.dist[2:]).all()

    def test_zero_weight_edges(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [0.0, 1.0, 0.0])
        result, _, _ = _run(g)
        assert list(result.dist) == [0.0, 0.0, 1.0, 1.0]

    def test_matches_baseline_nearfar(self, small_grid):
        base, _ = nearfar_sssp(small_grid, 0)
        tuned, _, _ = _run(small_grid)
        assert_distances_close(base, tuned)


class TestControlBehaviour:
    def test_tracks_setpoint_on_road_network(self):
        g = grid_road_network(60, 60, seed=2)
        setpoint = 400.0
        _, trace, _ = _run(g, setpoint=setpoint)
        steady = trace.parallelism[len(trace.records) // 5 :]
        median = float(np.median(steady))
        assert 0.5 * setpoint <= median <= 1.5 * setpoint

    def test_higher_setpoint_higher_parallelism(self):
        g = grid_road_network(50, 50, seed=3)
        _, t_low, _ = _run(g, setpoint=100.0)
        _, t_high, _ = _run(g, setpoint=800.0)
        assert t_high.average_parallelism > 1.5 * t_low.average_parallelism

    def test_reduces_variability_vs_baseline(self):
        g = grid_road_network(60, 60, seed=4)
        _, base_trace = nearfar_sssp(g, 0)
        _, tuned_trace, _ = _run(g, setpoint=400.0)
        skip_b = max(1, len(base_trace.records) // 5)
        skip_t = max(1, len(tuned_trace.records) // 5)
        cv_base = float(np.std(base_trace.parallelism[skip_b:])) / max(
            1.0, float(np.mean(base_trace.parallelism[skip_b:]))
        )
        cv_tuned = float(np.std(tuned_trace.parallelism[skip_t:])) / max(
            1.0, float(np.mean(tuned_trace.parallelism[skip_t:]))
        )
        assert cv_tuned < cv_base

    def test_delta_varies_over_run(self, small_grid):
        _, trace, _ = _run(small_grid, setpoint=200.0)
        assert np.unique(trace.deltas).size > 1

    def test_rebalancer_moves_vertices(self):
        g = grid_road_network(40, 40, seed=5)
        _, trace, _ = _run(g, setpoint=300.0)
        moved = trace.column("moved_from_far").sum() + trace.column("moved_to_far").sum()
        assert moved > 0

    def test_controller_learns_degree(self):
        g = grid_road_network(40, 40, seed=6)
        _, _, ctrl = _run(g, setpoint=300.0)
        # road grid: out-degree ~2-5 per direction
        assert 1.0 < ctrl.d < 8.0

    def test_controller_overhead_measured(self, small_grid):
        result, trace, ctrl = _run(small_grid)
        assert ctrl.seconds > 0
        assert result.extra["controller_seconds"] == pytest.approx(ctrl.seconds)
        assert trace.controller_seconds <= ctrl.seconds + 1e-6


class TestTraceContents:
    def test_controller_columns_populated(self, small_grid):
        _, trace, _ = _run(small_grid)
        assert np.all(np.isfinite(trace.column("d_estimate")))
        assert np.all(np.isfinite(trace.column("alpha_estimate")))

    def test_extras_recorded(self, small_grid):
        result, _, ctrl = _run(small_grid, setpoint=123.0)
        assert result.extra["setpoint"] == 123.0
        assert result.extra["final_delta"] == ctrl.delta
        assert result.algorithm == "adaptive-nearfar"

    def test_collect_trace_false(self, small_grid):
        result, trace, _ = _run(small_grid, collect_trace=False)
        assert trace.num_iterations == 0
        assert result.iterations > 0


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(setpoint=0.0),
            dict(setpoint=1.0, initial_delta=0.0),
            dict(setpoint=1.0, sgd_mode="newton"),
            dict(setpoint=1.0, max_iterations=-1),
        ],
    )
    def test_rejected(self, kw):
        with pytest.raises(ValueError):
            AdaptiveParams(**kw)

    def test_bad_source(self, small_grid):
        with pytest.raises(ValueError, match="out of range"):
            adaptive_sssp(small_grid, -2, AdaptiveParams(setpoint=10.0))

    def test_negative_weights_rejected(self):
        g = CSRGraph.from_edges(2, [0], [1], [-1.0])
        with pytest.raises(ValueError):
            adaptive_sssp(g, 0, AdaptiveParams(setpoint=10.0))

    def test_max_iterations_cap(self, small_grid):
        result, _, _ = _run(small_grid, setpoint=10.0, max_iterations=2)
        assert result.iterations == 2

    def test_fields_are_the_papers_knobs(self):
        """P, the start, a test valve and the three ablation switches."""
        names = [f.name for f in dataclasses.fields(AdaptiveParams)]
        assert names == [
            "setpoint", "initial_delta", "max_iterations",
            "use_bootstrap", "use_partitions", "sgd_mode",
        ]
