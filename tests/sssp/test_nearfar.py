"""Unit tests for the baseline near+far algorithm and its trace."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import path_graph, star_graph
from repro.sssp.dijkstra import dijkstra
from repro.sssp.nearfar import nearfar_sssp, suggest_delta
from repro.sssp.result import assert_distances_close


class TestCorrectness:
    @pytest.mark.parametrize("delta_mult", [0.1, 0.5, 1.0, 4.0, 100.0])
    def test_exact_for_any_delta_grid(self, small_grid, delta_mult):
        delta = suggest_delta(small_grid) * delta_mult
        result, _ = nearfar_sssp(small_grid, 0, delta=delta)
        assert_distances_close(dijkstra(small_grid, 0), result)

    @pytest.mark.parametrize("delta_mult", [0.25, 1.0, 16.0])
    def test_exact_for_any_delta_rmat(self, small_rmat, delta_mult):
        delta = suggest_delta(small_rmat) * delta_mult
        result, _ = nearfar_sssp(small_rmat, 0, delta=delta)
        assert_distances_close(dijkstra(small_rmat, 0), result)

    def test_random_batch(self, random_graphs):
        for g in random_graphs:
            result, _ = nearfar_sssp(g, 0)
            assert_distances_close(dijkstra(g, 0), result)

    def test_multiple_sources(self, small_grid):
        for src in (0, 17, 63):
            result, _ = nearfar_sssp(small_grid, src)
            assert_distances_close(dijkstra(small_grid, src), result)

    def test_disconnected(self, disconnected):
        result, _ = nearfar_sssp(disconnected, 0, delta=1.0)
        assert np.isinf(result.dist[2:]).all()

    def test_zero_weight_edges(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [0.0, 1.0, 0.0])
        result, _ = nearfar_sssp(g, 0, delta=0.5)
        assert list(result.dist) == [0.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("delta_mult", [1e-15, 1e-17])
    def test_exact_for_delta_below_distance_spacing(self, small_grid, delta_mult):
        """``dmin + delta == dmin``: the drain still pulls the ``dmin`` band."""
        delta = suggest_delta(small_grid) * delta_mult
        for src in (0, 63):
            result, _ = nearfar_sssp(small_grid, src, delta=delta)
            assert np.array_equal(result.dist, dijkstra(small_grid, src).dist)

    def test_tiny_delta_under_huge_weights_keeps_drains_finite(self):
        g = path_graph(4, weight=1e300)
        result, trace = nearfar_sssp(g, 0, delta=1e-300)
        assert list(result.dist) == [0.0, 1e300, 2e300, 3e300]
        drains = trace.column("drains")
        assert drains.max() > 0 and np.isfinite(drains).all()


class TestTrace:
    def test_counters_shape(self, small_grid):
        _, trace = nearfar_sssp(small_grid, 0)
        assert trace.num_iterations > 0
        for rec in trace:
            assert rec.x1 >= 1  # an iteration only runs on a non-empty frontier
            assert rec.x3 <= rec.x2  # filter only removes
            assert rec.x4 <= rec.x3  # bisect only removes from the frontier
            assert rec.delta > 0

    def test_first_iteration_single_source(self, small_grid):
        _, trace = nearfar_sssp(small_grid, 0)
        assert trace.records[0].x1 == 1

    def test_x2_is_edge_expansion(self, small_rmat):
        result, trace = nearfar_sssp(small_rmat, 0)
        assert trace.total_edges_expanded == result.relaxations

    def test_collect_trace_false(self, small_grid):
        result, trace = nearfar_sssp(small_grid, 0, collect_trace=False)
        assert trace.num_iterations == 0
        assert result.iterations > 0

    def test_static_delta_in_every_record(self, small_grid):
        delta = 3.21
        _, trace = nearfar_sssp(small_grid, 0, delta=delta)
        assert np.all(trace.deltas == delta)

    def test_parallelism_properties(self, small_rmat):
        hub = int(np.argmax(np.diff(small_rmat.indptr)))
        _, trace = nearfar_sssp(small_rmat, hub)
        assert trace.average_parallelism > 0
        assert trace.parallelism_cv >= 0

    def test_far_queue_drains_recorded(self):
        # a long path with delta 1 forces a drain in nearly every iteration
        g = path_graph(20, weight=1.0)
        _, trace = nearfar_sssp(g, 0, delta=0.9)
        assert trace.column("drains").sum() > 0


class TestParams:
    def test_bad_delta(self, small_grid):
        with pytest.raises(ValueError):
            nearfar_sssp(small_grid, 0, delta=0.0)
        with pytest.raises(ValueError):
            nearfar_sssp(small_grid, 0, -1.0)

    def test_nan_delta_rejected(self, small_grid):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            nearfar_sssp(small_grid, 0, delta=float("nan"))

    def test_bad_max_iterations(self, small_grid):
        with pytest.raises(ValueError):
            nearfar_sssp(small_grid, 0, delta=1.0, max_iterations=-1)

    def test_max_iterations_cap(self, small_grid):
        result, trace = nearfar_sssp(small_grid, 0, delta=0.1, max_iterations=3)
        assert result.iterations == 3

    def test_max_iterations_is_keyword_only(self, small_grid):
        with pytest.raises(TypeError):
            nearfar_sssp(small_grid, 0, 0.1, 3)

    def test_bad_source(self, small_grid):
        with pytest.raises(ValueError, match="out of range"):
            nearfar_sssp(small_grid, 1000)

    def test_negative_weights_rejected(self):
        g = CSRGraph.from_edges(2, [0], [1], [-1.0])
        with pytest.raises(ValueError, match="non-negative"):
            nearfar_sssp(g, 0)

    def test_suggest_delta_positive(self, small_grid):
        assert suggest_delta(small_grid) > 0
        assert suggest_delta(CSRGraph.empty(3)) > 0


class TestDeltaEffects:
    def test_larger_delta_fewer_iterations(self, small_grid):
        base = suggest_delta(small_grid)
        small_d, _ = nearfar_sssp(small_grid, 0, delta=base * 0.25)
        large_d, _ = nearfar_sssp(small_grid, 0, delta=base * 16)
        assert large_d.iterations < small_d.iterations

    def test_larger_delta_more_parallelism(self, small_grid):
        base = suggest_delta(small_grid)
        _, t_small = nearfar_sssp(small_grid, 0, delta=base * 0.25)
        _, t_large = nearfar_sssp(small_grid, 0, delta=base * 16)
        assert t_large.average_parallelism > t_small.average_parallelism

    def test_huge_delta_no_far_queue(self, small_grid):
        _, trace = nearfar_sssp(small_grid, 0, delta=1e12)
        assert np.all(trace.column("far_size") == 0)

    def test_star_one_advance(self):
        g = star_graph(50)
        result, trace = nearfar_sssp(g, 0, delta=10.0)
        assert trace.records[0].x2 == 49
