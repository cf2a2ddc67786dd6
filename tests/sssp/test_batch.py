"""Unit tests for multi-source batches."""

import numpy as np
import pytest

from repro.core import AdaptiveParams, adaptive_sssp
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, star_graph
from repro.sssp.batch import (
    BatchRun,
    batch_run,
    pooled_parallelism,
    sample_sources,
)
from repro.sssp.batch_kernels import batched_nearfar_sssp
from repro.sssp.dijkstra import dijkstra
from repro.sssp.nearfar import nearfar_sssp
from repro.sssp.result import assert_distances_close


def _nearfar_runner(graph, source):
    """The baseline near+far run at the default delta."""
    return nearfar_sssp(graph, source)


class TestSampleSources:
    def test_count_and_uniqueness(self, small_grid):
        src = sample_sources(small_grid, 10, seed=1)
        assert src.size == 10
        assert np.unique(src).size == 10

    def test_deterministic(self, small_grid):
        a = sample_sources(small_grid, 5, seed=2)
        b = sample_sources(small_grid, 5, seed=2)
        assert np.array_equal(a, b)

    def test_degree_filter(self):
        g = star_graph(10)  # only vertex 0 has out-edges
        src = sample_sources(g, 1, min_out_degree=1)
        assert list(src) == [0]

    def test_insufficient_candidates(self):
        g = star_graph(10)
        with pytest.raises(ValueError, match="cannot sample"):
            sample_sources(g, 2, min_out_degree=1)

    def test_rejects_zero_count(self, small_grid):
        with pytest.raises(ValueError):
            sample_sources(small_grid, 0)

    def test_empty_graph_reports_no_candidates(self):
        with pytest.raises(ValueError, match="nothing to sample"):
            sample_sources(CSRGraph.empty(0, name="void"), 1)

    def test_edgeless_graph_reports_no_candidates(self):
        """Vertices exist but none has out-degree >= 1."""
        with pytest.raises(ValueError, match="no vertices with out-degree"):
            sample_sources(CSRGraph.empty(5), 1)

    def test_count_above_candidates_still_clear(self, small_grid):
        total = small_grid.num_nodes
        with pytest.raises(ValueError, match="cannot sample"):
            sample_sources(small_grid, total + 1)


class TestBatchRun:
    @pytest.fixture(scope="class")
    def grid(self):
        return grid_road_network(20, 20, seed=3)

    def test_baseline_batch(self, grid):
        sources = sample_sources(grid, 4, seed=0)
        batch = batch_run(
            grid, sources, lambda g, s: nearfar_sssp(g, s), label="nearfar"
        )
        assert batch.count == 4
        assert batch.iterations().min() > 0
        for s, result in zip(batch.sources, batch.results):
            assert_distances_close(dijkstra(grid, int(s)), result)

    def test_adaptive_batch(self, grid):
        def runner(g, s):
            result, trace, _ = adaptive_sssp(g, s, AdaptiveParams(setpoint=100.0))
            return result, trace

        sources = sample_sources(grid, 3, seed=1)
        batch = batch_run(grid, sources, runner, label="adaptive")
        row = batch.as_row()
        assert row["sources"] == 3
        assert row["pooled median par"] > 0

    def test_empty_sources_rejected(self, grid):
        with pytest.raises(ValueError):
            batch_run(grid, [], lambda g, s: nearfar_sssp(g, s))

    def test_pooled_parallelism_length(self, grid):
        sources = sample_sources(grid, 3, seed=2)
        batch = batch_run(grid, sources, lambda g, s: nearfar_sssp(g, s))
        pooled = pooled_parallelism(batch.traces)
        assert pooled.size == sum(len(t) for t in batch.traces)

    def test_pooled_parallelism_empty(self):
        assert pooled_parallelism([]).size == 0

    def test_summary_statistics(self, grid):
        sources = sample_sources(grid, 3, seed=4)
        batch = batch_run(grid, sources, lambda g, s: nearfar_sssp(g, s))
        s = batch.parallelism_summary()
        assert s.count == pooled_parallelism(batch.traces).size
        assert s.minimum <= s.median <= s.maximum


class TestParallelBatch:
    """There is no parallel batch: ``batch_run`` loops on the calling
    thread, and neither a thread mode nor the batched kernel hides
    behind a keyword.

    Threads would not help: the interpreter lock serialises a sweep's
    numpy calls (see :mod:`repro.service.pool` for the measurements).
    """

    @pytest.fixture(scope="class")
    def grid(self):
        return grid_road_network(20, 20, seed=3)

    @pytest.mark.parametrize("mode", ["process", "threads", "", "thread"])
    def test_unknown_mode_rejected(self, grid, mode):
        """The serial loop is the only mode; nothing selects another."""
        with pytest.raises(TypeError, match="mode"):
            batch_run(grid, [0, 5], _nearfar_runner, mode=mode)

    def test_no_fan_out_keywords(self, grid):
        for keyword in ("parallel", "max_workers", "timeout", "mode", "delta"):
            with pytest.raises(TypeError, match=keyword):
                batch_run(grid, [0, 5], _nearfar_runner, **{keyword: 2})

    def test_loop_is_the_default_mode(self, grid):
        """One runner call per source, in source order, duplicates included."""
        calls = []

        def runner(graph, source):
            calls.append(source)
            return _nearfar_runner(graph, source)

        batch = batch_run(grid, [5, 0, 5], runner)
        assert calls == [5, 0, 5]
        assert [r.source for r in batch.results] == [5, 0, 5]
        assert [t.source for t in batch.traces] == [5, 0, 5]


class TestBatchedMode:
    """The batched alternative to the loop is the multi-source kernel
    itself, :func:`batched_nearfar_sssp`."""

    @pytest.fixture(scope="class")
    def grid(self):
        return grid_road_network(16, 16, seed=5)

    def test_matches_serial_loop(self, grid):
        sources = sample_sources(grid, 5, seed=7)
        serial = batch_run(grid, sources, _nearfar_runner, label="loop")
        batched = batched_nearfar_sssp(grid, sources)
        for loop, multi in zip(serial.results, batched):
            assert np.array_equal(loop.dist, multi.dist)
            assert loop.iterations == multi.iterations

    def test_delta_override(self, grid):
        (result,) = batched_nearfar_sssp(grid, [0], 4.0)
        assert result.extra["delta"] == 4.0
        assert_distances_close(dijkstra(grid, 0), result)

    def test_empty_sources_rejected(self, grid):
        with pytest.raises(ValueError, match="non-empty"):
            batched_nearfar_sssp(grid, [])
