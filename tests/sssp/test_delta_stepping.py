"""Unit tests for Meyer-Sanders delta-stepping."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph.csr import CSRGraph
from repro.graph.generators import path_graph, star_graph
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.dijkstra import dijkstra
from repro.sssp.result import assert_distances_close


class TestCorrectness:
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 3.0, 100.0])
    def test_any_delta_exact_on_grid(self, small_grid, delta):
        assert_distances_close(
            dijkstra(small_grid, 0), delta_stepping(small_grid, 0, delta)
        )

    @pytest.mark.parametrize("delta", [1.0, 10.0, 50.0, 1000.0])
    def test_any_delta_exact_on_rmat(self, small_rmat, delta):
        assert_distances_close(
            dijkstra(small_rmat, 0), delta_stepping(small_rmat, 0, delta)
        )

    def test_random_batch_default_delta(self, random_graphs):
        for g in random_graphs:
            assert_distances_close(dijkstra(g, 0), delta_stepping(g, 0))

    def test_disconnected(self, disconnected):
        r = delta_stepping(disconnected, 0, 1.0)
        assert np.isinf(r.dist[2:]).all()

    def test_zero_weight_edges(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [0.0, 1.0, 0.0])
        r = delta_stepping(g, 0, 0.5)
        assert list(r.dist) == [0.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("delta", [1e-14, 1e-300])
    def test_delta_below_distance_spacing_terminates(self, delta):
        """Once ``dmin / delta`` passes 2**53, ``(i + 1) * delta`` rounds to
        ``dmin`` and the bucket stays empty: the solve must still end, exact.

        Run in a subprocess with a timeout, so a regression fails instead
        of hanging the suite.
        """
        script = (
            "import numpy as np\n"
            "from repro.graph.datasets import cal_like\n"
            "from repro.sssp.delta_stepping import delta_stepping\n"
            "from repro.sssp.dijkstra import dijkstra\n"
            "g = cal_like(0.002)\n"
            f"r = delta_stepping(g, 0, {delta!r})\n"
            "assert np.array_equal(r.dist, dijkstra(g, 0).dist)\n"
            "print(int(np.isfinite(r.dist).sum()))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 1000


class TestBucketBehaviour:
    def test_tiny_delta_more_phases_on_grid(self, small_grid):
        avg = small_grid.average_weight
        few = delta_stepping(small_grid, 0, avg * 50)
        many = delta_stepping(small_grid, 0, avg * 0.2)
        assert many.iterations > few.iterations

    def test_huge_delta_becomes_bellman_ford_like(self, small_grid):
        r = delta_stepping(small_grid, 0, 1e9)
        # one bucket: inner loop iterates like level-synchronous BF
        assert r.iterations <= small_grid.num_nodes

    def test_star_single_phase(self):
        g = star_graph(100)
        r = delta_stepping(g, 0, 10.0)
        assert r.iterations <= 3


class TestValidation:
    def test_rejects_nonpositive_delta(self, small_grid):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            delta_stepping(small_grid, 0, 0.0)

    def test_rejects_nan_delta(self, small_grid):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            delta_stepping(small_grid, 0, float("nan"))

    def test_rejects_negative_weights(self):
        g = CSRGraph.from_edges(2, [0], [1], [-1.0])
        with pytest.raises(ValueError):
            delta_stepping(g, 0)

    def test_rejects_bad_source(self, small_grid):
        with pytest.raises(ValueError):
            delta_stepping(small_grid, -1)

    def test_default_delta_recorded(self, small_grid):
        r = delta_stepping(small_grid, 0)
        assert r.extra["delta"] == pytest.approx(small_grid.average_weight)
