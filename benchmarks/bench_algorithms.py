"""Microbenchmarks: wall-clock throughput of every SSSP implementation.

Not a paper artifact — these measure the Python implementations
themselves (edges relaxed per second), which matters when using the
package as a library.  Dijkstra is expected to be slowest (pure-Python
heap loop, it is the oracle); the frontier algorithms are vectorised.
"""

import pytest

from repro.core import AdaptiveParams, adaptive_sssp
from repro.experiments.runner import pick_source
from repro.graph.datasets import wiki_like
from repro.sssp.bellman_ford import bellman_ford
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.dijkstra import dijkstra
from repro.sssp.nearfar import nearfar_sssp

GRAPH = wiki_like(scale=0.005, seed=2)
SOURCE = pick_source(GRAPH)


def test_dijkstra_throughput(benchmark):
    result = benchmark(lambda: dijkstra(GRAPH, SOURCE))
    assert result.num_reached > 1


def test_bellman_ford_throughput(benchmark):
    result = benchmark(lambda: bellman_ford(GRAPH, SOURCE))
    assert result.num_reached > 1


def test_delta_stepping_throughput(benchmark):
    result = benchmark(lambda: delta_stepping(GRAPH, SOURCE))
    assert result.num_reached > 1


def test_nearfar_throughput(benchmark):
    result = benchmark(lambda: nearfar_sssp(GRAPH, SOURCE, collect_trace=False)[0])
    assert result.num_reached > 1


def test_adaptive_throughput(benchmark):
    result = benchmark(
        lambda: adaptive_sssp(
            GRAPH, SOURCE, AdaptiveParams(setpoint=5000.0), collect_trace=False
        )[0]
    )
    assert result.num_reached > 1


def test_advance_kernel_throughput(benchmark):
    """The hot primitive on its own: one full-frontier advance."""
    import numpy as np

    from repro.sssp.frontier import advance

    frontier = np.arange(GRAPH.num_nodes, dtype=np.int64)

    def run():
        dist = np.zeros(GRAPH.num_nodes)
        return advance(GRAPH, frontier, dist)

    out = benchmark(run)
    assert out.x2 == GRAPH.num_edges

