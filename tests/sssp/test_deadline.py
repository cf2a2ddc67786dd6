"""Deadline safety of every served solver, property-tested.

A served query's ``--timeout`` reaches its solver as ``deadline=``, an
absolute ``time.monotonic()`` instant read once per iteration, sweep or
round (Dijkstra: every 256 pops).  Two laws must hold on every graph:

* a deadline the run meets changes nothing: distances, ``iterations``
  and ``relaxations`` are bit-identical to a run without one;
* a deadline already past raises :class:`DeadlineExceeded` before a
  second iteration, sweep or round starts.

Graphs are drawn from five families: a road grid, RMAT, all-zero
weights, weights spread over 1e-6..1e6, and two disconnected parts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AdaptiveParams, adaptive_sssp
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat
from repro.service.runners import algorithm_names, run_algorithm, run_algorithm_batch
from repro.sssp import (
    DeadlineExceeded,
    batched_nearfar_sssp,
    bellman_ford,
    delta_stepping,
    dijkstra,
    kla_sssp,
    nearfar_sssp,
)

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

HOUR = 3600.0
# time.monotonic() never reads below 0, so this deadline is always past
PAST = 0.0
FAMILIES = ("road", "rmat", "zero", "wide", "split")


def _random_edges(rng, n, m):
    return rng.integers(0, n, size=m), rng.integers(0, n, size=m)


@st.composite
def graphs(draw):
    """A small graph from one of :data:`FAMILIES`, and a source in it."""
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if family == "road":
        rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        graph = grid_road_network(rows, cols, seed=seed)
    elif family == "rmat":
        graph = rmat(draw(st.integers(2, 5)), 4, seed=seed)
    elif family == "zero":
        base = grid_road_network(draw(st.integers(2, 6)), 5, seed=seed)
        src, dst, w = base.edge_arrays()
        graph = CSRGraph.from_edges(base.num_nodes, src, dst, np.zeros_like(w))
    elif family == "wide":
        n = draw(st.integers(2, 40))
        src, dst = _random_edges(rng, n, 3 * n)
        graph = CSRGraph.from_edges(n, src, dst, 10.0 ** rng.uniform(-6, 6, 3 * n))
    else:  # two parts with no edge between them
        a, b = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        src_a, dst_a = _random_edges(rng, a, 3 * a)
        src_b, dst_b = _random_edges(rng, b, 3 * b)
        src = np.concatenate([src_a, src_b + a])
        dst = np.concatenate([dst_a, dst_b + a])
        graph = CSRGraph.from_edges(a + b, src, dst, rng.uniform(0.1, 9.0, src.size))
    source = draw(st.integers(0, graph.num_nodes - 1))
    return family, graph, source


def _same(a, b):
    """Bit-identical distances and equal work counters."""
    assert a.dist.tobytes() == b.dist.tobytes()
    assert (a.iterations, a.relaxations) == (b.iterations, b.relaxations)


@given(graphs())
@_settings
def test_a_met_deadline_changes_nothing(case):
    _, graph, source = case
    other = (source + 1) % graph.num_nodes
    for algorithm in algorithm_names():
        _same(
            run_algorithm(graph, source, algorithm, timeout=HOUR),
            run_algorithm(graph, source, algorithm),
        )
    # the multi-source kernel, as a served batch runs it
    timed = run_algorithm_batch(graph, [source, other], "nearfar", timeout=HOUR)
    for a, b in zip(timed, run_algorithm_batch(graph, [source, other], "nearfar")):
        _same(a, b)


# every served solver and the batched kernel, called with ``deadline``
SOLVERS = {
    "dijkstra": lambda g, s, d: dijkstra(g, s, deadline=d),
    "bellman-ford": lambda g, s, d: bellman_ford(g, s, deadline=d),
    "delta-stepping": lambda g, s, d: delta_stepping(g, s, deadline=d),
    "nearfar": lambda g, s, d: nearfar_sssp(g, s, collect_trace=False, deadline=d),
    "adaptive": lambda g, s, d: adaptive_sssp(
        g, s, AdaptiveParams(setpoint=50.0), collect_trace=False, deadline=d
    ),
    "kla": lambda g, s, d: kla_sssp(g, s, 3, collect_trace=False, deadline=d),
    "nearfar-batch": lambda g, s, d: batched_nearfar_sssp(g, [s, 0], deadline=d),
}


def test_every_served_algorithm_is_covered():
    assert set(algorithm_names()) < set(SOLVERS)


@given(graphs())
@_settings
def test_a_past_deadline_stops_before_a_second_iteration(case):
    _, graph, source = case
    isolated = graph.indptr[source] == graph.indptr[source + 1]
    for name, solve in SOLVERS.items():
        if name == "dijkstra" and isolated:
            # no edge to relax: the run ends before its loop, deadline unread
            assert solve(graph, source, PAST).num_reached == 1
            continue
        with pytest.raises(DeadlineExceeded) as caught:
            solve(graph, source, PAST)
        assert caught.value.iterations <= 1, (name, caught.value)
        assert isinstance(caught.value, TimeoutError)
