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

A run its deadline stops still books the work it did, as a finished
run would: the ``sssp.*`` metrics and the ``iterations`` and
``run_end`` events (batched: the ``sssp.batch.*`` metrics and
``batch_run_end``), before ``DeadlineExceeded`` leaves the solver.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import AdaptiveParams, adaptive_sssp
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat
from repro.instrument.trace import NEARFAR_WIDTH, ROW_FIELDS
from repro.service import GraphCatalog, QueryEngine, SSSPQuery
from repro.service.runners import algorithm_names, run_algorithm, run_algorithm_batch
from repro.sssp import deadline as deadline_module
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


# -- a run its deadline stops books the work it did --------------------


class _Clock:
    """``time`` as :mod:`repro.sssp.deadline` reads it: 0.0 for the first
    ``reads`` reads, then 1e9, so a deadline of 1.0 stops the run after
    ``reads`` iterations or sweeps."""

    def __init__(self, reads: int):
        self.left = reads

    def monotonic(self) -> float:
        self.left -= 1
        return 0.0 if self.left >= 0 else 1e9


STOPPED = {
    "nearfar": (
        lambda g, d: nearfar_sssp(g, 0, delta=1.0, collect_trace=False, deadline=d),
        NEARFAR_WIDTH,
    ),
    "adaptive": (
        lambda g, d: adaptive_sssp(
            g, 0, AdaptiveParams(setpoint=50.0), collect_trace=False, deadline=d
        ),
        len(ROW_FIELDS),
    ),
}


def _stopped(monkeypatch, ran, solve):
    """Run ``solve(graph, deadline)`` until the deadline stops it after
    ``ran`` iterations; returns the registry and the event sink."""
    monkeypatch.setattr(deadline_module, "time", _Clock(ran))
    registry, sink = obs.MetricsRegistry(), obs.ListSink()
    with obs.use(registry=registry, events=sink):
        with pytest.raises(DeadlineExceeded) as caught:
            solve(grid_road_network(12, 12, seed=4), 1.0)
    assert caught.value.iterations == ran
    return registry, sink


@pytest.mark.parametrize("ran", [0, 3])
@pytest.mark.parametrize("solver", sorted(STOPPED))
def test_a_stopped_run_books_its_rows(monkeypatch, solver, ran):
    solve, width = STOPPED[solver]
    registry, sink = _stopped(monkeypatch, ran, solve)
    assert [e["type"] for e in sink.events] == ["run_start", "iterations", "run_end"]
    columns, end = sink.events[1], sink.events[2]
    assert set(columns) == {"type", *ROW_FIELDS[:width]}
    assert all(len(columns[name]) == ran for name in ROW_FIELDS[:width])
    counter = lambda name: registry.counter(name).value  # noqa: E731
    assert end["iterations"] == counter("sssp.iterations") == ran
    assert end["relaxations"] == counter("sssp.relaxations") == sum(columns["x2"])
    assert counter("sssp.queue.drains") == sum(columns["drains"])
    assert registry.histogram("sssp.frontier").count == ran
    assert (end["reached"] == 1) == (ran == 0)


@pytest.mark.parametrize("ran", [0, 3])
def test_a_stopped_batch_books_its_sweeps(monkeypatch, ran):
    solve = lambda g, d: batched_nearfar_sssp(g, [0, 5], delta=1.0, deadline=d)  # noqa: E731
    registry, sink = _stopped(monkeypatch, ran, solve)
    assert [e["type"] for e in sink.events] == ["batch_run_start", "batch_run_end"]
    end = sink.events[1]
    assert end["sweeps"] == registry.counter("sssp.batch.sweeps").value == ran
    assert end["relaxations"] == registry.counter("sssp.batch.relaxations").value
    assert registry.histogram("sssp.batch.active").count == ran
    assert registry.histogram("sssp.batch.frontier").count == ran
    assert (end["reached"] == [1, 1]) == (ran == 0)


@pytest.mark.parametrize(
    "algorithm, params", [("nearfar", {"delta": 1.0}), ("adaptive", {"setpoint": 50.0})]
)
def test_a_timed_out_query_answers_and_books_its_run(algorithm, params):
    catalog = GraphCatalog()
    catalog.register("grid", grid_road_network(12, 12, seed=4))
    registry, sink = obs.MetricsRegistry(), obs.ListSink()
    with obs.use(registry=registry, events=sink):
        with QueryEngine(catalog, timeout=1e-6, cache_size=0) as engine:
            response = engine.run(SSSPQuery("grid", 0, algorithm, params))
    assert (response.ok, response.error) == (False, "timeout after 1e-06s")
    kernel = [e["type"] for e in sink.events if e["type"] in ("run_start", "iterations", "run_end")]
    assert kernel == ["run_start", "iterations", "run_end"]
    assert registry.counter("sssp.iterations").value == len(sink.of_type("iterations")[0]["x1"])
