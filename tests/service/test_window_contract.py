"""The served near+far window: distances, batch independence, the probe.

A ``nearfar`` request that names no ``delta`` runs on
:func:`~repro.core.setpoint.setpoint_window`, a per-graph window sized
to :data:`~repro.core.setpoint.CPU_SETPOINT`.  These properties hold
for it over several graph families (road grid, RMAT, all-zero weights,
weights spanning 1e-6..1e6, disconnected parts):

* for any positive delta, the served window included, the single-source
  and the batched kernel return distances bit-equal to each other and
  to Dijkstra;
* a served query's ``iterations`` and ``relaxations`` are the same
  alone as when it is batched with any mates;
* the probe behind the window runs once per graph object and books
  nothing into a live registry or sink.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import setpoint as setpoint_module
from repro.core.setpoint import CPU_SETPOINT, setpoint_window
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat
from repro.service import GraphCatalog, QueryEngine, SSSPQuery
from repro.service.runners import run_algorithm
from repro.sssp.batch_kernels import batched_nearfar_sssp
from repro.sssp.dijkstra import dijkstra
from repro.sssp.nearfar import nearfar_sssp, suggest_delta

_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

FAMILIES = ("road", "rmat", "zero", "wide", "disconnected")


def _reweighted(graph: CSRGraph, weights: np.ndarray, name: str) -> CSRGraph:
    return CSRGraph(graph.indptr, graph.indices, weights, name=name)


def build(family: str, seed: int) -> CSRGraph:
    """A small graph of ``family``; a fresh object on every call."""
    rng = np.random.default_rng(seed)
    if family == "road":
        return grid_road_network(8 + seed % 7, 9, seed=seed)
    if family == "rmat":
        return rmat(6 + seed % 6, 8, seed=seed)
    if family == "zero":
        grid = grid_road_network(7, 7, seed=seed)
        return _reweighted(grid, np.zeros(grid.num_edges), "zero")
    if family == "wide":
        graph = rmat(6, 4, seed=seed)
        return _reweighted(graph, 10.0 ** rng.uniform(-6, 6, graph.num_edges), "wide")
    # disconnected: two grids side by side, no edge between them
    a = grid_road_network(6, 6, seed=seed)
    b = grid_road_network(5, 7, seed=seed + 1)
    src_a, dst_a, w_a = a.edge_arrays()
    src_b, dst_b, w_b = b.edge_arrays()
    n = a.num_nodes
    return CSRGraph.from_edges(
        n + b.num_nodes,
        np.concatenate([src_a, src_b + n]),
        np.concatenate([dst_a, dst_b + n]),
        np.concatenate([w_a, w_b]),
        name="disconnected",
    )


@st.composite
def instances(draw):
    """(graph, sources): a graph family, a seed and 1-4 sources."""
    graph = build(draw(st.sampled_from(FAMILIES)), draw(st.integers(0, 50)))
    sources = draw(
        st.lists(st.integers(0, graph.num_nodes - 1), min_size=1, max_size=4)
    )
    return graph, sources


class TestDistancesForAnyWindow:
    @_settings
    @given(instances(), st.one_of(st.none(), st.floats(-3.0, 3.0)))
    def test_single_batched_and_dijkstra_bit_equal(self, instance, log_scale):
        """``log_scale`` None is the served window, else w̄ * 10**log_scale."""
        graph, sources = instance
        if log_scale is None:
            delta = setpoint_window(graph)
        else:
            delta = suggest_delta(graph) * 10.0 ** log_scale
        batched = batched_nearfar_sssp(graph, sources, delta=delta)
        for source, got in zip(sources, batched):
            single, _ = nearfar_sssp(graph, source, delta=delta, collect_trace=False)
            oracle = dijkstra(graph, source).dist
            assert np.array_equal(single.dist, oracle)
            assert np.array_equal(got.dist, oracle)
            assert (got.iterations, got.relaxations) == (
                single.iterations, single.relaxations,
            )


class TestServedCountsIgnoreBatchMates:
    @_settings
    @given(instances(), st.lists(st.integers(0, 10_000), max_size=6))
    def test_alone_equals_batched(self, instance, mate_draws):
        graph, sources = instance
        catalog = GraphCatalog()
        catalog.register("g", graph)
        mates = [m % graph.num_nodes for m in mate_draws]
        queries = [SSSPQuery("g", s, "nearfar") for s in sources]
        mixed = queries + [SSSPQuery("g", m, "nearfar") for m in mates]
        with QueryEngine(catalog, max_batch=1, cache_size=0) as engine:
            alone = [engine.run(q) for q in queries]
        with QueryEngine(catalog, max_batch=8, cache_size=0) as engine:
            batched = engine.run_many(mixed)[: len(queries)]
        for a, b in zip(alone, batched):
            assert a.ok and b.ok, (a.error, b.error)
            assert (a.iterations, a.relaxations, a.reached) == (
                b.iterations, b.relaxations, b.reached,
            )


class TestProbe:
    @pytest.mark.parametrize("family,seed", [(f, 3) for f in FAMILIES] + [
        ("rmat", 4), ("rmat", 5), ("rmat", 23),
    ])
    def test_multiple_is_the_largest_power_of_two_under_p_over_x_bar(self, family, seed):
        graph = build(family, seed)
        has_edges = np.flatnonzero(np.diff(graph.indptr))
        probe, _ = nearfar_sssp(
            graph, int(has_edges[has_edges.size // 2]), collect_trace=False
        )
        ratio = CPU_SETPOINT * probe.iterations / probe.relaxations
        expected = 1
        while expected < 32 and 2 * expected <= ratio:
            expected *= 2
        assert setpoint_window(graph) == suggest_delta(graph) * expected

    def test_runs_once_per_graph_object_and_books_nothing(self, monkeypatch):
        calls = []
        real = setpoint_module.nearfar_sssp

        def spy(*args, **kwargs):
            calls.append(obs.current())
            return real(*args, **kwargs)

        monkeypatch.setattr(setpoint_module, "nearfar_sssp", spy)
        graph = build("road", 5)
        registry, sink, spans = obs.MetricsRegistry(), obs.ListSink(), obs.SpanRecorder()
        with obs.use(registry=registry, events=sink, spans=spans):
            first = setpoint_window(graph)
            assert setpoint_window(graph) == first
        assert len(calls) == 1 and not calls[0].enabled
        assert not registry.snapshot() and not sink.events and not spans.profile()
        assert run_algorithm(graph, 0, "nearfar").extra["delta"] == first
        assert len(calls) == 1
        # a new object with the same arrays is probed afresh, to the same window
        twin = CSRGraph(graph.indptr, graph.indices, graph.weights, name=graph.name)
        assert setpoint_window(twin) == first
        assert len(calls) == 2

    def test_edgeless_graph_needs_no_probe(self, monkeypatch):
        monkeypatch.setattr(setpoint_module, "nearfar_sssp", None)
        graph = CSRGraph(np.zeros(4, dtype=np.int64), np.zeros(0), np.zeros(0))
        assert setpoint_window(graph) == suggest_delta(graph)
