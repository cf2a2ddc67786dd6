"""Unit tests for the batched multi-source near+far engine."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi,
    grid_road_network,
    path_graph,
    random_weighted_graph,
    rmat,
)
from repro.sssp.batch_kernels import batched_nearfar_sssp
from repro.sssp.dijkstra import dijkstra
from repro.sssp.nearfar import nearfar_sssp, suggest_delta

# one per family: undirected road grid, undirected scale-free, directed
# Erdos-Renyi, unstructured random digraph, R-MAT
FAMILIES = {
    "road": grid_road_network(14, 14, seed=3),
    "ba": barabasi_albert(300, 3, seed=5),
    "er": erdos_renyi(400, 6.0, seed=7),
    "random": random_weighted_graph(350, 2400, seed=11),
    "rmat": rmat(8, edge_factor=8, seed=5),
}


class TestExactness:
    def test_matches_dijkstra(self, small_grid):
        sources = [0, 5, 17, 40]
        results = batched_nearfar_sssp(small_grid, sources)
        for src, res in zip(sources, results):
            oracle = dijkstra(small_grid, src)
            assert np.array_equal(res.dist, oracle.dist)

    def test_b1_byte_exact_with_single_source(self, small_grid):
        """B=1 runs the identical float ops in the identical order."""
        for src in (0, 13, 63):
            single, _ = nearfar_sssp(small_grid, src, collect_trace=False)
            [batched] = batched_nearfar_sssp(small_grid, [src])
            assert np.array_equal(single.dist, batched.dist)
            assert single.iterations == batched.iterations
            assert single.relaxations == batched.relaxations

    @pytest.mark.parametrize("B", [1, 4, 64, 256])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_multi_source_byte_exact_with_loop(self, family, B):
        graph = FAMILIES[family]
        rng = np.random.default_rng(B)
        sources = rng.integers(0, graph.num_nodes, size=B)
        looped = {
            s: nearfar_sssp(graph, s, collect_trace=False)[0]
            for s in set(sources.tolist())
        }
        batched = batched_nearfar_sssp(graph, sources)
        for source, multi in zip(sources.tolist(), batched):
            single = looped[source]
            assert np.array_equal(single.dist, multi.dist)
            assert single.iterations == multi.iterations
            assert single.relaxations == multi.relaxations

    def test_batched_matches_looped_single_source(self):
        graph = FAMILIES["er"]
        sources = [1, 17, 42, 99]
        batched = batched_nearfar_sssp(graph, sources)
        for source, got in zip(sources, batched):
            ref, _ = nearfar_sssp(graph, source, collect_trace=False)
            assert np.array_equal(ref.dist, got.dist)

    def test_duplicate_sources_in_one_batch(self, small_grid):
        """Each query owns a disjoint key range, duplicates included."""
        results = batched_nearfar_sssp(small_grid, [7, 3, 7, 7])
        first, _, third, fourth = results
        assert np.array_equal(first.dist, third.dist)
        assert np.array_equal(first.dist, fourth.dist)
        assert first.iterations == third.iterations == fourth.iterations
        assert first.relaxations == third.relaxations
        oracle = dijkstra(small_grid, 7)
        assert np.array_equal(first.dist, oracle.dist)

    def test_finished_query_amid_active_ones(self):
        """A query that drains early stops contributing keys, silently.

        Source n-1 of a directed path finishes immediately (no
        out-edges); source 0 walks the whole path.  Both must stay
        exact and the early finisher must not age extra iterations.
        """
        graph = path_graph(40)
        last = graph.num_nodes - 1
        results = batched_nearfar_sssp(graph, [0, last, 20])
        for src, res in zip((0, last, 20), results):
            assert np.array_equal(res.dist, dijkstra(graph, src).dist)
        solo = batched_nearfar_sssp(graph, [last])[0]
        assert results[1].iterations == solo.iterations
        assert results[1].relaxations == solo.relaxations == 0

    def test_explicit_delta_matches_single(self, small_grid):
        delta = 3.5
        single, _ = nearfar_sssp(small_grid, 2, delta, collect_trace=False)
        [batched] = batched_nearfar_sssp(small_grid, [2], delta=delta)
        assert np.array_equal(single.dist, batched.dist)
        assert batched.extra["delta"] == delta

    @pytest.mark.parametrize("delta_mult", [1e-15, 1e-17])
    def test_exact_for_delta_below_distance_spacing(self, small_grid, delta_mult):
        """``dmin + delta == dmin``: each drain still pulls its ``dmin`` band."""
        delta = suggest_delta(small_grid) * delta_mult
        sources = [0, 63, 0]
        results = batched_nearfar_sssp(small_grid, sources, delta=delta)
        for src, res in zip(sources, results):
            single, _ = nearfar_sssp(small_grid, src, delta=delta, collect_trace=False)
            assert np.array_equal(res.dist, dijkstra(small_grid, src).dist)
            assert res.iterations == single.iterations
            assert res.relaxations == single.relaxations

    def test_per_query_deltas(self, small_grid):
        results = batched_nearfar_sssp(small_grid, [0, 1], delta=[2.0, 9.0])
        assert results[0].extra["delta"] == 2.0
        assert results[1].extra["delta"] == 9.0
        for src, res in zip((0, 1), results):
            assert np.array_equal(res.dist, dijkstra(small_grid, src).dist)

    def test_result_metadata(self, small_grid):
        results = batched_nearfar_sssp(small_grid, [4, 8])
        for res in results:
            assert res.algorithm == "nearfar"
            assert res.extra["batched"] is True
            assert res.extra["batch_size"] == 2


# delta multiples of the average weight, 1e-17 below the float spacing
DELTA_MULTS = st.sampled_from([1e-17, 1e-3, 0.3, 1.0, 4.0, 1e3])


@st.composite
def batched_cases(draw):
    """A small graph (zero weights, disconnected parts), B sources and deltas."""
    n = draw(st.integers(min_value=1, max_value=40))
    parts = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=120))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    src, dst = rng.integers(0, n, size=(2, m))
    # edges stay inside their part (vertex id mod parts): disconnected pieces
    inside = src % parts == dst % parts
    src, dst = src[inside], dst[inside]
    weights = rng.uniform(0.0, 10.0, size=src.size)
    weights[rng.random(src.size) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    graph = CSRGraph.from_edges(n, src, dst, weights)
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    if draw(st.booleans()):
        sources.append(sources[0])  # a duplicate query
    base = suggest_delta(graph)
    mode = draw(st.sampled_from(["default", "scalar", "per-query"]))
    if mode == "default":
        deltas = None
    elif mode == "scalar":
        deltas = base * draw(DELTA_MULTS)
    else:
        deltas = [base * draw(DELTA_MULTS) for _ in sources]
    return graph, sources, deltas


class TestLoopEquivalenceProperty:
    @given(batched_cases())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_batched_equals_looped_nearfar_and_dijkstra(self, case):
        graph, sources, deltas = case
        batched = batched_nearfar_sssp(graph, sources, delta=deltas)
        assert len(batched) == len(sources)
        for q, (source, got) in enumerate(zip(sources, batched)):
            delta = deltas[q] if isinstance(deltas, list) else deltas
            single, _ = nearfar_sssp(graph, source, delta=delta, collect_trace=False)
            assert np.array_equal(got.dist, single.dist)
            assert got.iterations == single.iterations
            assert got.relaxations == single.relaxations
            assert np.array_equal(got.dist, dijkstra(graph, source).dist)


class TestValidation:
    def test_empty_sources_rejected(self, small_grid):
        with pytest.raises(ValueError, match="non-empty"):
            batched_nearfar_sssp(small_grid, [])

    def test_source_out_of_range(self, small_grid):
        with pytest.raises(ValueError, match="out of range"):
            batched_nearfar_sssp(small_grid, [0, small_grid.num_nodes])

    def test_negative_source(self, small_grid):
        with pytest.raises(ValueError, match="out of range"):
            batched_nearfar_sssp(small_grid, [-1])

    def test_wrong_delta_length(self, small_grid):
        with pytest.raises(ValueError, match="length-2"):
            batched_nearfar_sssp(small_grid, [0, 1], delta=[1.0, 2.0, 3.0])

    def test_nonpositive_delta(self, small_grid):
        with pytest.raises(ValueError, match="finite and positive"):
            batched_nearfar_sssp(small_grid, [0], delta=0.0)

    @pytest.mark.parametrize("delta", [-1.0, float("nan"), float("inf"), [1.0, 0.0]])
    def test_every_delta_checked(self, small_grid, delta):
        with pytest.raises(ValueError, match="finite and positive"):
            batched_nearfar_sssp(small_grid, [0, 1], delta)

    def test_negative_weights_rejected(self):
        graph = CSRGraph.from_edges(2, src=[0], dst=[1], weight=[-1.0])
        with pytest.raises(ValueError, match="non-negative"):
            batched_nearfar_sssp(graph, [0])

    def test_negative_max_sweeps_rejected(self, small_grid):
        with pytest.raises(ValueError, match="max_sweeps"):
            batched_nearfar_sssp(small_grid, [0], max_sweeps=-1)

    def test_max_sweeps_truncates(self, small_grid):
        truncated = batched_nearfar_sssp(small_grid, [0], max_sweeps=1)[0]
        full = batched_nearfar_sssp(small_grid, [0])[0]
        assert truncated.iterations == 1
        assert truncated.relaxations <= full.relaxations


class TestObservability:
    def test_events_and_metrics(self, small_grid):
        reg = obs.MetricsRegistry()
        sink = obs.ListSink()
        with obs.use(registry=reg, events=sink):
            batched_nearfar_sssp(small_grid, [0, 9])
        [start] = sink.of_type("batch_run_start")
        assert start["batch_size"] == 2
        assert start["sources"] == [0, 9]
        [end] = sink.of_type("batch_run_end")
        assert end["sweeps"] > 0
        assert len(end["reached"]) == 2
        snap = reg.snapshot()
        assert snap["sssp.batch.sweeps"]["value"] == end["sweeps"]
        assert snap["sssp.batch.relaxations"]["value"] == end["relaxations"]
        assert snap["sssp.batch.active"]["count"] == end["sweeps"]

    def test_silent_without_context(self, small_grid):
        results = batched_nearfar_sssp(small_grid, [0])
        assert results[0].num_reached > 1
