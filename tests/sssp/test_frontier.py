"""Unit tests for the shared frontier-stage primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import star_graph
from repro.sssp.frontier import (
    advance,
    batched_advance,
    batched_bisect,
    batched_drain_far,
    batched_filter,
    bisect,
    drain_far_queue,
    edge_offsets,
    filter_frontier,
    sorted_unique,
)

EMPTY = np.zeros(0, dtype=np.int64)
I64 = np.iinfo(np.int64)


def _edge_offsets(counts, rows=None):
    """``edge_offsets`` over a CSR whose row ``r`` has ``counts[r]`` edges."""
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    rows = np.arange(len(counts)) if rows is None else np.asarray(rows, dtype=np.int64)
    return edge_offsets(indptr, rows)


class TestRaggedArange:
    """``edge_offsets`` is a ragged arange over the CSR rows it is given."""

    def test_basic(self):
        offsets, counts = _edge_offsets([3, 1, 2], rows=[2, 0, 1])
        assert list(offsets) == [4, 5, 0, 1, 2, 3]
        assert list(counts) == [2, 3, 1]

    def test_zeros_inside(self):
        offsets, counts = _edge_offsets([0, 2, 0, 1])
        assert list(offsets) == [0, 1, 2]
        assert list(counts) == [0, 2, 0, 1]

    def test_empty(self):
        offsets, counts = _edge_offsets([3, 1], rows=[])
        assert offsets.size == 0 and counts.size == 0
        assert offsets.dtype == np.int64

    def test_all_zero(self):
        assert _edge_offsets([0, 0])[0].size == 0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=20),
        st.lists(st.integers(0, 19), max_size=30),
    )
    def test_matches_loop_reference(self, counts, rows):
        rows = [r % len(counts) for r in rows]  # repeats and any order allowed
        indptr = np.concatenate(([0], np.cumsum(counts)))
        want = [e for r in rows for e in range(indptr[r], indptr[r + 1])]
        offsets, got_counts = _edge_offsets(counts, rows=rows)
        assert offsets.tolist() == want
        assert got_counts.tolist() == [counts[r] for r in rows]


class TestAdvance:
    def test_relaxes_and_reports(self, diamond):
        dist = np.full(4, np.inf)
        dist[0] = 0.0
        out = advance(diamond, np.asarray([0]), dist)
        assert out.x2 == 2  # both out-edges of 0 explored
        assert sorted(out.improved.tolist()) == [1, 2]
        assert dist[1] == 4.0 and dist[2] == 1.0

    def test_no_improvement_no_output(self, diamond):
        dist = np.zeros(4)  # everything already optimal at 0
        out = advance(diamond, np.asarray([0]), dist)
        assert out.x2 == 2
        assert out.improved.size == 0

    def test_empty_frontier(self, diamond):
        dist = np.full(4, np.inf)
        out = advance(diamond, EMPTY, dist)
        assert out.x2 == 0
        assert out.improved.size == 0

    def test_frontier_of_sinks(self):
        g = star_graph(4)
        dist = np.full(4, np.inf)
        dist[1] = 1.0
        out = advance(g, np.asarray([1]), dist)  # leaf: no out-edges
        assert out.x2 == 0

    def test_duplicates_preserved_for_filter(self):
        # two frontier vertices both improve vertex 2
        g = CSRGraph.from_edges(3, [0, 1], [2, 2], [1.0, 1.0])
        dist = np.asarray([0.0, 0.0, np.inf])
        out = advance(g, np.asarray([0, 1]), dist)
        assert sorted(out.improved.tolist()) == [2, 2]
        assert dist[2] == 1.0

    def test_atomic_min_semantics(self):
        # both writers race on vertex 2 with different candidates: min wins
        g = CSRGraph.from_edges(3, [0, 1], [2, 2], [5.0, 1.0])
        dist = np.asarray([0.0, 0.0, np.inf])
        advance(g, np.asarray([0, 1]), dist)
        assert dist[2] == 1.0

    def test_x2_equals_neighbour_list_length(self, small_rmat):
        dist = np.full(small_rmat.num_nodes, np.inf)
        dist[0] = 0.0
        frontier = np.asarray([0])
        out = advance(small_rmat, frontier, dist)
        assert out.x2 == small_rmat.out_degree(0)
        assert out.relaxations == out.x2


class TestFilter:
    def test_dedupes(self):
        out = filter_frontier(np.asarray([3, 1, 3, 2, 1]))
        assert list(out) == [1, 2, 3]

    def test_empty(self):
        assert filter_frontier(EMPTY).size == 0


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-3, 3), st.integers(int(I64.min), int(I64.max))),
            max_size=300,
        )
    )
    @example([])
    @example([42])
    @example([7] * 50)
    @example([-5, -1, -5, -3, -1])
    @example([int(I64.max), int(I64.min), 0, int(I64.min), int(I64.max)])
    def test_matches_np_unique(self, values):
        keys = np.asarray(values, dtype=np.int64)
        got, want = sorted_unique(keys), np.unique(keys)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestBisect:
    def test_split(self):
        dist = np.asarray([0.0, 5.0, 10.0, 15.0])
        near, far = bisect(np.asarray([1, 2, 3]), dist, 10.0)
        assert list(near) == [1]
        assert list(far) == [2, 3]  # split boundary goes far

    def test_empty(self):
        near, far = bisect(EMPTY, np.zeros(0), 1.0)
        assert near.size == 0 and far.size == 0


class TestDrainFarQueue:
    def test_pulls_next_band(self):
        dist = np.asarray([0.0, 2.5, 3.5, 9.0])
        far = np.asarray([1, 2, 3])
        frontier, remaining, lower, split, drains = drain_far_queue(
            far, dist, lower=0.0, split=2.0, delta=2.0
        )
        assert sorted(frontier.tolist()) == [1, 2]
        assert list(remaining) == [3]
        assert lower == 2.0
        # window jumps to min-far-distance + delta = 2.5 + 2.0
        assert split == pytest.approx(4.5)
        assert drains >= 1

    def test_skips_empty_bands_in_one_jump(self):
        dist = np.asarray([0.0, 1000.0])
        far = np.asarray([1])
        frontier, remaining, lower, split, drains = drain_far_queue(
            far, dist, lower=0.0, split=1.0, delta=1.0
        )
        assert list(frontier) == [1]
        assert remaining.size == 0
        assert split > 1000.0
        assert drains == 1000  # bands conceptually crossed

    def test_drops_stale_entries(self):
        # vertex 1 was improved to below the current split => stale copy
        dist = np.asarray([0.0, 0.5, 7.0])
        far = np.asarray([1, 2])
        frontier, remaining, lower, split, drains = drain_far_queue(
            far, dist, lower=0.0, split=2.0, delta=10.0
        )
        assert list(frontier) == [2]
        assert remaining.size == 0

    def test_dedupes_far_entries(self):
        dist = np.asarray([0.0, 3.0])
        far = np.asarray([1, 1, 1])
        frontier, remaining, *_ = drain_far_queue(
            far, dist, lower=0.0, split=2.0, delta=2.0
        )
        assert list(frontier) == [1]

    def test_empty_far(self):
        frontier, remaining, lower, split, drains = drain_far_queue(
            EMPTY, np.zeros(0), 0.0, 1.0, 1.0
        )
        assert frontier.size == 0 and drains == 0

    def test_all_stale(self):
        dist = np.asarray([0.0, 0.1])
        frontier, remaining, lower, split, drains = drain_far_queue(
            np.asarray([1]), dist, lower=0.0, split=2.0, delta=1.0
        )
        assert frontier.size == 0
        assert remaining.size == 0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            drain_far_queue(np.asarray([0]), np.zeros(1), 0.0, 1.0, 0.0)

    def test_rejects_nan_delta(self):
        with pytest.raises(ValueError, match="positive"):
            drain_far_queue(np.asarray([0]), np.zeros(1), 0.0, 1.0, float("nan"))

    def test_delta_below_float_spacing_still_pulls_dmin(self):
        dist = np.asarray([0.0, 1e6, 1e6, 2e6])
        frontier, remaining, lower, split, drains = drain_far_queue(
            np.asarray([1, 2, 3]), dist, lower=0.0, split=1e-12, delta=1e-12
        )
        assert list(frontier) == [1, 2] and list(remaining) == [3]
        assert split == np.nextafter(1e6, np.inf)
        assert drains >= 1


class TestRaggedArangeZeroRows:
    def test_trailing_zero_rows(self):
        assert list(_edge_offsets([2, 0, 0])[0]) == [0, 1]

    def test_leading_zero_rows(self):
        assert list(_edge_offsets([0, 0, 3])[0]) == [0, 1, 2]

    def test_single_zero(self):
        assert _edge_offsets([0])[0].size == 0


class TestBatchedAdvance:
    def _flat(self, graph, sources):
        n = graph.num_nodes
        dist = np.full(len(sources) * n, np.inf)
        keys = np.asarray([q * n + s for q, s in enumerate(sources)])
        dist[keys] = 0.0
        return dist, keys

    def test_two_queries_relax_independently(self, diamond):
        n = diamond.num_nodes
        dist, frontier = self._flat(diamond, [0, 0])
        out = batched_advance(diamond, frontier, dist, 2)
        assert out.x2 == 4  # both copies explored vertex 0's two edges
        assert list(out.relaxations_per_query) == [2, 2]
        assert sorted(out.improved.tolist()) == [1, 2, n + 1, n + 2]
        # each query's block got the same single-source update
        assert dist[1] == dist[n + 1] == 4.0
        assert dist[2] == dist[n + 2] == 1.0

    def test_matches_single_source_advance(self, small_grid):
        n = small_grid.num_nodes
        sdist = np.full(n, np.inf)
        sdist[3] = 0.0
        single = advance(small_grid, np.asarray([3]), sdist)
        bdist, frontier = self._flat(small_grid, [3])
        batched = batched_advance(small_grid, frontier, bdist, 1)
        assert batched.x2 == single.x2
        assert np.array_equal(np.sort(batched.improved), np.sort(single.improved))
        assert np.array_equal(bdist, sdist)

    def test_empty_frontier(self, diamond):
        dist = np.full(2 * diamond.num_nodes, np.inf)
        out = batched_advance(diamond, EMPTY, dist, 2)
        assert out.x2 == 0
        assert out.improved.size == 0
        assert list(out.relaxations_per_query) == [0, 0]

    def test_frontier_of_sinks(self, small_path):
        n = small_path.num_nodes
        dist = np.full(n, 1.0)
        out = batched_advance(small_path, np.asarray([n - 1]), dist, 1)
        assert out.x2 == 0 and out.improved.size == 0


class TestBatchedFilter:
    def test_dedups_and_sorts(self):
        keys = np.asarray([9, 2, 9, 2, 5, 9])
        assert list(batched_filter(keys)) == [2, 5, 9]

    def test_empty(self):
        assert batched_filter(EMPTY).size == 0

    def test_already_unique_preserved(self):
        assert list(batched_filter(np.asarray([4, 1, 3]))) == [1, 3, 4]


class TestBatchedBisect:
    def test_per_query_windows(self):
        n = 4
        dist = np.asarray([0.0, 1.0, 5.0, np.inf, 0.0, 1.0, 5.0, np.inf])
        keys = np.asarray([1, 2, n + 1, n + 2])
        near, far = batched_bisect(keys, dist, np.asarray([2.0, 10.0]), n)
        # query 0 splits at 2: vertex 2 (d=5) goes far; query 1 at 10: both near
        assert list(near) == [1, n + 1, n + 2]
        assert list(far) == [2]

    def test_empty(self):
        near, far = batched_bisect(EMPTY, np.zeros(4), np.asarray([1.0]), 4)
        assert near.size == 0 and far.size == 0


class TestBatchedDrainFar:
    def test_starved_query_advances_window_only(self):
        n = 4
        # query 0 starved with far entries at d=6,8; query 1 not in need
        dist = np.asarray([0.0, 6.0, 8.0, np.inf, 0.0, 6.0, 8.0, np.inf])
        far = np.asarray([1, 2, n + 1])
        split = np.asarray([2.0, 2.0])
        delta = np.asarray([2.0, 2.0])
        need = np.asarray([True, False])
        frontier, far_rem, new_split = batched_drain_far(
            far, dist, n, split, delta, need
        )
        # window jumps to max(split+delta, dmin+delta) = max(4, 8) = 8
        assert new_split[0] == 8.0
        assert new_split[1] == 2.0  # untouched
        assert list(split) == [2.0, 2.0]  # the caller's array is not mutated
        assert list(frontier) == [1]  # d=6 < 8 pulled near
        assert n + 1 in far_rem and 2 in far_rem  # other query passes through

    def test_stale_entries_dropped(self):
        n = 3
        dist = np.asarray([0.0, 0.5, np.inf])  # vertex 1 improved below split
        far = np.asarray([1])
        frontier, far_rem, new_split = batched_drain_far(
            far,
            dist,
            n,
            np.asarray([1.0]),
            np.asarray([1.0]),
            np.asarray([True]),
        )
        assert frontier.size == 0 and far_rem.size == 0
        assert new_split[0] == 1.0  # all-stale: window holds

    def test_precomputed_far_q_equivalent(self):
        n = 4
        dist = np.asarray([0.0, 6.0, 8.0, np.inf, 0.0, 6.0, 8.0, np.inf])
        far = np.asarray([1, 2, n + 1])
        args = (np.asarray([2.0, 2.0]), np.asarray([2.0, 2.0]))
        need = np.asarray([True, True])
        base = batched_drain_far(far, dist, n, *args, need)
        pre = batched_drain_far(far, dist, n, *args, need, far_q=far // n)
        assert len(base) == len(pre) == 3
        for a, b in zip(base, pre):
            assert np.array_equal(a, b)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            batched_drain_far(
                np.asarray([1]),
                np.zeros(2),
                2,
                np.ones(1),
                np.zeros(1),
                np.asarray([True]),
            )

    def test_nan_delta_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            batched_drain_far(
                np.asarray([1]),
                np.zeros(2),
                2,
                np.ones(1),
                np.asarray([np.nan]),
                np.asarray([True]),
            )

    def test_delta_below_float_spacing_still_pulls_dmin(self):
        n = 3
        dist = np.asarray([0.0, 1e6, 2e6, 0.0, 5.0, 5.0])
        far = np.asarray([1, 2, n + 1, n + 2])
        delta = np.asarray([1e-12, 1e-17])
        frontier, far_rem, split = batched_drain_far(
            far, dist, n, delta.copy(), delta, np.asarray([True, True])
        )
        assert list(frontier) == [1, n + 1, n + 2]
        assert list(far_rem) == [2]
        assert list(split) == [np.nextafter(1e6, np.inf), np.nextafter(5.0, np.inf)]

    def test_empty_far(self):
        frontier, far_rem, split = batched_drain_far(
            EMPTY,
            np.zeros(2),
            2,
            np.ones(1),
            np.ones(1),
            np.asarray([True]),
        )
        assert frontier.size == 0 and far_rem.size == 0
        assert list(split) == [1.0]
