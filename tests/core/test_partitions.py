"""Unit tests for the partitioned far queue (Section 4.6)."""

import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.partitions import FarQueuePartitions


def _fq(boundary: float = 10.0) -> FarQueuePartitions:
    return FarQueuePartitions(initial_boundary=boundary)


class TestInitialState:
    def test_two_partitions_per_paper(self):
        fq = _fq(5.0)
        assert fq.num_partitions == 2
        assert fq.boundaries == [5.0, math.inf]
        assert fq.total() == 0

    def test_rejects_bad_boundary(self):
        with pytest.raises(ValueError):
            FarQueuePartitions(0.0)
        with pytest.raises(ValueError):
            FarQueuePartitions(float("nan"))


class TestInsertRouting:
    def test_routes_by_distance(self):
        fq = _fq(10.0)
        fq.insert(np.asarray([1, 2, 3]), np.asarray([5.0, 10.0, 11.0]))
        sizes = fq.partition_sizes()
        # (0, 10] gets 5.0 and 10.0 (upper bound inclusive); (10, inf] gets 11.0
        assert list(sizes) == [2, 1]

    def test_empty_insert_noop(self):
        fq = _fq()
        fq.insert(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert fq.total() == 0

    def test_rejects_mismatched_arrays(self):
        fq = _fq()
        with pytest.raises(ValueError):
            fq.insert(np.asarray([1]), np.asarray([1.0, 2.0]))

    def test_rejects_nonfinite_distance(self):
        fq = _fq()
        with pytest.raises(ValueError):
            fq.insert(np.asarray([1]), np.asarray([np.inf]))

    def test_total_accumulates(self):
        fq = _fq()
        for i in range(5):
            fq.insert(np.asarray([i]), np.asarray([float(i)]))
        assert fq.total() == 5


class TestExtract:
    def test_extract_below_pulls_overlapping_partitions(self):
        fq = _fq(10.0)
        fq.insert(np.asarray([1, 2]), np.asarray([5.0, 15.0]))
        got = fq.extract_below(8.0)
        # only partition (0, 10] starts below 8
        assert list(got) == [1]
        assert fq.total() == 1

    def test_extract_below_everything(self):
        fq = _fq(10.0)
        fq.insert(np.asarray([1, 2, 3]), np.asarray([5.0, 15.0, 250.0]))
        got = fq.extract_all()
        assert sorted(got.tolist()) == [1, 2, 3]
        assert fq.total() == 0

    def test_extract_below_zero_is_empty(self):
        fq = _fq(10.0)
        fq.insert(np.asarray([1]), np.asarray([5.0]))
        assert fq.extract_below(0.0).size == 0
        assert fq.total() == 1

    def test_reinsert_after_extract(self):
        fq = _fq(10.0)
        fq.insert(np.asarray([1]), np.asarray([5.0]))
        got = fq.extract_below(20.0)
        fq.insert(got, np.asarray([5.0]))
        assert fq.total() == 1


class TestBoundaries:
    def test_eq7_update(self):
        fq = _fq(100.0)
        fq.insert(np.asarray([1]), np.asarray([50.0]))
        fq.refresh_boundaries(setpoint=10.0, alpha=1.0)
        # B_0 <- 0 + 10/1 = 10 (decrease from 100: allowed)
        assert fq.boundaries[0] == pytest.approx(10.0)

    def test_monotonic_decrease_only(self):
        fq = _fq(10.0)
        fq.insert(np.asarray([1]), np.asarray([5.0]))
        fq.refresh_boundaries(setpoint=1000.0, alpha=1.0)  # candidate 1000 > 10
        assert fq.boundaries[0] == 10.0  # unchanged

    def test_last_partition_spawns_new_inf(self):
        fq = _fq(10.0)
        fq.insert(np.asarray([1]), np.asarray([50.0]))  # into the inf partition
        before = fq.num_partitions
        fq.refresh_boundaries(setpoint=5.0, alpha=1.0)
        assert fq.num_partitions > before
        assert math.isinf(fq.boundaries[-1])

    def test_boundaries_stay_sorted(self):
        fq = _fq(10.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.uniform(0, 200, size=5)
            fq.insert(rng.integers(0, 100, size=5), d)
            fq.refresh_boundaries(setpoint=rng.uniform(1, 50), alpha=rng.uniform(0.1, 5))
            b = fq.boundaries
            assert all(x <= y for x, y in zip(b, b[1:]))

    def test_rejects_bad_refresh_args(self):
        fq = _fq()
        with pytest.raises(ValueError):
            fq.refresh_boundaries(0.0, 1.0)
        with pytest.raises(ValueError):
            fq.refresh_boundaries(1.0, 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        """A NaN width would break the one-trailing-inf invariant
        (``NaN < inf`` is false) and the next sweep would never
        terminate — refuse it at the door."""
        fq = _fq()
        with pytest.raises(ValueError, match="finite"):
            fq.refresh_boundaries(10.0, alpha)
        with pytest.raises(ValueError, match="finite"):
            fq.refresh_boundaries(alpha, 1.0)
        # exactly one trailing +inf partition survives the rejection
        assert sum(1 for b in fq.boundaries if math.isinf(b)) == 1


class TestCurrentPartition:
    def test_current_tracks_first_nonempty(self):
        fq = _fq(10.0)
        fq.insert(np.asarray([1]), np.asarray([50.0]))
        assert fq.current_partition_size() == 1
        assert fq.current_partition_lower() == 10.0
        assert math.isinf(fq.current_partition_upper())

    def test_min_occupied_lower(self):
        fq = _fq(10.0)
        assert math.isinf(fq.min_occupied_lower())
        fq.insert(np.asarray([1]), np.asarray([50.0]))
        assert fq.min_occupied_lower() == 10.0
        fq.insert(np.asarray([2]), np.asarray([5.0]))
        assert fq.min_occupied_lower() == 0.0


class TestConservation:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.floats(min_value=0.001, max_value=1e6),
            ),
            min_size=0,
            max_size=300,
        ),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_no_vertex_lost_or_invented(self, entries, boundary):
        """insert/extract conserves the multiset of staged vertices."""
        fq = FarQueuePartitions(boundary)
        verts = np.asarray([v for v, _ in entries], dtype=np.int64)
        dists = np.asarray([d for _, d in entries])
        fq.insert(verts, dists)
        fq.refresh_boundaries(setpoint=10.0, alpha=1.0)
        out = fq.extract_all()
        assert sorted(out.tolist()) == sorted(verts.tolist())
        assert fq.total() == 0


class ReferencePartitions:
    """The partition protocol with every scan starting at partition 0.

    Kept as the executable reference for :class:`FarQueuePartitions`,
    whose running total and current-partition invariant must not change
    any observable result.
    """

    def __init__(self, initial_boundary: float):
        self.uppers: List[float] = [float(initial_boundary), math.inf]
        self.chunks: List[List[np.ndarray]] = [[], []]
        self.counts: List[int] = [0, 0]
        self.current = 0

    def total(self) -> int:
        return int(sum(self.counts))

    def advance_current(self) -> None:
        for i, count in enumerate(self.counts):
            if count:
                self.current = i
                return
        self.current = len(self.uppers) - 1

    def current_partition(self):
        self.advance_current()
        i = self.current
        return self.counts[i], self.uppers[i], self.uppers[i - 1] if i else 0.0

    def min_occupied_lower(self) -> float:
        lower = 0.0
        for upper, count in zip(self.uppers, self.counts):
            if count:
                return lower
            lower = upper
        return math.inf

    def insert(self, vertices: np.ndarray, distances: np.ndarray) -> None:
        if vertices.size == 0:
            return
        part = np.searchsorted(self.uppers, distances, side="left")
        order = np.argsort(part, kind="stable")
        part_s, verts_s = part[order], vertices[order]
        starts = np.flatnonzero(np.diff(part_s, prepend=-1))
        for si, start in enumerate(starts):
            end = starts[si + 1] if si + 1 < starts.size else part_s.size
            p = int(part_s[start])
            self.chunks[p].append(verts_s[start:end])
            self.counts[p] += end - start

    def extract_below(self, split: float) -> np.ndarray:
        pulled: List[np.ndarray] = []
        lower = 0.0
        for i, upper in enumerate(self.uppers):
            if lower >= split:
                break
            if self.counts[i]:
                pulled.extend(self.chunks[i])
                self.chunks[i] = []
                self.counts[i] = 0
            lower = upper
        if not pulled:
            return np.zeros(0, dtype=np.int64)
        self.advance_current()
        return np.concatenate(pulled)

    def refresh_boundaries(self, setpoint: float, alpha: float) -> None:
        self.advance_current()
        width = setpoint / alpha
        i = self.current
        while i < len(self.uppers):
            if math.isinf(self.uppers[i]):
                self.uppers.append(math.inf)
                self.chunks.append([])
                self.counts.append(0)
            prev_upper = self.uppers[i - 1] if i else 0.0
            candidate = prev_upper + width
            if candidate < self.uppers[i]:
                self.uppers[i] = candidate
            i += 1
            if i >= len(self.uppers) - 1:
                break


class PartitionsMatchReference(RuleBasedStateMachine):
    """Random operation sequences give identical results on both queues."""

    def __init__(self):
        super().__init__()
        self.queue = FarQueuePartitions(initial_boundary=10.0)
        self.ref = ReferencePartitions(initial_boundary=10.0)
        self.next_vertex = 0

    @rule(distances=st.lists(st.floats(min_value=0.0, max_value=300.0), max_size=12))
    def insert(self, distances):
        d = np.asarray(distances, dtype=np.float64)
        v = np.arange(self.next_vertex, self.next_vertex + d.size, dtype=np.int64)
        self.next_vertex += d.size
        self.queue.insert(v, d)
        self.ref.insert(v, d)

    @rule(
        split=st.one_of(
            st.floats(min_value=0.0, max_value=400.0), st.sampled_from([math.inf, math.nan])
        )
    )
    def extract_below(self, split):
        got, want = self.queue.extract_below(split), self.ref.extract_below(split)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)  # same vertices in the same order

    @rule(
        setpoint=st.floats(min_value=0.5, max_value=100.0),
        alpha=st.floats(min_value=0.05, max_value=20.0),
    )
    def refresh_boundaries(self, setpoint, alpha):
        self.queue.refresh_boundaries(setpoint, alpha)
        self.ref.refresh_boundaries(setpoint, alpha)

    @rule()
    def min_occupied_lower(self):
        assert self.queue.min_occupied_lower() == self.ref.min_occupied_lower()

    @rule()
    def current_partition(self):
        # current_index is defined once an accessor resolved it: the
        # reference leaves it behind a partition an insert just filled
        got = (
            self.queue.current_partition_size(),
            self.queue.current_partition_upper(),
            self.queue.current_partition_lower(),
        )
        assert got == self.ref.current_partition()
        assert self.queue.current_index == self.ref.current

    @invariant()
    def same_state(self):
        assert self.queue.total() == self.ref.total()
        assert self.queue.partition_sizes().tolist() == self.ref.counts
        assert self.queue.boundaries == self.ref.uppers


TestPartitionsMatchReference = PartitionsMatchReference.TestCase
TestPartitionsMatchReference.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None
)


class FlatBag:
    """The unpartitioned far queue: one bag that any positive split drains.

    Kept as the executable reference for the flat-queue ablation, which
    is a :class:`FarQueuePartitions` with one partition covering [0, ∞)
    and no Eq. 7 refresh.
    """

    def __init__(self):
        self.chunks: List[np.ndarray] = []

    def total(self) -> int:
        return sum(int(c.size) for c in self.chunks)

    def insert(self, vertices: np.ndarray) -> None:
        if vertices.size:
            self.chunks.append(vertices)

    def extract_below(self, split: float) -> np.ndarray:
        if split <= 0 or not self.chunks:  # NaN pulls all
            return np.zeros(0, dtype=np.int64)
        out, self.chunks = np.concatenate(self.chunks), []
        return out


class OnePartitionMatchesFlatBag(RuleBasedStateMachine):
    """``FarQueuePartitions(inf)`` routes, pulls and drains as one bag."""

    def __init__(self):
        super().__init__()
        self.queue = FarQueuePartitions(math.inf)
        self.ref = FlatBag()
        self.next_vertex = 0

    @rule(distances=st.lists(st.floats(min_value=0.0, max_value=1e12), max_size=12))
    def insert(self, distances):
        d = np.asarray(distances, dtype=np.float64)
        v = np.arange(self.next_vertex, self.next_vertex + d.size, dtype=np.int64)
        self.next_vertex += d.size
        self.queue.insert(v, d)
        self.ref.insert(v)

    @rule(
        split=st.one_of(
            st.floats(min_value=-1.0, max_value=1e12), st.sampled_from([0.0, math.inf, math.nan])
        )
    )
    def extract_below(self, split):
        got, want = self.queue.extract_below(split), self.ref.extract_below(split)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)  # same vertices in the same order

    @rule()
    def window_inputs(self):
        """What the stepper reads: the controller's Eq. 8 inputs and the drain's probe."""
        total = self.ref.total()
        assert self.queue.current_partition_size() == total
        assert self.queue.current_partition_upper() == math.inf
        assert self.queue.min_occupied_lower() == (0.0 if total else math.inf)

    @invariant()
    def same_state(self):
        assert self.queue.total() == self.ref.total()
        assert self.queue.boundaries == [math.inf, math.inf]
        assert self.queue.partition_sizes().tolist() == [self.ref.total(), 0]


TestOnePartitionMatchesFlatBag = OnePartitionMatchesFlatBag.TestCase
TestOnePartitionMatchesFlatBag.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
