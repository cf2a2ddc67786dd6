"""Recursively partitioned far queue (paper Section 4.6).

The controller keeps the far queue partitioned by vertex distance so
that (a) each partition's size stays near the set-point ``P`` and
(b) bisect-far-queue only has to search the partitions whose distance
range intersects the next near window, not the whole queue.

Boundary protocol, following the paper:

* Start with two partitions whose upper bounds are the average edge
  weight and ``MAX`` (+inf here).
* Partition ``i`` holds vertices with insertion distance in
  ``(B_{i-1}, B_i]``.
* Boundary update (Eq. 7): ``B_i ← B_{i-1} + P/α`` — applied only if
  it *decreases* the bound (monotonic shifts preserve correctness
  because vertices already routed are re-validated on extraction).
* If the update would touch the last partition, a fresh ``(…, +inf]``
  partition is appended first.
* When the current partition empties, the next becomes current.

Vertices are staged as numpy chunks per partition and concatenated
lazily; distances are re-checked against the live ``dist`` array at
extraction time, so stale entries (vertices improved after insertion)
are harmless.

The list grows about one partition per Eq. 7 refresh (700 after a
713-iteration solve of the benchmark's road graph), so the bookkeeping
never rescans it: a running total backs :meth:`FarQueuePartitions.total`,
the current index always names the first occupied partition (the last
one when the queue is empty), so the getters are lookups, and an insert
into one partition finds it by bisection on the bounds.

The flat-queue ablation (``AdaptiveParams(use_partitions=False)``) is
this queue with one partition covering [0, ∞): built as
``FarQueuePartitions(math.inf)`` (bounds ``[inf, inf]``) and never
refreshed, so every vertex lands in partition 0 and any range query
pulls everything — the search cost the partitioning removes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List

import numpy as np

from repro.obs import context as obs

__all__ = ["FarQueuePartitions"]

_EMPTY = np.zeros(0, dtype=np.int64)


class FarQueuePartitions:
    """Distance-partitioned far queue."""

    def __init__(self, initial_boundary: float):
        if not (initial_boundary > 0):
            raise ValueError("initial boundary must be positive")
        # uppers[i] is B_i; lower bound of partition i is uppers[i-1] (0 for i=0)
        self._uppers: List[float] = [float(initial_boundary), math.inf]
        self._chunks: List[List[np.ndarray]] = [[], []]
        self._counts: List[int] = [0, 0]
        self._total: int = 0
        # invariant: _current is the first non-empty partition, or the
        # last partition when the queue is empty
        self._current: int = 1
        reg = obs.get_registry()
        self._m_inserted = reg.counter("farq.inserted")
        self._m_extracted = reg.counter("farq.extracted")
        self._m_refreshes = reg.counter("farq.refreshes")
        self._m_partitions = reg.gauge("farq.partitions")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Live partition count (grows one per Eq. 7 overflow)."""
        return len(self._uppers)

    @property
    def boundaries(self) -> List[float]:
        """Upper bounds B_i (a copy)."""
        return list(self._uppers)

    @property
    def current_index(self) -> int:
        """Index of the current (first non-empty) partition."""
        return self._current

    def partition_sizes(self) -> np.ndarray:
        """Staged-vertex count per partition, as an int64 array."""
        return np.asarray(self._counts, dtype=np.int64)

    def total(self) -> int:
        """Total staged vertices across all partitions."""
        return self._total

    def current_partition_size(self) -> int:
        """Staged-vertex count of the current partition."""
        return self._counts[self._current]

    def current_partition_upper(self) -> float:
        """Upper distance bound B_i of the current partition."""
        return self._uppers[self._current]

    def current_partition_lower(self) -> float:
        """Lower distance bound (B_{i-1}) of the current partition."""
        return self._uppers[self._current - 1] if self._current else 0.0

    def min_occupied_lower(self) -> float:
        """Lower bound of the first non-empty partition (+inf when empty).

        Lets the drain loop jump over empty distance ranges instead of
        advancing band by band.
        """
        if not self._total:
            return math.inf
        return self.current_partition_lower()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, vertices: np.ndarray, distances: np.ndarray) -> None:
        """Route ``vertices`` to partitions by their (insertion) distances.

        Vertex with distance ``x`` lands in the partition ``i`` with
        ``B_{i-1} < x <= B_i`` — ``bisect_left`` on the upper bounds.
        Landing below the current partition makes that partition
        current.  The queue keeps ``vertices`` (or slices of a sorted
        copy of it): callers must not write to it afterwards.
        """
        size = int(vertices.size)
        if size == 0:
            return
        if size != distances.size:
            raise ValueError("vertices and distances must be parallel")
        low, high = float(distances.min()), float(distances.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("far-queue insertion distances must be finite")
        self._m_inserted.inc(size)
        self._total += size
        uppers = self._uppers
        first = bisect_left(uppers, low)
        last = bisect_left(uppers, high)
        if first == last:
            # one partition (1,089 of 1,090 inserts over 8 solves of
            # the benchmark's road graph): no sort, no list-to-array copy
            self._chunks[first].append(vertices)
            self._counts[first] += size
        else:
            part = np.searchsorted(uppers, distances, side="left")
            order = np.argsort(part, kind="stable")
            part_s = part[order]
            verts_s = vertices[order]
            starts = np.flatnonzero(np.diff(part_s, prepend=-1))
            for si, start in enumerate(starts):
                end = starts[si + 1] if si + 1 < starts.size else part_s.size
                p = int(part_s[start])
                chunk = verts_s[start:end]
                self._chunks[p].append(chunk)
                self._counts[p] += chunk.size
        if first < self._current:
            self._current = first

    def extract_below(self, split: float) -> np.ndarray:
        """Remove and return all staged vertices that *may* lie below ``split``.

        Pulls every partition whose distance range starts below
        ``split``.  The caller re-validates against the live distance
        array (entries can be stale); vertices still >= split must be
        re-inserted.
        """
        pulled: List[np.ndarray] = []
        i = self._current
        lower = self._uppers[i - 1] if i else 0.0
        while i < len(self._uppers) and not lower >= split:  # NaN pulls all
            if self._counts[i]:
                pulled.extend(self._chunks[i])
                self._chunks[i] = []
                self._counts[i] = 0
            lower = self._uppers[i]
            i += 1
        if not pulled:
            return _EMPTY
        out = np.concatenate(pulled)
        self._total -= int(out.size)
        self._current = min(i, len(self._uppers) - 1)  # all below i pulled
        self._advance_current()
        self._m_extracted.inc(int(out.size))
        return out

    def extract_all(self) -> np.ndarray:
        """Drain every partition (used by tests and the final sweep)."""
        return self.extract_below(math.inf)

    def refresh_boundaries(self, setpoint: float, alpha: float) -> None:
        """Eq. 7 sweep: ``B_i ← B_{i-1} + P/α``, monotonic decrease only.

        Runs from the current partition outward.  If the sweep reaches
        the last (+inf) partition, a new +inf partition is appended
        first so the far tail always has somewhere to live.

        Both inputs must be finite: a NaN width would leave appended
        partitions unbounded (``NaN < inf`` is false), breaking the
        one-trailing-inf invariant the sweep's termination relies on.
        """
        if not (0.0 < setpoint < math.inf and 0.0 < alpha < math.inf):
            raise ValueError("setpoint and alpha must be finite and positive")
        width = setpoint / alpha
        uppers = self._uppers
        start = self._current
        if start == len(uppers) - 1:
            # the update "belongs to the last remaining partition":
            # append a fresh +inf partition, then bound this one
            uppers.append(math.inf)
            self._chunks.append([])
            self._counts.append(0)
            if not self._total:
                self._current = start + 1  # an empty queue's current is the last
        prev_upper = uppers[start - 1] if start else 0.0
        for i in range(start, len(uppers) - 1):  # leave one trailing +inf
            prev_upper += width
            if prev_upper < uppers[i]:
                uppers[i] = prev_upper  # monotonic: decrease only
            else:
                prev_upper = uppers[i]
        self._m_refreshes.inc()
        self._m_partitions.set(len(uppers))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _advance_current(self) -> None:
        """Point ``current`` at the first non-empty partition.

        The paper moves forward only ("the next partition becomes the
        current partition"), but our rebalancer may re-insert vertices
        *below* the current partition when delta shrinks; :meth:`insert`
        then moves ``current`` back down, so the partitions below it
        are always empty and the scan starts at ``current``.  An empty
        queue jumps straight to the last partition.
        """
        counts = self._counts
        if not self._total:
            self._current = len(counts) - 1
            return
        i = self._current
        while not counts[i]:
            i += 1
        self._current = i

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FarQueuePartitions(parts={self.num_partitions}, "
            f"total={self.total()}, current={self._current})"
        )

