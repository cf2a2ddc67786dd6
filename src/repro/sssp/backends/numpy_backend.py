"""The default NumPy kernel backend.

A thin adapter over :mod:`repro.sssp.frontier` — the vectorised ufunc
implementations *are* the reference semantics every other backend must
match bit-for-bit, so this backend delegates rather than duplicating
them.  It has no dependencies beyond NumPy, compiles nothing, and is
always registered; it is the fallback target when an accelerated
backend's import fails.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sssp import frontier as _f
from repro.sssp.backends.base import KernelBackend
from repro.sssp.frontier import AdvanceOutput, BatchedAdvanceOutput

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Pure-NumPy kernels: ufunc sweeps over the CSR arrays.

    Every method forwards to the like-named reference function in
    :mod:`repro.sssp.frontier`, so the backend is bit-identical to the
    pre-registry code path by construction.
    """

    name = "numpy"

    def advance(
        self, graph: CSRGraph, frontier: np.ndarray, dist: np.ndarray
    ) -> AdvanceOutput:
        """Relax frontier out-edges via ``np.minimum.at`` (atomicMin)."""
        return _f.advance(graph, frontier, dist)

    def filter_frontier(self, improved: np.ndarray) -> np.ndarray:
        """Deduplicate by sort + adjacent-diff (``sorted_unique``)."""
        return _f.filter_frontier(improved)

    def bisect(
        self, vertices: np.ndarray, dist: np.ndarray, split: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mask-partition vertices against the split value."""
        return _f.bisect(vertices, dist, split)

    def drain_far_queue(
        self,
        far: np.ndarray,
        dist: np.ndarray,
        lower: float,
        split: float,
        delta: float,
    ) -> Tuple[np.ndarray, np.ndarray, float, float, int]:
        """Advance the delta window over the far queue in one pass."""
        return _f.drain_far_queue(far, dist, lower, split, delta)

    def batched_advance(
        self,
        graph: CSRGraph,
        frontier: np.ndarray,
        dist: np.ndarray,
        num_queries: int,
    ) -> BatchedAdvanceOutput:
        """One fused gather + ``np.minimum.at`` sweep for all queries."""
        return _f.batched_advance(graph, frontier, dist, num_queries)

    def batched_filter(self, improved: np.ndarray) -> np.ndarray:
        """Sort + adjacent-diff dedup of composite keys."""
        return _f.batched_filter(improved)

    def batched_bisect(
        self,
        keys: np.ndarray,
        dist: np.ndarray,
        splits: np.ndarray,
        n: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mask-partition composite keys against per-query splits."""
        return _f.batched_bisect(keys, dist, splits, n)

    def batched_drain_far(
        self,
        far: np.ndarray,
        dist: np.ndarray,
        n: int,
        lower: np.ndarray,
        split: np.ndarray,
        delta: np.ndarray,
        need: np.ndarray,
        far_q: np.ndarray | None = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised per-query window advance over the far set."""
        return _f.batched_drain_far(
            far, dist, n, lower, split, delta, need, far_q=far_q
        )
