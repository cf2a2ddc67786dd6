"""Vectorised Bellman–Ford.

A second, structurally different oracle: round-based full-edge
relaxation with ``np.minimum.at``.  Also the only algorithm here that
handles negative weights, and it detects negative cycles reachable
from the source.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sssp.deadline import check_deadline
from repro.sssp.result import SSSPResult

__all__ = ["bellman_ford", "NegativeCycleError"]


class NegativeCycleError(ValueError):
    """Raised when a negative cycle is reachable from the source."""


def bellman_ford(
    graph: CSRGraph, source: int, *, deadline: float | None = None
) -> SSSPResult:
    """Shortest paths by |V|-1 rounds of vectorised edge relaxation.

    Stops early once a round changes nothing.  One extra round detects
    negative cycles.  Past ``deadline`` (see :mod:`repro.sssp.deadline`)
    the run stops with ``DeadlineExceeded``.
    """
    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")

    src, dst, w = graph.edge_arrays()
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    relaxations = 0
    rounds = 0

    for _ in range(max(1, n - 1)):
        if deadline is not None:
            check_deadline(deadline, "bellman-ford", rounds)
        rounds += 1
        cand = dist[src] + w
        relaxations += int(src.size)
        new_dist = dist.copy()
        np.minimum.at(new_dist, dst, cand)
        converged = np.array_equal(new_dist, dist)  # inf == inf holds
        dist = new_dist
        if converged:
            break

    # negative-cycle check: one more round must be a fixed point
    if src.size:
        cand = dist[src] + w
        probe = dist.copy()
        np.minimum.at(probe, dst, cand)
        if not np.array_equal(probe, dist):
            raise NegativeCycleError("negative cycle reachable from source")

    return SSSPResult(
        dist=dist,
        source=source,
        iterations=rounds,
        relaxations=relaxations,
        algorithm="bellman-ford",
    )
