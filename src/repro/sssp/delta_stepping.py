"""Classic Meyer–Sanders delta-stepping.

The algorithmic ancestor of the near+far method: vertices live in
buckets of width ``delta``; the smallest non-empty bucket is drained by
repeatedly relaxing its *light* edges (weight <= delta), then its
accumulated vertices' *heavy* edges are relaxed once.

Included as a second parallel baseline (the paper positions near+far as
a delta-stepping variation) and as another correctness cross-check.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sssp.deadline import check_deadline
from repro.sssp.frontier import edge_offsets, sorted_unique
from repro.sssp.nearfar import finite_positive, suggest_delta
from repro.sssp.result import SSSPResult

__all__ = ["delta_stepping"]


def _relax_edges(
    graph: CSRGraph,
    frontier: np.ndarray,
    dist: np.ndarray,
    light: bool,
    delta: float,
) -> tuple[np.ndarray, int]:
    """Relax the light or heavy out-edges of ``frontier``.

    Returns (improved unique endpoints, relaxation count).
    """
    offsets, counts = edge_offsets(graph.indptr, frontier)
    if offsets.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    v = graph.indices[offsets].astype(np.int64)
    w = graph.weights[offsets]
    mask = (w <= delta) if light else (w > delta)
    v, w = v[mask], w[mask]
    if v.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    du = np.repeat(dist[frontier], counts)[mask]
    cand = du + w
    old = dist[v]
    np.minimum.at(dist, v, cand)
    improved = sorted_unique(v[cand < old])
    return improved, int(v.size)


def delta_stepping(
    graph: CSRGraph,
    source: int,
    delta: float | None = None,
    *,
    deadline: float | None = None,
) -> SSSPResult:
    """Meyer–Sanders delta-stepping with a fixed bucket width.

    ``delta`` (finite and positive) defaults to the average edge weight
    (a common heuristic).
    Requires non-negative weights.  Past ``deadline`` (see
    :mod:`repro.sssp.deadline`) the run stops with ``DeadlineExceeded``.
    """
    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    if graph.has_negative_weights():
        raise ValueError("delta-stepping requires non-negative edge weights")
    delta = suggest_delta(graph) if delta is None else finite_positive("delta", delta)

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    active = np.zeros(n, dtype=bool)
    active[source] = True
    iterations = 0
    relaxations = 0

    while active.any():
        act_idx = np.flatnonzero(active)
        dmin = dist[act_idx].min()
        # at least one float step above dmin, or a tiny delta empties the bucket
        upper = max((np.floor(dmin / delta) + 1) * delta, np.nextafter(dmin, np.inf))
        settled_this_phase: list[np.ndarray] = []

        # inner loop: drain the bucket below upper via light edges
        while True:
            in_bucket = act_idx[dist[act_idx] < upper]
            if in_bucket.size == 0:
                break
            if deadline is not None:
                check_deadline(deadline, "delta-stepping", iterations)
            active[in_bucket] = False
            settled_this_phase.append(in_bucket)
            improved, r = _relax_edges(graph, in_bucket, dist, light=True, delta=delta)
            relaxations += r
            iterations += 1
            active[improved] = True
            act_idx = np.flatnonzero(active)

        # heavy edges of everything settled in this phase, once
        if settled_this_phase:
            settled = sorted_unique(np.concatenate(settled_this_phase))
            improved, r = _relax_edges(graph, settled, dist, light=False, delta=delta)
            relaxations += r
            active[improved] = True

    return SSSPResult(
        dist=dist,
        source=source,
        iterations=iterations,
        relaxations=relaxations,
        algorithm="delta-stepping",
        extra={"delta": delta},
    )
