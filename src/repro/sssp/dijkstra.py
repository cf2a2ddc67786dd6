"""Binary-heap Dijkstra — the correctness oracle.

Deliberately simple and obviously-correct (lazy deletion heap); every
parallel algorithm in the package is property-tested against it.  The
settled order stays strictly sequential, but the per-edge relaxation
is degree-adaptive: a vertex whose adjacency list reaches
``_SLICE_THRESHOLD`` out-edges is relaxed as one CSR slice (a NumPy
gather + vectorised candidate/improvement computation), while
low-degree vertices take a tight Python loop over pre-converted lists.

Why not slice everything?  On road-like graphs (average degree ~4)
the fixed NumPy dispatch cost per pop is ~4x *slower* than the scalar
loop; on power-law graphs the hubs are exactly where slicing wins.
The hybrid is faster on both families, and the oracle backs the chaos
drills and the batched acceptance tests where it dominated runtime.
Both branches perform the identical ``du + w`` float64 additions and
keep sequential duplicate-edge semantics, so distances are unchanged
bit for bit versus the classic per-edge loop.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sssp.deadline import check_deadline
from repro.sssp.result import SSSPResult

__all__ = ["dijkstra"]

# Degree at which a NumPy CSR-slice relaxation beats the scalar loop
# (measured on cal_like/wiki_like; the crossover is broad, not sharp).
_SLICE_THRESHOLD = 32


def dijkstra(
    graph: CSRGraph,
    source: int,
    *,
    with_pred: bool = False,
    deadline: float | None = None,
) -> SSSPResult:
    """Exact single-source shortest paths for non-negative weights.

    Raises ``ValueError`` on negative edge weights (use
    :func:`repro.sssp.bellman_ford.bellman_ford` for those).  A
    ``deadline`` (see :mod:`repro.sssp.deadline`) is read every 256
    pops, from the first.
    """
    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    if graph.has_negative_weights():
        raise ValueError("Dijkstra requires non-negative edge weights")

    dist = np.full(n, np.inf)  # NumPy mirror, used for vector gathers
    pred = np.full(n, -1, dtype=np.int64) if with_pred else None
    dist[source] = 0.0
    if graph.indptr[source] == graph.indptr[source + 1]:
        # isolated source: skip the O(m) list conversions entirely
        return SSSPResult(
            dist=dist,
            source=source,
            pred=pred,
            iterations=0,
            relaxations=0,
            algorithm="dijkstra",
        )
    dl = dist.tolist()  # Python-scalar copy for the tight loop
    heap: list[tuple[float, int]] = [(0.0, source)]
    push = heapq.heappush
    pop = heapq.heappop
    relaxations = 0
    pops = 0

    indices, weights = graph.indices, graph.weights
    indptr_l = graph.indptr.tolist()
    indices_l = indices.tolist()
    weights_l = weights.tolist()
    while heap:
        if deadline is not None:
            if not pops & 255:
                check_deadline(deadline, "dijkstra", pops)
            pops += 1
        du, u = pop(heap)
        if du > dl[u]:
            continue  # stale entry
        lo = indptr_l[u]
        hi = indptr_l[u + 1]
        deg = hi - lo
        relaxations += deg
        if deg < _SLICE_THRESHOLD:
            for e in range(lo, hi):
                v = indices_l[e]
                cand = du + weights_l[e]
                if cand < dl[v]:
                    dl[v] = cand
                    dist[v] = cand
                    if pred is not None:
                        pred[v] = u
                    push(heap, (cand, v))
        else:
            vs = indices[lo:hi]
            cand = du + weights[lo:hi]
            improved = cand < dist[vs]
            if improved.any():
                # re-check against dl so parallel edges to the same
                # target resolve exactly as the sequential loop does
                for c, v in zip(cand[improved].tolist(), vs[improved].tolist()):
                    if c < dl[v]:
                        dl[v] = c
                        dist[v] = c
                        if pred is not None:
                            pred[v] = u
                        push(heap, (c, v))

    return SSSPResult(
        dist=dist,
        source=source,
        pred=pred,
        iterations=0,
        relaxations=relaxations,
        algorithm="dijkstra",
    )
