"""Vectorised frontier-stage primitives shared by all frontier SSSP variants.

These four functions are the Python analogues of the Gunrock kernels
the paper instruments (Section 3.1):

* :func:`advance` — explore all out-edges of the frontier, relax
  distances (``np.minimum.at`` plays the role of ``atomicMin``), and
  return the improved endpoints.  Its *output size* — the total
  neighbour-list length — is the paper's ``X^(2)`` parallelism metric.
* :func:`filter_frontier` — deduplicate improved endpoints (``X^(3)``)
  with :func:`sorted_unique`.
* :func:`bisect` — split vertices into near (< split) and far (>= split).
* :func:`drain_far_queue` — the baseline bisect-far-queue stage: advance
  the phase window until the frontier is non-empty, dropping stale
  far-queue entries.  The new split is at least one float step above
  the nearest far distance, so a delta below the distances' spacing
  still makes progress.

The ``batched_*`` variants generalise each stage to **B simultaneous
queries** over the same CSR arrays.  State lives in a flat
``dist[B * n]`` array and vertices are addressed by *composite keys*
``query_id * n + v``, so one ``np.minimum.at`` sweep relaxes every
query's edges at once — the multi-source analogue of bucket fusion
(Dong et al. 2021): per-stage ufunc overhead is paid once per sweep,
not once per query.  With ``B = 1`` the batched stages perform exactly
the same floating-point operations in the same order as the
single-source ones, which the acceptance tests pin byte-for-byte.
The batched drain keeps only each query's split (no ``lower`` edge or
band count, which only the single-source trace records), and callers
that already hold a key array's query ids pass them in (``frontier_q``,
``far_q``) instead of dividing by ``n`` again.

Hot paths contain no per-vertex Python loops; everything is CSR slicing
plus ufunc reductions, per the scientific-python optimisation guides.
Two numpy 2.4 costs shape them (timed on a 2-vCPU Intel Xeon VM):
``np.unique`` on int64 takes a hash-table path about 9x slower than
sorting (527 vs 58 µs on 5.7k keys), so every dedup goes through
:func:`sorted_unique`; and ``a[mask]`` with a random, roughly half-true
mask is about 3x slower than ``a.compress(mask)`` (68 vs 19 µs on 11k
elements), so such selections use the ``compress`` method.  Its
``np.compress`` spelling adds ~1.5 µs of Python dispatch per call,
more than it saves on the ~100-key frontiers of a 2-source batch.  A
nearly all-true mask (dedup's keep mask, the single-source bisect) is
faster as a boolean index.  At that size every function-form wrapper
costs more than its data, so this module uses the method forms:
``x.repeat(counts)``, ``a.cumsum()``, ``.any()``/``.all()``, a copy
and ``.sort()``, ``np.empty`` plus ``fill`` (1-2 µs less per call on
300 elements; ``tests/test_hot_path_idioms.py`` keeps it that way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "AdvanceOutput",
    "BatchedAdvanceOutput",
    "advance",
    "batched_advance",
    "batched_bisect",
    "batched_drain_far",
    "batched_filter",
    "bisect",
    "drain_far_queue",
    "edge_offsets",
    "filter_frontier",
    "sorted_unique",
]

_EMPTY = np.zeros(0, dtype=np.int64)
_MAX_BANDS = 2.0**62  # caps drain_far_queue's band count, which a tiny delta overflows


def edge_offsets(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Edge offsets of the CSR ``rows`` and each row's out-degree.

    ``offsets`` is ``concatenate([arange(indptr[r], indptr[r + 1]) for r
    in rows])`` built with one edge-sized ``np.repeat``: each row's start
    minus its rank in the concatenation is repeated, then one ``arange``
    is added.  Those two are edge-sized, which makes this the hottest
    block of an advance.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    if counts.size == 0:
        return _EMPTY, counts
    shift = starts + counts  # starts minus the exclusive prefix sum of counts
    shift -= counts.cumsum()
    offsets = shift.repeat(counts)
    offsets += np.arange(offsets.size, dtype=np.int64)
    return offsets, counts


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by sort + adjacent-diff, without its hash table.

    Same values and dtype as ``np.unique`` for int64 keys.  The keep
    mask is nearly all true, so it stays a boolean index.
    """
    if keys.size == 0:
        return _EMPTY
    keys = keys.copy()
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


@dataclass
class AdvanceOutput:
    """What one advance stage produced."""

    improved: np.ndarray  # improved endpoint per winning relaxation (with duplicates)
    x2: int  # total neighbour-list length == advance output size == parallelism
    relaxations: int  # edges whose relaxation was attempted (== x2)


def advance(graph: CSRGraph, frontier: np.ndarray, dist: np.ndarray) -> AdvanceOutput:
    """Relax every out-edge of ``frontier`` in place on ``dist``.

    Semantics match a GPU advance kernel with ``atomicMin``: all
    candidate distances are computed from the pre-stage ``dist`` values
    of the frontier, then written with an atomic minimum.  The improved
    array holds every endpoint whose candidate beat its pre-stage
    distance (duplicates included, exactly what Gunrock's filter stage
    receives).
    """
    offsets, counts = edge_offsets(graph.indptr, frontier)
    x2 = int(offsets.size)
    if x2 == 0:
        return AdvanceOutput(improved=_EMPTY, x2=0, relaxations=0)

    v = graph.indices[offsets].astype(np.int64)
    cand = dist[frontier].repeat(counts)
    cand += graph.weights[offsets]

    old = dist[v]  # pre-stage snapshot (atomic-read-before-write semantics)
    np.minimum.at(dist, v, cand)
    improved = v.compress(cand < old)
    return AdvanceOutput(improved=improved, x2=x2, relaxations=x2)


def filter_frontier(improved: np.ndarray) -> np.ndarray:
    """Deduplicate advance output: the filter stage (``X^(3)`` = result size)."""
    return sorted_unique(improved)


def bisect(
    vertices: np.ndarray, dist: np.ndarray, split: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``vertices`` into (near, far) by ``dist < split``."""
    if vertices.size == 0:
        return _EMPTY, _EMPTY
    mask = dist[vertices] < split
    return vertices[mask], vertices[~mask]


def drain_far_queue(
    far: np.ndarray,
    dist: np.ndarray,
    lower: float,
    split: float,
    delta: float,
) -> Tuple[np.ndarray, np.ndarray, float, float, int]:
    """Baseline bisect-far-queue: pull the next non-empty distance band.

    Starting from window ``[lower, split)``, advances the window in
    ``delta``-wide bands until some far-queue vertices fall inside it
    (or the queue empties).  Stale entries — vertices whose current
    distance already dropped below the old split (they were
    re-processed via the near queue) — are discarded, as in Davidson
    et al.'s far-pile compaction.  Empty bands are skipped in one jump
    (``drains`` still counts how many bands were crossed), so draining
    is O(|far|) regardless of how small ``delta`` is.

    Returns ``(frontier, far_remaining, lower, split, drains)``.
    """
    if far.size == 0:
        return _EMPTY, _EMPTY, lower, split, 0
    if not delta > 0:
        raise ValueError("delta must be positive to drain the far queue")

    far = sorted_unique(far)
    d = dist[far]
    live = d >= split  # entries below the split are stale duplicates
    far, d = far[live], d[live]
    if far.size == 0:
        return _EMPTY, _EMPTY, lower, split, 1

    lower = split
    dmin = float(d.min())
    # a delta below the spacing of the distances still pulls the dmin band
    split = max(split + delta, dmin + delta, math.nextafter(dmin, math.inf))
    drains = max(1, math.ceil(min((split - lower) / delta, _MAX_BANDS)))
    near_mask = d < split
    return far[near_mask], far[~near_mask], lower, split, drains


# ----------------------------------------------------------------------
# batched (multi-source) stage primitives
# ----------------------------------------------------------------------
@dataclass
class BatchedAdvanceOutput:
    """What one batched advance sweep produced, per query and pooled."""

    improved: np.ndarray  # improved composite keys (duplicates included)
    x2: int  # pooled neighbour-list length across every query
    relaxations_per_query: np.ndarray  # int64[B], edges relaxed per query


def batched_advance(
    graph: CSRGraph,
    frontier: np.ndarray,
    dist: np.ndarray,
    num_queries: int,
    frontier_q: np.ndarray | None = None,
) -> BatchedAdvanceOutput:
    """Relax the out-edges of a flattened multi-query frontier.

    ``frontier`` holds composite keys ``q * n + u``; ``dist`` is the
    flat ``B * n`` distance array.  One gather builds every query's
    edge candidates, one ``np.minimum.at`` commits them — atomicMin
    semantics identical to :func:`advance`, shared across all B
    queries.  Keys of distinct queries can never collide (they live in
    disjoint ``[q*n, (q+1)*n)`` ranges), so queries stay independent.
    ``frontier_q`` may carry a precomputed ``frontier // n``.
    """
    n = graph.num_nodes
    B = int(num_queries)
    if frontier.size == 0:
        return BatchedAdvanceOutput(
            improved=_EMPTY, x2=0,
            relaxations_per_query=np.zeros(B, dtype=np.int64),
        )
    q = frontier // n if frontier_q is None else frontier_q
    qn = q * n
    offsets, counts = edge_offsets(graph.indptr, frontier - qn)
    x2 = int(offsets.size)
    relax = np.zeros(B, dtype=np.int64)
    np.add.at(relax, q, counts)
    if x2 == 0:
        return BatchedAdvanceOutput(
            improved=_EMPTY, x2=0, relaxations_per_query=relax
        )

    v = graph.indices[offsets]
    w = graph.weights[offsets]
    cand = dist[frontier].repeat(counts)
    cand += w
    vkeys = qn.repeat(counts)
    vkeys += v

    old = dist[vkeys]  # pre-sweep snapshot (atomic-read-before-write)
    np.minimum.at(dist, vkeys, cand)
    improved = vkeys.compress(cand < old)
    return BatchedAdvanceOutput(
        improved=improved, x2=x2, relaxations_per_query=relax
    )


def batched_filter(improved: np.ndarray) -> np.ndarray:
    """Deduplicate improved composite keys across every query at once.

    Sorting composite keys is simultaneously a global sort and a
    per-query dedup, because each query owns a disjoint key range — for
    ``B = 1`` the result is identical to :func:`filter_frontier`.
    """
    return sorted_unique(improved)


def batched_bisect(
    keys: np.ndarray, dist: np.ndarray, splits: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split composite ``keys`` into (near, far) by *per-query* windows.

    ``splits[q]`` is query ``q``'s current split value; a key goes near
    when its distance falls below its own query's split.
    """
    if keys.size == 0:
        return _EMPTY, _EMPTY
    mask = dist[keys] < splits[keys // n]
    return keys.compress(mask), keys.compress(~mask)


def batched_drain_far(
    far: np.ndarray,
    dist: np.ndarray,
    n: int,
    split: np.ndarray,
    delta: np.ndarray,
    need: np.ndarray,
    far_q: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query bisect-far-queue over a flattened multi-query far set.

    Mirrors :func:`drain_far_queue` independently for every query whose
    ``need`` flag is set (near queue empty, far queue not), in one
    vectorised pass: stale entries are dropped, each draining query's
    window jumps to ``max(split + delta, dmin + delta)`` (``dmin`` its
    least live far distance, via ``np.minimum.at``; at least one float
    step above ``dmin``), and entries now inside the new window become that
    query's next frontier.  Entries of queries not in ``need`` pass
    through untouched.  A draining query with only stale entries keeps
    its window (nothing to pull) and simply loses the stale entries,
    finishing the query.

    Returns ``(frontier, far_remaining, split)``; the ``split`` passed
    in is never written to.  Only the split is kept: the window's lower edge and the
    band count of :func:`drain_far_queue` feed its trace records, which
    the batched kernel does not keep.  ``far_q`` may carry a
    precomputed ``far // n``.
    """
    if not delta.min() > 0:  # NaN too
        raise ValueError("delta must be positive to drain the far queue")
    if far.size == 0:
        return _EMPTY, _EMPTY, split

    sel = need[far // n if far_q is None else far_q]
    keep = far.compress(~sel)
    cand = sorted_unique(far.compress(sel))
    qc = cand // n
    d = dist[cand]
    live = d >= split[qc]  # entries below the split are stale duplicates
    cand, qc, d = cand.compress(live), qc.compress(live), d.compress(live)

    dmin = np.empty(split.size)
    dmin.fill(np.inf)
    np.minimum.at(dmin, qc, d)  # stays inf for queries with nothing live
    window = np.maximum(split + delta, dmin + delta)
    np.maximum(window, np.nextafter(dmin, np.inf), out=window)
    split = np.where(np.isfinite(dmin), window, split)

    near_mask = d < split[qc]
    frontier = cand.compress(near_mask)
    far_remaining = np.concatenate([keep, cand.compress(~near_mask)])
    return frontier, far_remaining, split
