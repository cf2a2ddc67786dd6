"""Single-source widest path on the controlled near+far engine.

The widest-path (maximum-bottleneck) problem: maximise, over paths
from the source, the *minimum* edge weight along the path.  It is the
max-min analogue of SSSP and, like it, label-correcting: any
processing order converges to the exact widths.

The port to the near+far structure works in *key space*: each vertex
carries ``key = -width`` so that "process the widest candidates first"
becomes the familiar "process the smallest keys first", and the whole
windowing machinery — near window ``[L, S)``, far queue, drains,
dynamic delta — transfers verbatim.  Relaxation is the only changed
line: ``cand = max(key[u], -w(u, v))`` instead of ``key[u] + w``.

``adaptive_widest_path`` drives the window with the *unchanged*
:class:`~repro.core.controller.SetpointController`: the controller
only ever sees the stage workload counters, so it neither knows nor
cares that the underlying semiring changed — which is precisely the
generalisation argument of the paper's conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.controller import SetpointController
from repro.graph.csr import CSRGraph
from repro.instrument.trace import RunTrace
from repro.sssp.frontier import edge_offsets, sorted_unique
from repro.sssp.nearfar import finite_positive
from repro.sssp.result import SSSPResult

__all__ = [
    "WidestPathParams",
    "widest_path_reference",
    "widest_path",
    "adaptive_widest_path",
]

_EMPTY = np.zeros(0, dtype=np.int64)
_NAN = float("nan")


@dataclass(frozen=True)
class WidestPathParams:
    """Configuration of the adaptive widest-path run."""

    setpoint: float
    initial_delta: float | None = None
    max_iterations: int = 0

    def __post_init__(self) -> None:
        finite_positive("setpoint", self.setpoint)
        if self.initial_delta is not None:
            finite_positive("initial_delta", self.initial_delta)
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


def widest_path_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """Oracle: max-heap Dijkstra for bottleneck widths.

    Returns widths with the conventions ``width[source] = +inf`` and
    ``-inf`` for unreachable vertices.
    """
    import heapq

    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    width = np.full(n, -np.inf)
    width[source] = np.inf
    heap = [(-np.inf, source)]  # (-width, vertex): widest first
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while heap:
        neg_w, u = heapq.heappop(heap)
        if -neg_w < width[u]:
            continue
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            cand = min(width[u], weights[e])
            if cand > width[v]:
                width[v] = cand
                heapq.heappush(heap, (-cand, int(v)))
    return width


def _advance_widest(
    graph: CSRGraph, frontier: np.ndarray, key: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Max-min relaxation of the frontier's out-edges (key space).

    Returns (improved endpoints with duplicates, total edges == X^(2)).
    """
    offsets, counts = edge_offsets(graph.indptr, frontier)
    x2 = int(offsets.size)
    if x2 == 0:
        return _EMPTY, 0
    v = graph.indices[offsets].astype(np.int64)
    w = graph.weights[offsets]
    ku = np.repeat(key[frontier], counts)
    cand = np.maximum(ku, -w)  # key = -width; bottleneck = max of keys
    old = key[v]
    np.minimum.at(key, v, cand)
    return v[cand < old], x2


def _run_widest(
    graph: CSRGraph,
    source: int,
    delta: float,
    controller: SetpointController | None,
    max_iterations: int,
) -> Tuple[SSSPResult, RunTrace]:
    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    if graph.num_edges and graph.weights.min() <= 0:
        raise ValueError("widest path requires positive edge weights")

    key = np.full(n, np.inf)
    key[source] = -np.inf
    advanced_at = np.full(n, np.inf)
    frontier = np.array([source], dtype=np.int64)
    far = _EMPTY

    # the key floor: no reachable vertex can have key below -max weight
    key_floor = -float(graph.weights.max()) if graph.num_edges else 0.0
    lower, split = key_floor, key_floor + delta

    algorithm = "adaptive-widest" if controller else "nearfar-widest"
    trace = RunTrace(algorithm=algorithm, graph_name=graph.name, source=source)
    iterations = 0
    relaxations = 0

    while frontier.size:
        iterations += 1
        x1 = int(frontier.size)
        if controller:
            controller.begin_iteration(x1)

        advanced_at[frontier] = key[frontier]
        improved, x2 = _advance_widest(graph, frontier, key)
        relaxations += x2
        if controller:
            controller.observe_advance(x1, x2)

        unique_improved = sorted_unique(improved)
        x3 = int(unique_improved.size)

        mask = key[unique_improved] < split
        near = unique_improved[mask]
        far_add = unique_improved[~mask]
        if far_add.size:
            far = np.concatenate([far, far_add])
        x4 = int(near.size)

        delta_now = delta
        moved_from_far = 0
        if controller:
            decision = controller.plan(
                x4,
                window_lower=lower,
                window_split=split,
                far_total=int(far.size),
                far_partition_size=int(far.size),
                far_partition_upper=split + 4.0 * controller.delta,
            )
            delta_now = decision.delta
            new_split = lower + delta_now
            if new_split > split and far.size:
                far = sorted_unique(far)
                live = far[key[far] < advanced_at[far]]
                pull = live[key[live] < new_split]
                if pull.size:
                    near = sorted_unique(np.concatenate((near, pull)))
                    moved_from_far = int(pull.size)
                far = live[key[live] >= new_split]
            elif new_split < split and near.size:
                keep = key[near] < new_split
                postponed = near[~keep]
                if postponed.size:
                    far = np.concatenate([far, postponed])
                near = near[keep]
            split = new_split

        frontier = near
        drains = 0
        if frontier.size == 0 and far.size:
            far = sorted_unique(far)
            live = far[key[far] < advanced_at[far]]
            if live.size:
                drains = 1
                k_live = key[live]
                lower = split
                split = max(split + delta_now, float(k_live.min()) + delta_now)
                inside = k_live < split
                frontier = live[inside]
                far = live[~inside]
            else:
                far = _EMPTY
            if controller:
                controller.invalidate_pending()

        d, alpha = (controller.d, controller.alpha) if controller else (_NAN, _NAN)
        trace.rows.append(
            (x1, x2, x3, x4, delta_now, split, int(far.size), drains,
             moved_from_far, 0, 0, d, alpha, 0.0)
        )
        if max_iterations and iterations >= max_iterations:
            break

    # back to width space: width = -key (+inf source, -inf unreachable)
    width = -key
    result = SSSPResult(
        dist=width,  # "dist" carries the widths for this primitive
        source=source,
        iterations=iterations,
        relaxations=relaxations,
        algorithm=algorithm,
        extra={"primitive": "widest-path", "delta": delta},
    )
    return result, trace


def _default_delta(graph: CSRGraph) -> float:
    if graph.num_edges == 0:
        return 1.0
    span = float(graph.weights.max() - graph.weights.min())
    return max(span / 10.0, 1e-9)


def widest_path(
    graph: CSRGraph, source: int, delta: float | None = None
) -> Tuple[SSSPResult, RunTrace]:
    """Fixed-delta near+far widest path (the baseline analogue)."""
    d = _default_delta(graph) if delta is None else finite_positive("delta", delta)
    return _run_widest(graph, source, d, controller=None, max_iterations=0)


def adaptive_widest_path(
    graph: CSRGraph, source: int, params: WidestPathParams
) -> Tuple[SSSPResult, RunTrace, SetpointController]:
    """Self-tuning widest path: the unchanged SSSP controller steers it."""
    delta0 = (
        params.initial_delta
        if params.initial_delta is not None
        else _default_delta(graph)
    )
    controller = SetpointController(
        params.setpoint,
        delta0,
        initial_d=max(graph.average_degree, 1.0),
    )
    result, trace = _run_widest(
        graph, source, delta0, controller, params.max_iterations
    )
    return result, trace, controller
