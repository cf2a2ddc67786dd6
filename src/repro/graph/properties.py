"""Structural graph properties.

These back two things: validation that the synthetic Table 1 stand-ins
have the traits the paper attributes to the originals (Cal: high
diameter / low degree; Wiki: heavy tail / low diameter), and general
test assertions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sssp.frontier import edge_offsets

__all__ = [
    "GraphStats",
    "degree_statistics",
    "graph_stats",
    "bfs_levels",
    "reachable_count",
    "is_connected_from",
    "estimate_diameter",
    "weakly_connected_components",
]


@dataclass(frozen=True)
class GraphStats:
    """Summary row matching the columns of the paper's Table 1 (+extras)."""

    name: str
    num_nodes: int
    num_edges: int
    max_degree: int
    average_degree: float
    degree_p99: float
    estimated_diameter: int
    average_weight: float

    def as_row(self) -> dict:
        return {
            "Input graph": self.name,
            "Nodes": self.num_nodes,
            "Edges": self.num_edges,
            "Max degree": self.max_degree,
            "Avg degree": round(self.average_degree, 2),
            "P99 degree": round(self.degree_p99, 1),
            "Est. diameter": self.estimated_diameter,
            "Avg weight": round(self.average_weight, 2),
        }


def degree_statistics(graph: CSRGraph) -> dict:
    """Out-degree distribution summary."""
    deg = np.diff(graph.indptr)
    if deg.size == 0:
        return {"max": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "zeros": 0}
    return {
        "max": int(deg.max()),
        "mean": float(deg.mean()),
        "p50": float(np.percentile(deg, 50)),
        "p99": float(np.percentile(deg, 99)),
        "zeros": int((deg == 0).sum()),
    }


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Unweighted BFS hop counts from ``source`` (-1 for unreachable).

    Vectorised frontier expansion over CSR — the same advance machinery
    the SSSP kernels use, minus weights.
    """
    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        # gather all neighbour indices of the frontier in one shot
        offsets, _ = edge_offsets(graph.indptr, frontier)
        if offsets.size == 0:
            break
        neigh = graph.indices[offsets]
        fresh = neigh[level[neigh] < 0]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        level[fresh] = depth
        frontier = fresh
    return level


def reachable_count(graph: CSRGraph, source: int) -> int:
    """Number of vertices reachable from ``source`` (including itself)."""
    return int((bfs_levels(graph, source) >= 0).sum())


def is_connected_from(graph: CSRGraph, source: int) -> bool:
    """True if every vertex is reachable from ``source``."""
    return reachable_count(graph, source) == graph.num_nodes


def estimate_diameter(
    graph: CSRGraph, *, samples: int = 8, seed: int = 0
) -> int:
    """Lower-bound diameter estimate by double-sweep BFS from samples.

    Exact diameters are O(nm); the paper only needs "high" vs "low", so
    a sampled double sweep (max eccentricity seen) suffices.
    """
    n = graph.num_nodes
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    starts = rng.integers(0, n, size=min(samples, n))
    for s in starts:
        lv = bfs_levels(graph, int(s))
        if (lv >= 0).sum() <= 1:
            continue
        far = int(np.argmax(lv))
        best = max(best, int(lv.max()))
        lv2 = bfs_levels(graph, far)
        best = max(best, int(lv2.max()))
    return best


def weakly_connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex, via label propagation on the symmetrised graph.

    Uses pointer-jumping-style min-label propagation: O(m log n)
    vectorised iterations, no recursion.
    """
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    src, dst, _ = graph.edge_arrays()
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    label = np.arange(n, dtype=np.int64)
    while True:
        new_label = label.copy()
        np.minimum.at(new_label, d, label[s])
        np.minimum.at(new_label, s, label[d])
        # pointer jumping: compress chains
        new_label = new_label[new_label]
        if np.array_equal(new_label, label):
            break
        label = new_label
    # densify labels
    _, dense = np.unique(label, return_inverse=True)
    return dense.astype(np.int64)


def graph_stats(graph: CSRGraph, *, diameter_samples: int = 4, seed: int = 0) -> GraphStats:
    """Compute the Table 1 summary row for ``graph``."""
    deg = degree_statistics(graph)
    return GraphStats(
        name=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        max_degree=deg["max"],
        average_degree=graph.average_degree,
        degree_p99=deg["p99"],
        estimated_diameter=estimate_diameter(
            graph, samples=diameter_samples, seed=seed
        ),
        average_weight=graph.average_weight,
    )
