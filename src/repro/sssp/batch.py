"""Multi-source batches.

Single-source runs are sensitive to where the source sits (a hub vs a
peripheral vertex changes the whole parallelism profile).  Experiments
that want source-robust statistics run a batch: sample sources, run
the same algorithm from each, and aggregate the traces.

The aggregation deliberately keeps per-run identity (a list of runs,
not a blended trace): parallelism distributions may be pooled, but
times/iterations are per-run quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.instrument.stats import DistributionSummary, summarize
from repro.instrument.trace import RunTrace
from repro.sssp.result import SSSPResult

__all__ = ["BatchRun", "sample_sources", "batch_run", "pooled_parallelism"]

# an algorithm runner: (graph, source) -> (result, trace)
Runner = Callable[[CSRGraph, int], Tuple[SSSPResult, RunTrace]]


def sample_sources(
    graph: CSRGraph,
    count: int,
    *,
    seed: int = 0,
    min_out_degree: int = 1,
) -> np.ndarray:
    """Sample ``count`` distinct sources with at least ``min_out_degree``.

    Degenerate sources (sinks) make trivial runs; requiring an out
    degree keeps the batch meaningful.  Raises if the graph cannot
    supply enough candidates.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    degrees = np.diff(graph.indptr)
    candidates = np.flatnonzero(degrees >= min_out_degree)
    if candidates.size == 0:
        raise ValueError(
            f"graph {graph.name!r} ({graph.num_nodes} nodes, "
            f"{graph.num_edges} edges) has no vertices with out-degree "
            f">= {min_out_degree}; there is nothing to sample"
        )
    if candidates.size < count:
        raise ValueError(
            f"graph has only {candidates.size} vertices with out-degree "
            f">= {min_out_degree}; cannot sample {count}"
        )
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(candidates, size=count, replace=False))


@dataclass
class BatchRun:
    """Results of one algorithm over a batch of sources."""

    label: str
    sources: np.ndarray
    results: List[SSSPResult]
    traces: List[RunTrace]

    @property
    def count(self) -> int:
        """Number of runs in the batch."""
        return len(self.results)

    def iterations(self) -> np.ndarray:
        """Per-run iteration counts, in source order."""
        return np.asarray([r.iterations for r in self.results])

    def relaxations(self) -> np.ndarray:
        """Per-run edge-relaxation counts, in source order."""
        return np.asarray([r.relaxations for r in self.results])

    def reached(self) -> np.ndarray:
        """Per-run counts of vertices reached from the source."""
        return np.asarray([r.num_reached for r in self.results])

    def parallelism_summary(self) -> DistributionSummary:
        """Distribution of X^(2) pooled across every run and iteration."""
        return summarize(pooled_parallelism(self.traces))

    def as_row(self) -> dict:
        """One summary-table row: iterations, relaxations, pooled X^(2)."""
        s = self.parallelism_summary()
        return {
            "algorithm": self.label,
            "sources": self.count,
            "median iters": float(np.median(self.iterations())),
            "mean relax": float(self.relaxations().mean()),
            "pooled median par": round(s.median, 1),
            "pooled cv": round(s.cv, 3),
        }


def batch_run(
    graph: CSRGraph,
    sources: Sequence[int] | np.ndarray,
    runner: Runner,
    *,
    label: str = "batch",
) -> BatchRun:
    """Run ``runner`` from every source, in source order, on the calling
    thread; any callable works.

    Threads would not help: two ran the robustness experiment in
    0.703 s wall against 0.577 s serially (2-vCPU host; see
    :mod:`repro.service.pool`).  A batch of fixed-delta near+far
    queries that needs no traces is faster as one multi-source pass,
    :func:`repro.sssp.batch_kernels.batched_nearfar_sssp`.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        raise ValueError("sources must be non-empty")
    results: List[SSSPResult] = []
    traces: List[RunTrace] = []
    for s in sources:
        result, trace = runner(graph, int(s))
        results.append(result)
        traces.append(trace)
    return BatchRun(label=label, sources=sources, results=results, traces=traces)


def pooled_parallelism(traces: Sequence[RunTrace]) -> np.ndarray:
    """Concatenate the per-iteration parallelism of many runs."""
    series = [t.parallelism for t in traces if len(t)]
    if not series:
        return np.zeros(0)
    return np.concatenate(series)
