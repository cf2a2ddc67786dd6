"""KLA-style SSSP: k-level asynchronous execution.

The paper's related work contrasts its per-iteration delta tuning with
the KLA paradigm (Harshvardhan et al., PACT'14), which "assumes a
single optimal and universal value of k" — a constant asynchrony depth
chosen once per run.  For SSSP, KLA executes supersteps of up to ``k``
asynchronous relaxation levels between global synchronisations:

* ``k = 1`` — level-synchronous (Bellman–Ford-ish) execution;
* ``k = ∞`` — fully asynchronous chaotic relaxation.

Unlike delta-stepping, KLA has no distance-based prioritisation, so
larger ``k`` buys fewer synchronisations at the cost of relaxing
through stale distances (redundant work on weighted graphs).  The
comparison experiment (:mod:`repro.experiments.kla_comparison`)
quantifies that trade-off against the near+far baseline and the
self-tuning controller.

Each asynchronous level is emitted as one trace record (an advance +
filter pair with no far-queue work), so KLA runs replay on the
platform simulator like any other frontier algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.instrument.trace import RunTrace
from repro.sssp.deadline import check_deadline
from repro.sssp.frontier import advance, filter_frontier
from repro.sssp.result import SSSPResult

__all__ = ["kla_sssp"]


def kla_sssp(
    graph: CSRGraph,
    source: int,
    k: int = 4,
    *,
    collect_trace: bool = True,
    deadline: float | None = None,
) -> tuple[SSSPResult, RunTrace]:
    """Exact SSSP with k-level asynchronous supersteps.

    Parameters
    ----------
    k:
        Asynchrony depth: relaxation levels per superstep (>= 1).
    deadline:
        See :mod:`repro.sssp.deadline` (None: none).

    Returns
    -------
    (result, trace):
        ``result.iterations`` counts *supersteps* (global syncs);
        ``result.extra['levels']`` counts relaxation levels, which is
        what the trace holds one record per.
    """
    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    if graph.has_negative_weights():
        raise ValueError("KLA SSSP requires non-negative edge weights")
    if k < 1:
        raise ValueError("k must be >= 1")

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)

    trace = RunTrace(algorithm=f"kla-k{k}", graph_name=graph.name, source=source)
    supersteps = 0
    levels = 0
    relaxations = 0

    while frontier.size:
        supersteps += 1
        # one superstep: up to k asynchronous levels
        for _ in range(k):
            if frontier.size == 0:
                break
            if deadline is not None:
                check_deadline(deadline, f"kla-k{k}", supersteps)
            levels += 1
            x1 = int(frontier.size)
            adv = advance(graph, frontier, dist)
            relaxations += adv.relaxations
            frontier = filter_frontier(adv.improved)
            if collect_trace:  # x3 = x4: no bisect; delta/split carry k/superstep
                x3 = int(frontier.size)
                trace.rows.append((x1, adv.x2, x3, x3, float(k), float(supersteps), 0, 0))
        # global synchronisation happens here (a barrier on real
        # distributed KLA; a no-op cost-wise in this shared-memory model)

    result = SSSPResult(
        dist=dist,
        source=source,
        iterations=supersteps,
        relaxations=relaxations,
        algorithm=f"kla-k{k}",
        extra={"k": k, "levels": levels},
    )
    return result, trace
