"""Baseline near+far SSSP (Davidson et al., as implemented in Gunrock).

The four-stage iteration structure of the paper's Section 3.1 with a
*fixed* delta, appending one row of ``X^(1..4)`` workload counters per
iteration to a :class:`~repro.instrument.trace.RunTrace`.  This is the
algorithm the self-tuning controller of :mod:`repro.core` takes over.

The frontier is partitioned by a moving split value ``split = (i+1)*delta``
(``i`` = current phase): vertices whose tentative distance falls below
the split are *near* (processed next iteration), the rest are postponed
on the far queue.  When the near queue empties, bisect-far-queue
advances the window and pulls the next band from the far queue.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.instrument.trace import RunTrace, publish_run
from repro.obs import context as obs
from repro.obs.events import EVENT_SCHEMA_VERSION
from repro.sssp.deadline import check_deadline
from repro.sssp.frontier import advance, bisect, drain_far_queue, filter_frontier
from repro.sssp.result import SSSPResult

__all__ = ["finite_positive", "nearfar_sssp", "suggest_delta"]


def suggest_delta(graph: CSRGraph) -> float:
    """The standard delta heuristic: average edge weight.

    Meyer & Sanders suggest ``Theta(1/max_degree)`` scaling for random
    weights; in practice Gunrock users hand-tune.  The average weight is
    the neutral default this package uses when none is given — and the
    difficulty of this manual choice is precisely the paper's
    motivation for the self-tuning controller.
    """
    return max(graph.average_weight, 1e-12)


def finite_positive(name: str, value: float) -> float:
    """``value`` if it is finite and positive, else ``ValueError``.

    The one rule for a window width or set-point (``delta``,
    ``initial_delta``, ``setpoint``) wherever a solver takes one, with
    one message per knob: NaN, ±inf, zero and negatives all fail it.
    """
    if 0.0 < value < math.inf:
        return value
    raise ValueError(f"{name} must be finite and positive, got {value}")


def nearfar_sssp(
    graph: CSRGraph,
    source: int,
    delta: float | None = None,
    *,
    max_iterations: int = 0,
    collect_trace: bool = True,
    deadline: float | None = None,
) -> Tuple[SSSPResult, RunTrace]:
    """Run the fixed-delta near+far algorithm.

    Parameters
    ----------
    graph, source:
        Problem instance (non-negative weights required).
    delta:
        The static window width (finite and positive), the knob the
        paper replaces with a controller-driven one; defaults to
        :func:`suggest_delta`.
    max_iterations:
        Safety valve for tests (0 = unlimited).
    collect_trace:
        When false, the returned trace is empty.  The run keeps its
        rows either way: the ``sssp.*`` metrics and the ``iterations``
        event of a live observability context are booked from them
        when the run ends, also when ``deadline`` stops it.
    deadline:
        See :mod:`repro.sssp.deadline` (None: none).

    Returns
    -------
    (result, trace):
        Exact shortest-path distances plus the per-iteration workload
        trace used for parallelism profiles and platform simulation.
    """
    delta = suggest_delta(graph) if delta is None else finite_positive("delta", delta)
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")

    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} nodes")
    if graph.has_negative_weights():
        raise ValueError("near+far requires non-negative edge weights")

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    far = np.zeros(0, dtype=np.int64)
    lower, split = 0.0, delta

    trace = RunTrace(
        algorithm="nearfar",
        graph_name=graph.name,
        source=source,
        meta={
            "delta": delta,
            "graph_fingerprint": graph.fingerprint(),
        },
    )
    rows = trace.rows
    iterations = 0
    relaxations = 0
    # far-queue moves; a fixed-delta row does not carry them
    moved_from_far = moved_to_far = far_scanned = 0

    ctx = obs.current()
    if ctx.events.enabled:
        ctx.events.emit(
            {
                "type": "run_start",
                "v": EVENT_SCHEMA_VERSION,
                "algorithm": "nearfar",
                "graph": graph.name,
                "source": source,
                "delta": delta,
            }
        )

    try:
        while frontier.size:
            if deadline is not None:
                check_deadline(deadline, "nearfar", iterations)
            iterations += 1
            x1 = int(frontier.size)

            # stage 1: advance
            adv = advance(graph, frontier, dist)
            relaxations += adv.relaxations

            # stage 2: filter
            unique_improved = filter_frontier(adv.improved)
            x3 = int(unique_improved.size)

            # stage 3: bisect-frontier
            near, far_add = bisect(unique_improved, dist, split)
            if far_add.size:
                far = np.concatenate([far, far_add])
                moved_to_far += int(far_add.size)
            x4 = int(near.size)

            # stage 4: bisect-far-queue
            drains = 0
            frontier = near
            if frontier.size == 0 and far.size:
                far_scanned += int(far.size)
                frontier, far, lower, split, drains = drain_far_queue(
                    far, dist, lower, split, delta
                )
                moved_from_far += int(frontier.size)

            rows.append((x1, adv.x2, x3, x4, delta, split, int(far.size), drains))
            if max_iterations and iterations >= max_iterations:
                break
    finally:
        # booked once, also when the deadline stops the run
        publish_run(
            ctx.registry, ctx.events, rows, int(np.isfinite(dist).sum()),
            (moved_from_far, moved_to_far, far_scanned),
        )

    result = SSSPResult(
        dist=dist,
        source=source,
        iterations=iterations,
        relaxations=relaxations,
        algorithm="nearfar",
        extra={"delta": delta},
    )
    if not collect_trace:
        trace.rows = []
    return result, trace
