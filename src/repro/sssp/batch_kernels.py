"""Batched multi-source near+far SSSP: B queries, one kernel pass.

:mod:`repro.sssp.nearfar` answers one ``(graph, source)`` pair per
pass; a serving stack wants many.  This module runs **B sources
simultaneously over the shared CSR arrays** — the request-batching
lever of an inference server applied to stepping SSSP.  The per-sweep
cost of a NumPy frontier stage is a fixed ufunc/dispatch overhead plus
work proportional to the frontier; fusing B queries into one sweep
pays the overhead once instead of B times, exactly the amortisation
argument of bucket fusion (Dong et al. 2021) and wider per-step
frontiers (Blelloch et al. 2016).

Layout
------
* distances live in one flat ``dist[B * n]`` array (the ``dist[B, n]``
  matrix, flattened);
* the frontier and the far queue hold **composite keys**
  ``query_id * n + v``, so every stage is a single ufunc sweep over
  all queries at once (:func:`~repro.sssp.frontier.batched_advance`
  relaxes with one ``np.minimum.at``);
* each query keeps its own split (the top of its delta window),
  advanced independently by :func:`~repro.sssp.frontier.batched_drain_far`;
* a finished query simply stops contributing keys — it drops out of
  the flattened frontier without blocking the rest of the batch.

A 2-source sweep touches ~100 keys per stage, so it costs its ~100
numpy dispatches rather than its data.  The sweep therefore divides
the next frontier's keys by ``n`` once (the near and pulled keys' ids
serve the drain's need mask, then the next sweep's active mask and
advance), and keeps numpy's function-form wrappers out of the loop.
Under a live registry each sweep appends its active-query count and
frontier size to a row list, booked in one bulk observe per histogram
when the run ends; a disabled registry skips those reductions.

With ``B = 1`` the sweep sequence is operation-for-operation identical
to :func:`~repro.sssp.nearfar.nearfar_sssp`, so batched distances are
byte-exact against the single-source path (pinned by
``tests/sssp/test_batch_kernels.py``).  Duplicate sources are allowed:
each query owns a disjoint key range, so they run independently and
return identical results.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs import context as obs
from repro.obs.events import EVENT_SCHEMA_VERSION
from repro.sssp.deadline import check_deadline
from repro.sssp.frontier import (
    batched_advance,
    batched_bisect,
    batched_drain_far,
    batched_filter,
)
from repro.sssp.nearfar import finite_positive, suggest_delta
from repro.sssp.result import SSSPResult

__all__ = ["batched_nearfar_sssp"]

_EMPTY = np.zeros(0, dtype=np.int64)


def _delta_array(graph: CSRGraph, delta, num_queries: int) -> np.ndarray:
    """Resolve ``delta`` into a validated float64[B] array."""
    if delta is None:
        return np.full(num_queries, suggest_delta(graph))
    value = np.asarray(delta, dtype=np.float64)
    if value.ndim == 0:
        value = np.full(num_queries, float(value))
    elif value.shape != (num_queries,):
        raise ValueError(
            f"delta must be a scalar or length-{num_queries} "
            f"sequence, got shape {value.shape}"
        )
    for width in value.tolist():
        finite_positive("delta", width)
    return value


def batched_nearfar_sssp(
    graph: CSRGraph,
    sources: Sequence[int] | np.ndarray,
    delta: float | Sequence[float] | None = None,
    *,
    max_sweeps: int = 0,
    deadline: float | None = None,
) -> List[SSSPResult]:
    """Run fixed-delta near+far from every source in one batched pass.

    Parameters
    ----------
    graph:
        Problem instance (non-negative weights required).
    sources:
        The B source vertices; duplicates are allowed and answered
        independently.
    delta:
        A scalar shared by every query or a length-B sequence (one
        window width per query), each finite and positive; defaults to
        :func:`~repro.sssp.nearfar.suggest_delta`.
    max_sweeps:
        Bound on the number of global sweeps (0 = unlimited), a safety
        valve for tests.
    deadline:
        See :mod:`repro.sssp.deadline` (None: none).  A run it stops
        still books its sweeps and ``batch_run_end``.

    Returns
    -------
    list of :class:`~repro.sssp.result.SSSPResult`, in source order,
    each with its own per-query iteration and relaxation counts (a
    query's iteration count is the number of sweeps in which it still
    had frontier work).  ``extra`` records ``delta``, ``batch_size``
    and ``batched=True``.
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be >= 0")
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1 or sources.size == 0:
        raise ValueError("sources must be a non-empty 1-D sequence")
    n = graph.num_nodes
    if np.any((sources < 0) | (sources >= n)):
        bad = sources[(sources < 0) | (sources >= n)]
        raise ValueError(f"source {int(bad[0])} out of range for {n} nodes")
    if graph.has_negative_weights():
        raise ValueError("near+far requires non-negative edge weights")

    B = int(sources.size)
    deltas = _delta_array(graph, delta, B)

    dist = np.full(B * n, np.inf)
    front_q = np.arange(B, dtype=np.int64)  # the frontier's query ids
    frontier = front_q * n + sources  # strictly increasing, one key each
    dist[frontier] = 0.0
    far = _EMPTY
    split = deltas

    iterations = np.zeros(B, dtype=np.int64)
    relaxations = np.zeros(B, dtype=np.int64)
    sweeps = 0

    ctx = obs.current()
    reg, events = ctx.registry, ctx.events
    if events.enabled:
        events.emit(
            {
                "type": "batch_run_start",
                "v": EVENT_SCHEMA_VERSION,
                "algorithm": "nearfar-batch",
                "graph": graph.name,
                "batch_size": B,
                "sources": sources.tolist(),
            }
        )

    # per sweep: (active queries, next frontier size), kept only when a
    # live registry will read them at the end of the run
    rows = [] if reg.enabled else None
    try:
        while frontier.size:
            if deadline is not None:
                check_deadline(deadline, "nearfar-batch", sweeps)
            sweeps += 1
            # queries with frontier work this sweep age by one iteration
            active = np.zeros(B, dtype=bool)
            active[front_q] = True
            iterations += active

            # stage 1+2: advance all queries' edges in one sweep, then filter
            adv = batched_advance(graph, frontier, dist, B, frontier_q=front_q)
            relaxations += adv.relaxations_per_query
            improved = batched_filter(adv.improved)

            # stage 3: bisect against each query's own window
            near, far_add = batched_bisect(improved, dist, split, n)
            if far_add.size:
                far = np.concatenate([far, far_add]) if far.size else far_add
            frontier = near
            front_q = near // n

            # stage 4: per-query bisect-far-queue for starved queries only
            if far.size:
                far_q = far // n
                need = np.zeros(B, dtype=bool)  # far entries but no near work
                need[far_q] = True
                need[front_q] = False
                if need.any():
                    pulled, far, split = batched_drain_far(
                        far, dist, n, split, deltas, need, far_q=far_q
                    )
                    if pulled.size:
                        frontier = np.concatenate([frontier, pulled])
                        front_q = np.concatenate([front_q, pulled // n])

            if rows is not None:
                rows.append((int(active.sum()), int(frontier.size)))
            if max_sweeps and sweeps >= max_sweeps:
                break
    finally:
        # booked once, also when the deadline stops the run
        if rows is not None:
            active_counts, frontier_sizes = list(zip(*rows)) or ((), ())
            reg.counter("sssp.batch.sweeps").inc(sweeps)
            reg.counter("sssp.batch.relaxations").inc(int(relaxations.sum()))
            reg.histogram("sssp.batch.active").observe_many(active_counts)
            reg.histogram("sssp.batch.frontier").observe_many(frontier_sizes)
        if events.enabled:
            reached = np.isfinite(dist.reshape(B, n)).sum(axis=1)
            events.emit(
                {
                    "type": "batch_run_end",
                    "batch_size": B,
                    "sweeps": sweeps,
                    "relaxations": int(relaxations.sum()),
                    "reached": reached.tolist(),
                }
            )

    return [
        SSSPResult(
            dist=dist[q * n : (q + 1) * n].copy(),
            source=int(sources[q]),
            iterations=int(iterations[q]),
            relaxations=int(relaxations[q]),
            algorithm="nearfar",
            extra={
                "delta": float(deltas[q]),
                "batch_size": B,
                "batched": True,
            },
        )
        for q in range(B)
    ]
