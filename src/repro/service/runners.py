"""Algorithm dispatch for the query service.

One registry maps the wire-level algorithm names to the package's SSSP
implementations with a uniform call shape::

    run_algorithm(graph, source, "nearfar", {"delta": 0.5}) -> SSSPResult

:func:`run_algorithm_batch` is the coalesced-dispatch entry point: one
pool task answering B sources at once.  For :data:`BATCHED_ALGORITHMS`
it calls the true multi-source kernel
(:func:`~repro.sssp.batch_kernels.batched_nearfar_sssp`); for every
other algorithm it loops in-task, which still amortises pool submit
overhead across the batch.

A request that names no ``delta`` (``nearfar``) or ``setpoint``
(``adaptive``) is served on this host's set-point,
:data:`~repro.core.setpoint.CPU_SETPOINT`: ``nearfar`` gets the graph's
:func:`~repro.core.setpoint.setpoint_window`, the same for every query
on that graph object however it is batched, and ``adaptive`` gets
``CPU_SETPOINT`` as its ``P``.  The library calls keep the paper's
defaults (the average weight, and ``P`` from the caller).

Both take the engine's per-task ``timeout`` and turn it into the
solver's ``deadline=`` when the task starts (:mod:`repro.sssp.deadline`);
the one-time ``setpoint_window`` probe runs without one.

Parameters are validated against a per-algorithm whitelist, and their
values against one rule per name (:data:`PARAM_VALUES`), *before* the
run starts: a typo'd key fails fast with a message naming the accepted
keys, and a bad value with one naming the param, alone or batched
alike.  Every runner takes the graph first, the calling convention of
:meth:`repro.service.pool.ExecutorPool.submit`, and returns bare
results whether or not the engine has telemetry on: a telemetry-on
engine runs the same call inside a pool-thread closure that records
straight into its observability context.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.graph.csr import CSRGraph
from repro.sssp.deadline import deadline_after
from repro.sssp.result import SSSPResult

__all__ = [
    "ALGORITHM_PARAMS",
    "BATCHED_ALGORITHMS",
    "PARAM_VALUES",
    "algorithm_names",
    "run_algorithm",
    "run_algorithm_batch",
]

# algorithm -> accepted parameter names
ALGORITHM_PARAMS: Dict[str, Tuple[str, ...]] = {
    "dijkstra": (),
    "bellman-ford": (),
    "delta-stepping": ("delta",),
    "nearfar": ("delta",),
    "adaptive": ("setpoint",),
    "kla": ("k",),
}

# algorithms with a true multi-source kernel behind run_algorithm_batch
BATCHED_ALGORITHMS: Tuple[str, ...] = ("nearfar",)


def algorithm_names() -> Tuple[str, ...]:
    """The wire-level algorithm names the service accepts, sorted."""
    return tuple(sorted(ALGORITHM_PARAMS))


# param -> what its value must be (a bool is never one)
PARAM_VALUES: Dict[str, str] = {
    "delta": "a finite positive number",
    "setpoint": "a finite positive number",
    "k": "an integer >= 1",
}


def _valid_value(name: str, value) -> bool:
    """True when ``value`` is what :data:`PARAM_VALUES` asks of ``name``."""
    if isinstance(value, bool):
        return False
    if name == "k":
        return isinstance(value, numbers.Integral) and value >= 1
    try:  # an int too large for a float is not finite either
        return isinstance(value, numbers.Real) and 0 < float(value) < math.inf
    except OverflowError:
        return False


def validate_params(algorithm: str, params: Mapping) -> dict:
    """Check ``algorithm`` exists, ``params`` only uses its known keys,
    and each value is what :data:`PARAM_VALUES` says."""
    accepted = ALGORITHM_PARAMS.get(algorithm)
    if accepted is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r} (have {', '.join(algorithm_names())})"
        )
    params = dict(params or {})
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"algorithm {algorithm!r} does not accept {unknown}; "
            f"accepted: {list(accepted) or 'none'}"
        )
    for name, value in params.items():
        if not _valid_value(name, value):
            raise ValueError(
                f"param {name} must be {PARAM_VALUES[name]}, "
                f"got {reprlib.repr(value)}"
            )
    return params


def _nearfar_delta(graph: CSRGraph, params: Mapping) -> float:
    """The request's ``delta``, or the graph's set-point window."""
    delta = params.get("delta")
    if delta is not None:
        return delta
    from repro.core.setpoint import setpoint_window

    return setpoint_window(graph)


def run_algorithm(
    graph: CSRGraph,
    source: int,
    algorithm: str,
    params: Optional[Mapping] = None,
    timeout: Optional[float] = None,
) -> SSSPResult:
    """Run one SSSP query and return its result (no trace).

    Traces are deliberately not collected: a service answering many
    queries wants distances and work counters, not per-iteration
    records (use ``repro trace record`` for those).
    """
    deadline = deadline_after(timeout)
    params = validate_params(algorithm, params)
    return _run_one(graph, source, algorithm, params, deadline)


def _run_one(
    graph: CSRGraph,
    source: int,
    algorithm: str,
    params: Mapping,
    deadline: Optional[float],
) -> SSSPResult:
    """One query with validated ``params`` under ``deadline``."""
    if not 0 <= source < graph.num_nodes:
        raise ValueError(
            f"source {source} out of range for {graph.num_nodes} nodes"
        )
    if algorithm == "dijkstra":
        from repro.sssp.dijkstra import dijkstra

        return dijkstra(graph, source, deadline=deadline)
    if algorithm == "bellman-ford":
        from repro.sssp.bellman_ford import bellman_ford

        return bellman_ford(graph, source, deadline=deadline)
    if algorithm == "delta-stepping":
        from repro.sssp.delta_stepping import delta_stepping

        return delta_stepping(graph, source, params.get("delta"), deadline=deadline)
    if algorithm == "nearfar":
        from repro.sssp.nearfar import nearfar_sssp

        delta = _nearfar_delta(graph, params)
        result, _ = nearfar_sssp(
            graph, source, delta=delta, collect_trace=False, deadline=deadline
        )
        return result
    if algorithm == "kla":
        from repro.sssp.kla import kla_sssp

        k = int(params.get("k", 4))
        result, _ = kla_sssp(graph, source, k, collect_trace=False, deadline=deadline)
        return result
    # adaptive
    from repro.core import AdaptiveParams, adaptive_sssp
    from repro.core.setpoint import CPU_SETPOINT

    setpoint = float(params.get("setpoint", CPU_SETPOINT))
    result, _, _ = adaptive_sssp(
        graph,
        source,
        AdaptiveParams(setpoint=setpoint),
        collect_trace=False,
        deadline=deadline,
    )
    return result


def run_algorithm_batch(
    graph: CSRGraph,
    sources: Sequence[int],
    algorithm: str,
    params: Optional[Mapping] = None,
    timeout: Optional[float] = None,
) -> List[SSSPResult]:
    """Answer B sources in one task; results come back in source order.

    Algorithms in :data:`BATCHED_ALGORITHMS` go through the
    multi-source kernel — one pass over the shared CSR arrays for the
    whole batch.  The rest loop over the single-source runner inside
    the task, which amortises pool submission without changing
    per-query semantics.  Either way each source gets its own
    independent :class:`~repro.sssp.result.SSSPResult`.  One deadline
    covers the whole task.
    """
    deadline = deadline_after(timeout)
    params = validate_params(algorithm, params or {})
    sources = [int(s) for s in sources]
    if not sources:
        raise ValueError("batch must contain at least one source")
    for source in sources:
        if not 0 <= source < graph.num_nodes:
            raise ValueError(
                f"source {source} out of range for {graph.num_nodes} nodes"
            )
    if algorithm in BATCHED_ALGORITHMS:
        from repro.sssp.batch_kernels import batched_nearfar_sssp

        return batched_nearfar_sssp(
            graph, sources, delta=_nearfar_delta(graph, params), deadline=deadline
        )
    return [_run_one(graph, s, algorithm, params, deadline) for s in sources]
