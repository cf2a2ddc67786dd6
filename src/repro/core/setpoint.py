"""Parallelism set-point menus (paper Section 4, "Choosing P").

The paper argues the set-point is easier to choose than delta because
it is "a function primarily of available hardware resources, so it is
possible to create an input-independent 'menu' of P values beforehand
... based on, for instance, the number of processing elements or the
power required per processing element."

These helpers build exactly that menu from a
:class:`~repro.gpusim.device.DeviceSpec`.

The host this package serves on is a CPU, not a GPU, so it gets its own
set-point, :data:`CPU_SETPOINT`, and one rule, :func:`setpoint_window`,
that turns it into each graph's near+far window (``docs/kernels.md``,
"CPU set-point").
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List

import numpy as np

from repro.obs import context as obs
from repro.sssp.nearfar import nearfar_sssp, suggest_delta

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import DeviceSpec
    from repro.graph.csr import CSRGraph

__all__ = [
    "CPU_SETPOINT",
    "PAPER_SETPOINTS",
    "setpoint_for_utilization",
    "setpoint_menu",
    "setpoint_window",
]

# The set-points the paper actually evaluates (Fig. 5-7): Cal uses
# {10k, 20k, 40k}; the Wiki discussion quotes P = 600k.
PAPER_SETPOINTS = {
    "cal": [10_000, 20_000, 40_000],
    "wiki": [150_000, 300_000, 600_000],
}

# X^(2) per sweep at which a numpy sweep's fixed cost equals its cost
# per relaxed edge on a 2-core host (numpy 2.4, no GPU): a least-squares
# fit of CPU time per B=2 batched near+far call, t = a*sweeps + b*edges,
# over cal_like(0.02) and wiki_like(0.02) at 1-32x the average weight
# read a = 49-57 µs and b = 19.7-21.1 ns (a/b = 2,457-2,713 over three
# fits), see docs/kernels.md.
CPU_SETPOINT = 2_500.0

# the window is w̄ times a power of two in [1, 32]
_MAX_WINDOW_LOG2 = 5
_probe_lock = threading.Lock()


def setpoint_for_utilization(device: "DeviceSpec", occupancy: float = 1.0) -> float:
    """P that keeps every core busy at the given occupancy multiple.

    A GPU hides latency by oversubscribing cores with threads; an
    occupancy of ``k`` means ``k`` work items in flight per core.  The
    advance workload (edges) maps one item per thread, so
    ``P = cores * k``.
    """
    if occupancy <= 0:
        raise ValueError("occupancy must be positive")
    return float(device.num_cores * occupancy)


def setpoint_menu(
    device: "DeviceSpec",
    occupancies: List[float] | None = None,
) -> List[float]:
    """An input-independent menu of set-points for ``device``.

    Default occupancy ladder spans "just saturated" (x8 items per
    core, enough to hide memory latency) through heavy oversubscription
    (x256, where extra parallelism only buys redundant work).
    """
    if occupancies is None:
        occupancies = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    menu = [setpoint_for_utilization(device, occ) for occ in occupancies]
    if sorted(menu) != menu:
        menu.sort()
    return menu


def setpoint_window(graph: "CSRGraph") -> float:
    """The near+far window that puts ``graph`` on :data:`CPU_SETPOINT`.

    One probe :func:`~repro.sssp.nearfar.nearfar_sssp` at the average
    weight ``w̄`` runs from the middle vertex that has out-edges, under
    the null observability context (it books no metric, event or
    span).  Its relaxations per iteration give ``X̄``; the window is
    ``w̄`` times the largest power of two ``<= CPU_SETPOINT / X̄``,
    clamped to ``[1, 32]``.  A wider window runs fewer sweeps for some
    more relaxed edges; distances do not depend on it.

    Computed once and memoised on the graph object, like
    :meth:`~repro.graph.csr.CSRGraph.fingerprint`.
    """
    cached = graph.__dict__.get("_setpoint_window")
    if cached is not None:  # no lock: a probe of another graph must not block
        return cached
    with _probe_lock:
        cached = graph.__dict__.get("_setpoint_window")
        if cached is not None:
            return cached
        base = suggest_delta(graph)
        has_edges = np.flatnonzero(np.diff(graph.indptr))
        multiple = 1
        if has_edges.size:
            source = int(has_edges[has_edges.size // 2])
            with obs.use(scope="thread"):
                probe, _ = nearfar_sssp(graph, source, delta=base, collect_trace=False)
            ratio = CPU_SETPOINT * probe.iterations / probe.relaxations
            shift = int(ratio).bit_length() - 1  # largest 2**shift <= ratio
            multiple = 1 << min(max(shift, 0), _MAX_WINDOW_LOG2)
        window = base * multiple
        object.__setattr__(graph, "_setpoint_window", window)
        return window
