"""Per-iteration cost of the self-tuning stepper against fixed-delta near+far.

``adaptive_sssp`` at the paper's TK1 set-point (P = 10,000) and
``nearfar_sssp`` solve the same ``cal_like(0.06)`` sources.  Both run
the same advance, filter and bisect stages; what the adaptive solver
adds per iteration is the set-point controller, the partitioned far
queue and the divergence guard, so the ratio of their µs per iteration
tracks that bookkeeping.

Each pass times one solve of every source with each solver, the two
interleaved source by source, and the published
``bench.adaptive.iteration_ratio`` is the median of the passes' ratios:
the interleaved-median estimator of ``bench/compare.py``, so a host
that changes speed between passes moves both sides of a ratio alike.
"""

import statistics
import time

from conftest import run_once

from repro import obs
from repro.core import AdaptiveParams, adaptive_sssp
from repro.graph.datasets import cal_like
from repro.sssp.batch import sample_sources
from repro.sssp.nearfar import nearfar_sssp

GRAPH_SCALE = 0.06  # the adaptive-road workload's graph
SETPOINT = 10_000.0
SOURCES = 4
PASSES = 9


def _timed(solve):
    """CPU seconds and iterations of one solve."""
    t0 = time.process_time()
    result = solve()
    return time.process_time() - t0, result.iterations


def test_adaptive_iteration_ratio(benchmark, emit):
    graph = cal_like(GRAPH_SCALE)
    sources = [int(s) for s in sample_sources(graph, SOURCES, seed=11)]
    params = AdaptiveParams(setpoint=SETPOINT)

    def one_pass():
        totals = {"adaptive": [0.0, 0], "nearfar": [0.0, 0]}
        for s in sources:
            for name, solve in (
                ("nearfar", lambda: nearfar_sssp(graph, s, collect_trace=False)[0]),
                ("adaptive", lambda: adaptive_sssp(graph, s, params, collect_trace=False)[0]),
            ):
                seconds, iterations = _timed(solve)
                totals[name][0] += seconds
                totals[name][1] += iterations
        return {name: 1e6 * sec / its for name, (sec, its) in totals.items()}

    passes = run_once(benchmark, lambda: [one_pass() for _ in range(PASSES)])
    ratios = [p["adaptive"] / p["nearfar"] for p in passes]
    ratio = statistics.median(ratios)
    adaptive_us = statistics.median(p["adaptive"] for p in passes)
    nearfar_us = statistics.median(p["nearfar"] for p in passes)

    reg = obs.get_registry()
    reg.gauge("bench.adaptive.iteration_ratio").set(round(ratio, 3))
    reg.gauge("bench.adaptive.us_per_iteration").set(round(adaptive_us, 1))
    reg.gauge("bench.adaptive.nearfar_us_per_iteration").set(round(nearfar_us, 1))

    emit(
        "stepper_iteration_cost",
        "\n".join(
            [
                f"graph: cal_like({GRAPH_SCALE}) — {graph.num_nodes} nodes; "
                f"sources {sources}; P = {SETPOINT:g}",
                f"adaptive_sssp : {adaptive_us:.1f} µs/iteration (median of {PASSES} passes)",
                f"nearfar_sssp  : {nearfar_us:.1f} µs/iteration",
                f"ratio         : {ratio:.3f} (passes: "
                + ", ".join(f"{r:.3f}" for r in ratios)
                + ")",
            ]
        ),
    )
    assert ratio > 1.0, "the adaptive stepper cannot be cheaper per iteration than near+far"
