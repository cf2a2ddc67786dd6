"""S5.2 — controller runtime overhead (and instrumentation overhead).

The paper reports the controller costs roughly 50 us (Wiki) to 200 us
(Cal) per second of runtime — 0.005% to 0.02%.  We report both views
this substrate offers:

* the **measured** wall-clock time the Python controller spent per
  run, normalised per second of wall-clock algorithm time.  Both
  numbers read the same ``perf_counter`` clock: the experiment times
  the whole run in a :class:`repro.obs.spans.SpanRecorder` span, and
  the controller times each of its calls itself.
* the **simulated** platform view: the modelled per-iteration CPU
  overhead as a fraction of simulated device time.

On the down-scaled default datasets the simulated fraction is higher
than the paper's (kernel times shrink with the graph, the per-iteration
controller cost does not); EXPERIMENTS.md discusses the scaling.

:func:`run_instrumentation_overhead` additionally quantifies the cost
of the observability layer itself on the fixed-delta hot path: it
times ``nearfar_sssp`` with the hooks disabled (the default null
registry) and enabled (live registry + in-memory event sink), and
estimates the per-run cost of the disabled hooks directly by timing
the null-handle calls the run would make.  That estimate is the
"no-op by default" guarantee: it must stay far below 5% of the run's
wall time.
"""

from __future__ import annotations

import time
from typing import List

from repro.core import AdaptiveParams, adaptive_sssp
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.report import banner, format_table
from repro.experiments.runner import pick_source, scaled_setpoints
from repro.gpusim.device import get_device
from repro.gpusim.executor import simulate_run
from repro.obs import ListSink, MetricsRegistry, SpanRecorder, use

__all__ = [
    "run_overhead",
    "run_instrumentation_overhead",
    "estimate_noop_hook_seconds",
    "main",
]


def run_overhead(config: ExperimentConfig | None = None) -> List[dict]:
    config = config or default_config()
    device = get_device("tk1")
    rows: List[dict] = []
    for name, graph in config.datasets().items():
        source = pick_source(graph)
        setpoint = scaled_setpoints(name, config.scale)[1]
        spans = SpanRecorder()
        with spans.span("adaptive_sssp"):
            _, trace, controller = adaptive_sssp(
                graph, source, AdaptiveParams(setpoint=setpoint)
            )
        wall = spans.total("adaptive_sssp")
        run = simulate_run(trace, device)
        ctrl_wall = controller.seconds
        rows.append(
            {
                "dataset": name,
                "iterations": len(trace),
                "wall time (s)": round(wall, 4),
                "controller wall (s)": round(ctrl_wall, 6),
                "us per second (wall)": round(1e6 * ctrl_wall / wall, 1)
                if wall > 0
                else "-",
                "sim overhead frac": round(run.controller_overhead_fraction, 5),
            }
        )
    return rows


def estimate_noop_hook_seconds(iterations: int, hooks_per_iteration: int = 10) -> float:
    """Wall-clock cost of the *disabled* hooks for a run of ``iterations``.

    Times the exact calls an instrumented iteration makes against the
    null registry (counter incs + histogram observes) and scales by the
    iteration count.  This is the honest form of the "<5% regression
    with the registry disabled" claim: the only thing the disabled
    instrumentation adds to the seed hot path is these calls.
    """
    from repro.obs.registry import NULL_REGISTRY

    counter = NULL_REGISTRY.counter("x")
    hist = NULL_REGISTRY.histogram("x")
    calls = max(iterations * hooks_per_iteration, 1)
    t0 = time.perf_counter()
    for _ in range(calls):
        counter.inc(1)
        hist.observe(1)
    elapsed = time.perf_counter() - t0
    # each loop round did one counter + one histogram call = 2 hooks
    return elapsed / 2.0


def run_instrumentation_overhead(
    config: ExperimentConfig | None = None, repeats: int = 3
) -> List[dict]:
    """Fixed-delta ``nearfar_sssp`` wall time: hooks off vs hooks on."""
    from repro.sssp.nearfar import nearfar_sssp

    config = config or default_config()
    rows: List[dict] = []
    for name, graph in config.datasets().items():
        source = pick_source(graph)

        def _run() -> int:
            result, _ = nearfar_sssp(graph, source, collect_trace=False)
            return result.iterations

        spans = SpanRecorder()
        iterations = 0
        for _ in range(repeats):  # hooks off: the default null context
            with spans.span("off"):
                iterations = _run()
        for _ in range(repeats):  # hooks on: live registry + event sink
            with use(registry=MetricsRegistry(), events=ListSink()):
                with spans.span("on"):
                    _run()
        off = spans.total("off") / repeats
        on = spans.total("on") / repeats
        noop = estimate_noop_hook_seconds(iterations)
        rows.append(
            {
                "dataset": name,
                "iterations": iterations,
                "hooks off (s)": round(off, 4),
                "hooks on (s)": round(on, 4),
                "on/off": round(on / off, 3) if off > 0 else "-",
                "noop hook cost (s)": round(noop, 6),
                "noop frac": round(noop / off, 5) if off > 0 else "-",
            }
        )
    return rows


def main(config: ExperimentConfig | None = None) -> str:
    text = "\n".join(
        [
            banner("Section 5.2: controller runtime overhead"),
            format_table(run_overhead(config)),
            "",
            banner("Observability: instrumentation overhead (fixed-delta near+far)"),
            format_table(run_instrumentation_overhead(config)),
        ]
    )
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    main()
