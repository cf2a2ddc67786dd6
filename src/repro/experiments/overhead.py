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
estimates the per-run cost of the disabled hooks directly by replaying
the calls the run makes: one row appended per iteration and one
end-of-run :func:`~repro.instrument.trace.publish_run` against the null
context.  That estimate is the "no-op by default" guarantee: it must
stay far below 5% of the run's wall time.
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
from repro.instrument.trace import RunTrace, publish_run
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


def estimate_noop_hook_seconds(trace: RunTrace) -> float:
    """Wall-clock cost of the *disabled* hooks for the run in ``trace``.

    With observability off, all a near+far run adds to the bare
    algorithm is one row tuple built and appended per iteration and one
    :func:`~repro.instrument.trace.publish_run` call against the null
    registry and sink when it ends.  This times exactly those calls for
    the run's rows: the honest form of the "<5% regression with the
    registry disabled" claim.
    """
    from repro.obs.events import NULL_EVENTS
    from repro.obs.registry import NULL_REGISTRY

    rows: list = []
    t0 = time.perf_counter()
    for row in trace.rows:
        rows.append((*row,))
    publish_run(NULL_REGISTRY, NULL_EVENTS, rows, 0, (0, 0, 0))
    return time.perf_counter() - t0


def run_instrumentation_overhead(
    config: ExperimentConfig | None = None, repeats: int = 3
) -> List[dict]:
    """Fixed-delta ``nearfar_sssp`` wall time: hooks off vs hooks on."""
    from repro.sssp.nearfar import nearfar_sssp

    config = config or default_config()
    rows: List[dict] = []
    for name, graph in config.datasets().items():
        source = pick_source(graph)

        _, trace = nearfar_sssp(graph, source)  # also warms up the timed runs
        spans = SpanRecorder()
        for _ in range(repeats):  # interleaved: the null context, then live ones
            with use(), spans.span("off"):
                nearfar_sssp(graph, source, collect_trace=False)
            with use(registry=MetricsRegistry(), events=ListSink()), spans.span("on"):
                nearfar_sssp(graph, source, collect_trace=False)
        off = spans.total("off") / repeats
        on = spans.total("on") / repeats
        iterations = len(trace)
        noop = estimate_noop_hook_seconds(trace)
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
