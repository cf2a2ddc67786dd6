"""A4 — source robustness of the parallelism control.

Figure 5 is measured from a single source; a fair question is whether
the controller's tracking depends on where the run starts (a hub
source front-loads parallelism; a peripheral one ramps slowly).  This
experiment repeats the Figure-5 measurement over a batch of sampled
sources and reports the pooled parallelism distribution per
configuration — if the controller is doing its job, the pooled median
still sits at P and the baseline still spreads.

A second drill attacks the controller itself: mid-run its decisions
are replaced with NaN deltas (:class:`~repro.resilience.DivergentController`)
and the run must complete through the divergence guard's static-delta
fallback with distances still identical to Dijkstra — the failure
mode the :mod:`repro.resilience` layer exists to contain.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core import AdaptiveParams, adaptive_sssp
from repro.core.stepwise import AdaptiveNearFarStepper
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.report import banner, format_table
from repro.experiments.runner import find_time_minimizing_delta, scaled_setpoints
from repro.gpusim.device import JETSON_TK1
from repro.instrument.stats import iqr_fraction_near
from repro.resilience import DivergentController
from repro.sssp.batch import batch_run, pooled_parallelism, sample_sources
from repro.sssp.dijkstra import dijkstra
from repro.sssp.nearfar import nearfar_sssp

__all__ = ["run_robustness", "run_divergence_drill", "main"]


def run_robustness(
    config: ExperimentConfig | None = None,
    *,
    num_sources: int = 5,
) -> Dict[str, List[dict]]:
    config = config or default_config()
    out: Dict[str, List[dict]] = {}
    for name, graph in config.datasets().items():
        sources = sample_sources(graph, num_sources, seed=config.seed)
        probe = int(sources[0])
        best_delta, _ = find_time_minimizing_delta(
            graph, probe, JETSON_TK1, config.delta_multipliers
        )

        rows: List[dict] = []
        base = batch_run(
            graph,
            sources,
            lambda g, s: nearfar_sssp(g, s, delta=best_delta),
            label=f"near+far delta={best_delta:.3g}",
        )
        row = base.as_row()
        row["mass near P"] = "-"
        rows.append(row)

        setpoint = scaled_setpoints(name, config.scale)[1]

        def tuned_runner(g, s):
            result, trace, _ = adaptive_sssp(
                g, s, AdaptiveParams(setpoint=setpoint)
            )
            return result, trace

        tuned = batch_run(
            graph, sources, tuned_runner, label=f"self-tuning P={setpoint:.0f}"
        )
        row = tuned.as_row()
        row["mass near P"] = round(
            iqr_fraction_near(pooled_parallelism(tuned.traces), setpoint, 0.5), 3
        )
        rows.append(row)
        out[name] = rows
    return out


def run_divergence_drill(
    config: ExperimentConfig | None = None, *, after: int = 3
) -> List[dict]:
    """Force a NaN-emitting controller on each dataset; one row per run.

    The guard must trip, the run must finish on the frozen last-good
    delta, and the distances must still match Dijkstra exactly.
    """
    config = config or default_config()
    rows: List[dict] = []
    for name, graph in config.datasets().items():
        source = int(sample_sources(graph, 1, seed=config.seed)[0])
        setpoint = scaled_setpoints(name, config.scale)[1]
        stepper = AdaptiveNearFarStepper(
            graph, source, AdaptiveParams(setpoint=setpoint)
        )
        stepper.controller = DivergentController(stepper.controller, after=after)
        result = stepper.run()
        reference = dijkstra(graph, source)
        exact = bool(
            np.array_equal(
                np.isfinite(result.dist), np.isfinite(reference.dist)
            )
            and np.allclose(
                result.dist[np.isfinite(reference.dist)],
                reference.dist[np.isfinite(reference.dist)],
                rtol=1e-9,
                atol=1e-6,
            )
        )
        rows.append(
            {
                "graph": name,
                "fallback": result.extra["controller_fallback"],
                "reason": result.extra["fallback_reason"],
                "fallback delta": round(result.extra["final_delta"], 4),
                "exact vs dijkstra": exact,
            }
        )
    return rows


def main(config: ExperimentConfig | None = None) -> str:
    data = run_robustness(config)
    chunks = [banner("Source robustness of parallelism control (batched Fig. 5)")]
    for name, rows in data.items():
        chunks += [f"-- {name} --", format_table(rows)]
    chunks += [
        banner("Controller divergence drill (NaN deltas after 3 decisions)"),
        format_table(run_divergence_drill(config)),
    ]
    text = "\n".join(chunks)
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    main()
