"""The near+far window and the set-point on this CPU (the CPU analogue of Figs. 6-8).

Serving answers a ``nearfar`` request that names no ``delta`` on
:func:`~repro.core.setpoint.setpoint_window` and an ``adaptive`` one
that names no ``setpoint`` on :data:`~repro.core.setpoint.CPU_SETPOINT`.
This benchmark records what those choices buy on ``cal_like(0.02)`` (a
road lattice) and ``wiki_like(0.02)`` (scale-free):

* per B=2 batched ``nearfar`` call (the ``serve-cold`` shape), at 1-32x
  the average weight and at the served window: sweeps, relaxations and
  CPU milliseconds;
* per ``adaptive_sssp`` solve at P in {1,000, CPU_SETPOINT, 5,000,
  10,000}: iterations, relaxations and CPU milliseconds.

Sweeps and relaxations are deterministic for the fixed sources, so the
assertions and the gated ``bench.window.sweep_ratio`` (served-window
sweeps over 1x sweeps on ``cal``) read counts only; the CPU columns are
recorded, never asserted.  Everything runs under the null
observability context.
"""

import statistics
import time

from conftest import run_once

from repro import obs
from repro.core import AdaptiveParams, adaptive_sssp
from repro.core.setpoint import CPU_SETPOINT, setpoint_window
from repro.graph.datasets import cal_like, wiki_like
from repro.sssp.batch import sample_sources
from repro.sssp.batch_kernels import batched_nearfar_sssp
from repro.sssp.nearfar import suggest_delta

GRAPH_SCALE = 0.02
PAIRS = 8  # B=2 calls per window
MULTIPLES = (1, 2, 4, 8, 16, 32)
SETPOINTS = (1_000.0, CPU_SETPOINT, 5_000.0, 10_000.0)
ADAPTIVE_SOURCES = 3
PASSES = 2  # alternating window order


def _window_rows(graph, pairs):
    """``{label: (multiple, sweeps, relaxations, cpu_ms)}`` per B=2 call."""
    base = suggest_delta(graph)
    served = setpoint_window(graph)
    windows = [(f"x{m}", base * m) for m in MULTIPLES] + [("served", served)]
    counts, cpu = {}, {label: [] for label, _ in windows}
    for i in range(PASSES):
        for label, delta in windows if i % 2 == 0 else windows[::-1]:
            sweeps = relaxations = 0
            for pair in pairs:
                t0 = time.process_time()
                results = batched_nearfar_sssp(graph, pair, delta=delta)
                cpu[label].append(time.process_time() - t0)
                sweeps += max(r.iterations for r in results)
                relaxations += sum(r.relaxations for r in results)
            counts[label] = (delta / base, sweeps / len(pairs), relaxations / len(pairs))
    return {
        label: (*counts[label], 1e3 * statistics.median(cpu[label]))
        for label, _ in windows
    }


def _setpoint_rows(graph, sources):
    """``{P: (iterations, relaxations, cpu_ms)}`` per adaptive solve."""
    rows = {}
    for setpoint in SETPOINTS:
        iterations = relaxations = 0
        cpu = []
        for source in sources:
            t0 = time.process_time()
            result, _, _ = adaptive_sssp(
                graph, int(source), AdaptiveParams(setpoint=setpoint), collect_trace=False
            )
            cpu.append(time.process_time() - t0)
            iterations += result.iterations
            relaxations += result.relaxations
        rows[setpoint] = (
            iterations / len(sources), relaxations / len(sources), 1e3 * statistics.median(cpu)
        )
    return rows


def test_window_and_setpoint(benchmark, emit):
    graphs = {"cal": cal_like(GRAPH_SCALE), "wiki": wiki_like(GRAPH_SCALE)}

    def measure():
        out = {}
        for name, graph in graphs.items():
            drawn = sample_sources(graph, 2 * PAIRS + ADAPTIVE_SOURCES, seed=26)
            pairs = drawn[: 2 * PAIRS].reshape(PAIRS, 2)
            sources = drawn[2 * PAIRS :]
            out[name] = (_window_rows(graph, pairs), _setpoint_rows(graph, sources))
        return out

    with obs.use():
        tables = run_once(benchmark, measure)

    lines = [f"CPU_SETPOINT = {CPU_SETPOINT:,.0f} edges per sweep"]
    for name, (windows, setpoints) in tables.items():
        graph = graphs[name]
        lines.append(
            f"\n{name}_like({GRAPH_SCALE}): {graph.num_nodes} nodes, {graph.num_edges} edges"
        )
        lines.append("window    xw̄   sweeps/call   relax/call   cpu ms/call")
        for label, (multiple, sweeps, relaxations, cpu_ms) in windows.items():
            lines.append(
                f"{label:<8} {multiple:>4g} {sweeps:>12.1f} {relaxations:>12,.0f} {cpu_ms:>13.2f}"
            )
        lines.append("adaptive P   iterations/solve   relax/solve   cpu ms/solve")
        for setpoint, (iterations, relaxations, cpu_ms) in setpoints.items():
            lines.append(
                f"{setpoint:>10,.0f} {iterations:>18.1f} {relaxations:>13,.0f} {cpu_ms:>14.2f}"
            )
    emit("window_setpoint", "\n".join(lines))

    cal, wiki = tables["cal"][0], tables["wiki"][0]
    sweep_ratio = cal["served"][1] / cal["x1"][1]
    relax_ratio = cal["served"][2] / cal["x1"][2]
    reg = obs.get_registry()
    reg.gauge("bench.window.sweep_ratio").set(round(sweep_ratio, 4))
    reg.gauge("bench.window.relaxation_ratio").set(round(relax_ratio, 4))
    reg.gauge("bench.window.cal_multiple").set(cal["served"][0])
    reg.gauge("bench.window.wiki_multiple").set(wiki["served"][0])

    assert sweep_ratio <= 0.75, f"served window cut cal's sweeps only to {sweep_ratio:.2f}x"
    assert relax_ratio <= 1.15, f"served window relaxes {relax_ratio:.2f}x the edges on cal"
    assert wiki["served"][0] == 1, f"wiki got x{wiki['served'][0]:g}, not x1"
