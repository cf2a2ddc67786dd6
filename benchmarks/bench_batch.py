"""Batched multi-source kernel vs the per-source loop.

The acceptance check for ``repro.sssp.batch_kernels``: on a road-like
graph with >= 100k vertices, answering B >= 16 sources with **one**
batched near+far pass must deliver at least 2x the query throughput of
looping ``nearfar_sssp`` over the same sources — the amortisation the
serving path's batched dispatch banks on.  The batched distances
must also be byte-identical to the looped ones (same floating-point
ops, same order; see ``repro/sssp/frontier.py``).

Both sides run under the null observability context, in interleaved
pairs that alternate which side runs first; ``bench.batch.speedup`` is
the median of the per-pair looped/batched ratios (the estimator of
``bench/compare.py``).  Timings land in
``benchmarks/results/metrics.json`` via the session registry
(``bench.batch.*`` gauges) so perf-tracking jobs can watch the speedup
across commits.
"""

import statistics
import time

import numpy as np
from conftest import run_once

from repro import obs
from repro.graph.datasets import cal_like
from repro.sssp.batch import sample_sources
from repro.sssp.batch_kernels import batched_nearfar_sssp
from repro.sssp.nearfar import nearfar_sssp

GRAPH_SCALE = 0.06  # ~113k nodes / ~426k edges, road-like
BATCH = 32  # the acceptance bar is "B >= 16"; 32 amortises further
PASSES = 7  # interleaved looped/batched pairs
MIN_SPEEDUP = 2.0


def test_batched_vs_looped(benchmark, emit):
    graph = cal_like(GRAPH_SCALE)
    assert graph.num_nodes >= 100_000, graph.num_nodes
    sources = sample_sources(graph, BATCH, seed=11)

    def looped():
        return [nearfar_sssp(graph, int(s), collect_trace=False)[0] for s in sources]

    def batched():
        return batched_nearfar_sssp(graph, sources)

    def interleaved():
        """``(looped_s, batched_s)`` per pass; odd passes run batched first."""
        passes, answers = [], {}
        for i in range(PASSES):
            order = (batched, looped) if i % 2 else (looped, batched)
            seconds = {}
            for side in order:
                t0 = time.perf_counter()
                answers[side] = side()
                seconds[side] = time.perf_counter() - t0
            passes.append((seconds[looped], seconds[batched]))
        return passes, answers[looped], answers[batched]

    # the null context: the session's live registry must not tax either side
    with obs.use():
        passes, looped_results, batched_results = run_once(benchmark, interleaved)

    # byte-exactness: one fused pass, same answers as B separate passes
    assert len(batched_results) == len(looped_results) == BATCH
    for single, multi in zip(looped_results, batched_results):
        assert np.array_equal(single.dist, multi.dist)
        assert single.iterations == multi.iterations

    speedups = [lo / ba for lo, ba in passes]
    speedup = statistics.median(speedups)
    looped_s = statistics.median(lo for lo, _ in passes)
    batched_s = statistics.median(ba for _, ba in passes)
    reg = obs.get_registry()
    reg.gauge("bench.batch.graph_nodes").set(graph.num_nodes)
    reg.gauge("bench.batch.batch_size").set(BATCH)
    reg.gauge("bench.batch.looped_seconds").set(round(looped_s, 4))
    reg.gauge("bench.batch.batched_seconds").set(round(batched_s, 4))
    reg.gauge("bench.batch.looped_qps").set(round(BATCH / looped_s, 2))
    reg.gauge("bench.batch.batched_qps").set(round(BATCH / batched_s, 2))
    reg.gauge("bench.batch.speedup").set(round(speedup, 3))

    emit(
        "batch_throughput",
        "\n".join(
            [
                f"graph: cal_like({GRAPH_SCALE}) — {graph.num_nodes} nodes, "
                f"{graph.num_edges} edges",
                f"batch size: {BATCH}",
                *(
                    f"pass {i} ({'batched' if i % 2 else 'looped'} first): "
                    f"looped {lo:.3f}s, batched {ba:.3f}s, {lo / ba:.2f}x"
                    for i, (lo, ba) in enumerate(passes)
                ),
                f"looped  : {looped_s:.3f}s ({BATCH / looped_s:.2f} qps), median",
                f"batched : {batched_s:.3f}s ({BATCH / batched_s:.2f} qps), median",
                f"speedup : {speedup:.2f}x, median of {PASSES} pass ratios "
                f"(bar: >= {MIN_SPEEDUP}x)",
            ]
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched kernel {speedup:.2f}x vs looped; need >= {MIN_SPEEDUP}x"
    )
