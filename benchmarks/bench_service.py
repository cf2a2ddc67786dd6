"""Query service: cache speedup.

The acceptance check for the ``repro.service`` subsystem: a warm-cache
query through ``QueryEngine`` is at least 10x faster than the cold run
that populated the cache.

The timings land in ``benchmarks/results/metrics.json`` via the
session registry (``bench.service.*`` gauges) so perf-tracking jobs
can watch the trajectory across commits.
"""

import time

from conftest import run_once

from repro import obs
from repro.graph.generators import rmat
from repro.service import GraphCatalog, QueryEngine, SSSPQuery


def _service_graph():
    g = rmat(13, 16, seed=5, name="service-rmat")
    assert g.num_edges >= 100_000
    return g


def test_warm_cache_query_speedup(benchmark, emit):
    catalog = GraphCatalog()
    catalog.register("svc", _service_graph)
    query = SSSPQuery("svc", 0, "dijkstra")

    def cold_then_warm():
        with QueryEngine(catalog) as engine:
            t0 = time.perf_counter()
            cold = engine.run(query)
            cold_s = time.perf_counter() - t0
            t1 = time.perf_counter()
            warm = engine.run(query)
            warm_s = time.perf_counter() - t1
        return cold, warm, cold_s, warm_s

    cold, warm, cold_s, warm_s = run_once(benchmark, cold_then_warm)

    assert cold.ok and cold.cache == "miss"
    assert warm.ok and warm.cache == "hit"
    assert warm.reached == cold.reached

    registry = obs.get_registry()
    registry.gauge("bench.service.query_cold_seconds").set(cold_s)
    registry.gauge("bench.service.query_warm_seconds").set(warm_s)

    emit(
        "service_cache_speedup",
        "service cache: cold vs warm dijkstra query on "
        f"{cold.reached}-reached rmat graph\n"
        f"cold {cold_s * 1e3:10.3f} ms\n"
        f"warm {warm_s * 1e3:10.3f} ms "
        f"(speedup {cold_s / warm_s:.0f}x)",
    )
    assert warm_s * 10 <= cold_s, (
        f"warm-cache query ({warm_s * 1e3:.3f}ms) should be >=10x faster "
        f"than cold ({cold_s * 1e3:.3f}ms)"
    )
