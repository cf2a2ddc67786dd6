"""Query service: cache speedup, retry overhead.

Two acceptance checks for the ``repro.service`` subsystem:

* a warm-cache query through ``QueryEngine`` is at least 10x faster
  than the cold run that populated the cache, and
* retries under a 30% seeded fault plan answer every query correctly
  at a bounded wall-clock premium over the same clean batch.

All timings land in ``benchmarks/results/metrics.json`` via the
session registry (``bench.service.*`` gauges) so perf-tracking jobs
can watch the trajectory across commits.
"""

import time

from conftest import run_once

from repro import obs
from repro.graph.generators import rmat
from repro.resilience import FaultPlan, RetryPolicy
from repro.service import GraphCatalog, QueryEngine, SSSPQuery
from repro.sssp.batch import sample_sources

N_SOURCES = 16
N_WORKERS = 4


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


def test_retry_overhead_under_faults(benchmark, emit):
    """A 30%-faulted batch must still answer everything, and the retry
    machinery's wall-clock premium over the clean batch is recorded."""
    graph = _service_graph()
    catalog = GraphCatalog()
    catalog.register("svc", lambda: graph)
    sources = sample_sources(graph, N_SOURCES, seed=23)
    retry = RetryPolicy(max_attempts=6, base_delay=0.001)

    def batch(fault_plan):
        queries = [SSSPQuery("svc", int(s), "nearfar") for s in sources]
        with QueryEngine(
            catalog,
            max_workers=N_WORKERS,
            cache_size=0,  # every query must really run
            fault_plan=fault_plan,
            retry=retry,
        ) as engine:
            t0 = time.perf_counter()
            responses = engine.run_many(queries)
            elapsed = time.perf_counter() - t0
            retries = engine.retry_attempts
        return responses, elapsed, retries

    clean, clean_s, _ = batch(None)
    plan = FaultPlan(
        rate=0.3, seed=7, kinds=("transient", "crash"), hang_seconds=0.0
    )

    def faulted_pass():
        return batch(plan)

    (faulted, faulted_s, retries) = run_once(benchmark, faulted_pass)

    assert all(r.ok for r in clean)
    bad = [r.error for r in faulted if not r.ok]
    assert not bad, f"faulted batch left queries unanswered: {bad}"
    assert retries > 0, "the drill was supposed to inject faults"
    for a, b in zip(clean, faulted):
        assert a.reached == b.reached
        assert a.max_dist == b.max_dist

    registry = obs.get_registry()
    registry.gauge("bench.service.batch_clean_seconds").set(clean_s)
    registry.gauge("bench.service.batch_faulted_seconds").set(faulted_s)
    registry.gauge("bench.service.batch_retry_attempts").set(retries)

    emit(
        "service_retry_overhead",
        f"service retry overhead: {N_SOURCES} nearfar queries, "
        f"{N_WORKERS} workers, fault rate 0.3 (transient+crash)\n"
        f"clean   {clean_s:8.3f} s\n"
        f"faulted {faulted_s:8.3f} s "
        f"({retries} retry attempts, "
        f"overhead {faulted_s / clean_s:.2f}x)",
    )
