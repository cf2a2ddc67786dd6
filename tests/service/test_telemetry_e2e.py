"""End-to-end trace propagation through the query engine and pool.

The tentpole acceptance story: one traced query produces spans that
cover engine -> pool -> worker -> kernel (worker-side spans shipped
back in the task payload and re-rooted under ``worker/``), and the
serving registry's labelled ``service.query.*`` histograms fill with
real latencies.
"""

import pytest

from repro import obs
from repro.obs.telemetry import TraceContext
from repro.service import QueryEngine, SSSPQuery


def _telemetry_ctx():
    return obs.use(
        registry=obs.MetricsRegistry(),
        events=obs.ListSink(),
        spans=obs.SpanRecorder(),
    )


class TestTelemetryOff:
    def test_engine_stays_bare_under_null_context(self, catalog):
        with obs.use():
            with QueryEngine(catalog) as engine:
                assert engine.telemetry is False
                response = engine.run(SSSPQuery("grid", 0, "nearfar"))
        assert response.ok
        assert response.trace_id is None
        assert "trace" not in response.as_dict()

    def test_metrics_snapshot_empty_without_registry(self, catalog):
        with obs.use():
            with QueryEngine(catalog) as engine:
                engine.run(SSSPQuery("grid", 0, "nearfar"))
                assert engine.metrics_snapshot() == {}


class TestThreadModeTraces:
    def test_spans_cover_engine_pool_worker_kernel(self, catalog):
        root = TraceContext.mint()
        spans = obs.SpanRecorder()
        sink = obs.ListSink()
        registry = obs.MetricsRegistry()
        with obs.use(registry=registry, events=sink, spans=spans):
            with QueryEngine(catalog) as engine:
                response = engine.run(
                    SSSPQuery("grid", 0, "nearfar", trace=root)
                )
        assert response.ok
        assert response.trace_id == root.trace_id
        assert response.as_dict()["trace"] == root.trace_id
        paths = [s.path for s in spans.profile()]
        assert "worker/task" in paths
        assert "worker/task/kernel" in paths
        span_events = sink.of_type("span")
        names = {e["name"] for e in span_events}
        assert {"engine/query", "worker/task", "worker/task/kernel"} <= names
        assert all(e["trace"] == root.trace_id for e in span_events)

    def test_latency_histograms_fill_per_graph_algorithm(self, catalog):
        registry = obs.MetricsRegistry()
        with obs.use(registry=registry):
            with QueryEngine(catalog, cache_size=0, max_batch=1) as engine:
                responses = engine.run_many(
                    [SSSPQuery("grid", s, "nearfar") for s in range(4)]
                )
        assert all(r.ok for r in responses)
        labels = {"graph": "grid", "algorithm": "nearfar"}
        latency = registry.histogram("service.query.latency", labels=labels)
        assert latency.count == 4
        pct = latency.percentiles()
        assert 0 < pct["p50"] <= pct["p95"] <= pct["p99"]
        compute = registry.histogram("service.query.compute", labels=labels)
        wait = registry.histogram("service.query.queue_wait", labels=labels)
        assert compute.count == 4 and compute.total > 0
        assert wait.count == 4 and wait.total >= 0

    def test_engine_mints_root_when_query_has_none(self, catalog):
        with _telemetry_ctx():
            with QueryEngine(catalog) as engine:
                response = engine.run(SSSPQuery("grid", 0, "nearfar"))
        assert response.ok
        assert response.trace_id  # direct engine users still get traced

    def test_cache_hit_reuses_trace_and_records_latency(self, catalog):
        registry = obs.MetricsRegistry()
        with obs.use(registry=registry):
            with QueryEngine(catalog) as engine:
                miss = engine.run(SSSPQuery("grid", 0, "nearfar"))
                hit = engine.run(SSSPQuery("grid", 0, "nearfar"))
        assert miss.cache == "miss" and hit.cache == "hit"
        assert hit.trace_id and hit.trace_id != miss.trace_id
        labels = {"graph": "grid", "algorithm": "nearfar"}
        assert registry.histogram("service.query.latency", labels=labels).count == 2
        # only the miss computed anything
        assert registry.histogram("service.query.compute", labels=labels).count == 1

    def test_unsampled_trace_merges_metrics_without_span_events(self, catalog):
        root = TraceContext.mint(sampled=False)
        registry = obs.MetricsRegistry()
        sink = obs.ListSink()
        with obs.use(registry=registry, events=sink):
            with QueryEngine(catalog) as engine:
                response = engine.run(
                    SSSPQuery("grid", 0, "nearfar", trace=root)
                )
        assert response.ok and response.trace_id == root.trace_id
        assert sink.of_type("span") == []
        # worker kernel metrics still merged into the serving registry
        assert registry.counter("sssp.relaxations").value > 0

    def test_batched_members_share_worker_payload(self, catalog):
        root = TraceContext.mint()
        spans = obs.SpanRecorder()
        with obs.use(registry=obs.MetricsRegistry(), spans=spans):
            with QueryEngine(catalog, max_batch=8) as engine:
                responses = engine.run_many(
                    [
                        SSSPQuery("grid", s, "nearfar", trace=root.child())
                        for s in (0, 5, 9)
                    ]
                )
        assert all(r.ok for r in responses)
        assert all(r.trace_id == root.trace_id for r in responses)
        # one coalesced kernel call -> exactly one worker task span
        assert spans.count("worker/task") == 1

    def test_stats_reports_telemetry_flag(self, catalog):
        with _telemetry_ctx():
            with QueryEngine(catalog) as engine:
                assert engine.stats()["telemetry"] is True
        with obs.use():
            with QueryEngine(catalog) as engine:
                assert engine.stats()["telemetry"] is False
