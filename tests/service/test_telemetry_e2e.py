"""End-to-end trace propagation through the query engine and pool.

One traced query produces spans that cover engine -> pool -> worker
-> kernel (the pool task's ``worker/`` rows booked by the engine, its
kernel events stamped with the trace), and the serving registry's
labelled ``service.query.*`` histograms fill with real latencies.
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


KERNEL_EVENTS = ("run_start", "iterations", "run_end")
GRID_LABELS = {"graph": "grid", "algorithm": "nearfar"}


class TestTelemetryContract:
    """What a telemetry-on engine records for its pool tasks.

    Kernel counters, per-query histograms, the two worker span rows and
    the stamps on kernel events, checked on cache-off ``nearfar``
    queries over two pool threads.
    """

    QUERIES = 6

    def _serve(self, catalog, *, max_batch=1, **channels):
        queries = [
            SSSPQuery("grid", s, "nearfar") for s in range(self.QUERIES)
        ]
        with obs.use(**channels):
            with QueryEngine(
                catalog, max_workers=2, cache_size=0, max_batch=max_batch
            ) as engine:
                responses = engine.run_many(queries)
        assert all(r.ok for r in responses)
        return responses

    def test_counters_histograms_and_rows_match_the_queries(self, catalog):
        registry = obs.MetricsRegistry()
        spans = obs.SpanRecorder()
        responses = self._serve(
            catalog, registry=registry, events=obs.ListSink(), spans=spans
        )
        assert registry.counter("sssp.relaxations").value == sum(
            r.relaxations for r in responses
        )
        assert registry.counter("sssp.iterations").value == sum(
            r.iterations for r in responses
        )
        for name in ("queue_wait", "compute"):
            hist = registry.histogram(f"service.query.{name}", labels=GRID_LABELS)
            assert hist.count == self.QUERIES
        assert spans.count("worker/task") == self.QUERIES
        assert spans.count("worker/task/kernel") == self.QUERIES

    def test_batch_task_is_booked_once_against_its_lead(self, catalog):
        registry = obs.MetricsRegistry()
        spans = obs.SpanRecorder()
        responses = self._serve(
            catalog, max_batch=8, registry=registry, spans=spans
        )
        assert registry.counter("sssp.batch.relaxations").value == sum(
            r.relaxations for r in responses
        )
        latency = registry.histogram("service.query.latency", labels=GRID_LABELS)
        assert latency.count == self.QUERIES
        for name in ("queue_wait", "compute"):
            hist = registry.histogram(f"service.query.{name}", labels=GRID_LABELS)
            assert hist.count == 1
        assert spans.count("worker/task") == 1
        assert spans.count("worker/task/kernel") == 1

    def test_sampled_kernel_events_carry_trace_and_worker_stamp(self, catalog):
        root = TraceContext.mint()
        sink = obs.ListSink()
        with obs.use(registry=obs.MetricsRegistry(), events=sink):
            with QueryEngine(catalog) as engine:
                response = engine.run(
                    SSSPQuery("grid", 0, "nearfar", trace=root)
                )
        assert response.ok
        kernel = [e for e in sink.events if e["type"] in KERNEL_EVENTS]
        assert [e["type"] for e in kernel] == list(KERNEL_EVENTS)
        assert len(kernel[1]["x2"]) == response.iterations
        assert sum(kernel[1]["x2"]) == response.relaxations
        for event in kernel:
            assert event["trace"] == root.trace_id
            assert event["worker"] is True
        engine_side = sink.of_type("query_start") + sink.of_type("query_end")
        assert engine_side and all("worker" not in e for e in engine_side)

    def test_unsampled_query_is_silent_but_counted(self, catalog):
        root = TraceContext.mint(sampled=False)
        registry = obs.MetricsRegistry()
        sink = obs.ListSink()
        spans = obs.SpanRecorder()
        with obs.use(registry=registry, events=sink, spans=spans):
            with QueryEngine(catalog) as engine:
                response = engine.run(
                    SSSPQuery("grid", 0, "nearfar", trace=root)
                )
        assert response.ok
        types = {e["type"] for e in sink.events}
        assert types.isdisjoint({"span", *KERNEL_EVENTS})
        assert {"query_start", "query_end"} <= types
        assert registry.counter("sssp.relaxations").value == response.relaxations
        assert registry.counter("sssp.iterations").value == response.iterations
        assert spans.count("worker/task") == 1

    def test_concurrent_pool_threads_lose_no_updates(self, catalog):
        """More pool threads than cores and a short switch interval:
        every kernel increment and event still lands."""
        import os
        import sys

        registry = obs.MetricsRegistry()
        sink = obs.ListSink()
        queries = [SSSPQuery("grid", s, "nearfar") for s in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.use(registry=registry, events=sink):
                with QueryEngine(
                    catalog,
                    max_workers=(os.cpu_count() or 1) + 2,
                    cache_size=0,
                    timeout=60.0,
                ) as engine:
                    responses = engine.run_many(queries)
        finally:
            sys.setswitchinterval(interval)
        assert all(r.ok for r in responses)
        iterations = sum(r.iterations for r in responses)
        assert registry.counter("sssp.iterations").value == iterations
        assert registry.histogram("sssp.frontier").count == iterations
        assert registry.counter("sssp.relaxations").value == sum(
            r.relaxations for r in responses
        )
        columns = sink.of_type("iterations")
        assert len(columns) == len(queries)
        assert sum(len(c["x1"]) for c in columns) == iterations
        assert len(sink.of_type("run_end")) == len(queries)

    def test_registry_without_sink_fills_histograms_and_rows(self, catalog):
        """The ``repro serve`` default: a registry and spans, no events."""
        registry = obs.MetricsRegistry()
        spans = obs.SpanRecorder()
        self._serve(catalog, registry=registry, spans=spans)
        for name in ("latency", "queue_wait", "compute"):
            hist = registry.histogram(f"service.query.{name}", labels=GRID_LABELS)
            assert hist.count == self.QUERIES
        assert registry.histogram(
            "service.query.compute", labels=GRID_LABELS
        ).total > 0
        assert spans.count("worker/task") == self.QUERIES
        assert spans.count("worker/task/kernel") == self.QUERIES
