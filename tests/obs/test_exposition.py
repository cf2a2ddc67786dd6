"""Tests for Prometheus text exposition of metric snapshots."""

from repro.obs.exposition import format_prometheus, prometheus_name
from repro.obs.registry import BUCKET_BOUNDS, MetricsRegistry


class TestPrometheusName:
    def test_dots_become_underscores_with_prefix(self):
        assert (
            prometheus_name("service.query.latency")
            == "repro_service_query_latency"
        )

    def test_invalid_chars_sanitized(self):
        assert prometheus_name("a-b c") == "repro_a_b_c"


class TestFormatPrometheus:
    def test_empty_snapshot_empty_text(self):
        assert format_prometheus({}) == ""

    def test_counter_gets_total_suffix(self):
        reg = MetricsRegistry()
        reg.counter("service.queries").inc(42)
        text = format_prometheus(reg.snapshot())
        assert "# TYPE repro_service_queries_total counter" in text
        assert "repro_service_queries_total 42" in text

    def test_gauge_plain_value(self):
        reg = MetricsRegistry()
        reg.gauge("pool.pending").set(3.0)
        text = format_prometheus(reg.snapshot())
        assert "# TYPE repro_pool_pending gauge" in text
        assert "repro_pool_pending 3" in text

    def test_labels_rendered_sorted(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels={"graph": "cal", "algorithm": "nf"}).inc()
        text = format_prometheus(reg.snapshot())
        assert 'repro_hits_total{algorithm="nf",graph="cal"} 1' in text

    def test_hostile_label_values_are_escaped(self):
        """A quote, backslash or newline in a graph name cannot end the
        label early, so two such graphs stay two series."""
        reg = MetricsRegistry()
        for graph in ('a"b,x', 'a"c', "back\\slash", "line\nbreak"):
            reg.timer("lat", labels={"graph": graph}).observe(0.5)
        text = format_prometheus(reg.snapshot())
        counts = [line for line in text.splitlines() if line.startswith("repro_lat_count")]
        assert counts == [
            'repro_lat_count{graph="a\\"b,x"} 1',
            'repro_lat_count{graph="a\\"c"} 1',
            'repro_lat_count{graph="back\\\\slash"} 1',
            'repro_lat_count{graph="line\\nbreak"} 1',
        ]

    def test_histogram_buckets_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.01, 0.01, 0.5):
            h.observe(v)
        lines = format_prometheus(reg.snapshot()).splitlines()
        bucket_lines = [l for l in lines if l.startswith("repro_lat_bucket")]
        # cumulative: each le count >= the previous one
        counts = [int(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts)
        assert bucket_lines[-1].startswith('repro_lat_bucket{le="+Inf"}')
        assert counts[-1] == 3
        assert "repro_lat_count 3" in lines
        assert any(l.startswith("repro_lat_sum ") for l in lines)

    def test_overflow_samples_counted_only_by_inf(self):
        reg = MetricsRegistry()
        reg.histogram("big").observe(BUCKET_BOUNDS[-1] * 10)
        lines = format_prometheus(reg.snapshot()).splitlines()
        bucket_lines = [l for l in lines if l.startswith("repro_big_bucket")]
        assert bucket_lines == ['repro_big_bucket{le="+Inf"} 1']

    def test_timer_exposed_as_histogram(self):
        reg = MetricsRegistry()
        with reg.timer("t").time():
            pass
        text = format_prometheus(reg.snapshot())
        assert "# TYPE repro_t histogram" in text
        assert "repro_t_count 1" in text

    def test_one_type_header_per_base_name(self):
        reg = MetricsRegistry()
        reg.histogram("lat", labels={"graph": "a"}).observe(1.0)
        reg.histogram("lat", labels={"graph": "b"}).observe(2.0)
        text = format_prometheus(reg.snapshot())
        assert text.count("# TYPE repro_lat histogram") == 1
        assert 'repro_lat_count{graph="a"} 1' in text
        assert 'repro_lat_count{graph="b"} 1' in text
