"""Tests for the metrics registry."""

import threading

import pytest

from repro.obs.registry import (
    BUCKET_BOUNDS,
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    parse_name,
    qualify_name,
)


class TestLiveRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.inc()
        c.inc(4)
        assert reg.counter("a.b").value == 5

    def test_counter_float_increment(self):
        reg = MetricsRegistry()
        reg.counter("e").inc(0.25)
        reg.counter("e").inc(0.5)
        assert reg.counter("e").value == pytest.approx(0.75)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="increase"):
            Counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(3)
        g.set(7)
        assert g.value == 7.0

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.minimum == 1.0
        assert h.maximum == 3.0

    @pytest.mark.parametrize(
        "before, values",
        [
            ([], [3, 1, 4, 1, 5, 9, 2, 6]),
            ([7.0], [0, -2, 1e-9, 12_345, 1e12, 2]),  # first bucket, overflow
            ([2.5, 0.0], []),
        ],
    )
    def test_observe_many_matches_observe_per_sample(self, before, values):
        """One bulk observe leaves the state of one observe per sample."""
        bulk, loop = Histogram("h"), Histogram("h")
        for value in before:
            bulk.observe(value)
            loop.observe(value)
        bulk.observe_many(values)
        for value in values:
            loop.observe(value)
        assert bulk.as_dict() == loop.as_dict()

    def test_timer_records_duration(self):
        reg = MetricsRegistry()
        t = reg.timer("t")
        with t.time() as handle:
            pass
        assert t.count == 1
        assert handle.elapsed >= 0.0
        assert t.total == pytest.approx(handle.elapsed)

    def test_same_name_same_handle(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2}
        assert snap["g"] == {"type": "gauge", "value": 1.5}
        assert snap["h"]["count"] == 1
        assert "x" not in snap

    def test_contains_and_len(self):
        reg = MetricsRegistry()
        assert len(reg) == 0
        reg.counter("c")
        assert "c" in reg
        assert len(reg) == 1

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled
        assert not NullRegistry().enabled


class TestNullRegistry:
    def test_handles_are_shared_noops(self):
        a = NULL_REGISTRY.counter("a")
        b = NULL_REGISTRY.counter("b")
        assert a is b
        a.inc(100)
        assert a.value == 0

    def test_all_channels_noop(self):
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(5)
        with NULL_REGISTRY.timer("t").time():
            pass
        assert NULL_REGISTRY.snapshot() == {}
        assert len(NULL_REGISTRY) == 0
        assert "g" not in NULL_REGISTRY


class TestLabels:
    def test_labelled_variants_are_distinct(self):
        reg = MetricsRegistry()
        a = reg.histogram("lat", labels={"graph": "cal"})
        b = reg.histogram("lat", labels={"graph": "wiki"})
        assert a is not b
        a.observe(1.0)
        assert b.count == 0

    def test_snapshot_keys_carry_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels={"graph": "cal", "algorithm": "nearfar"}).inc()
        snap = reg.snapshot()
        [key] = snap
        base, labels = parse_name(key)
        assert base == "hits"
        assert labels == {"graph": "cal", "algorithm": "nearfar"}

    def test_label_order_is_canonical(self):
        assert qualify_name("m", {"b": "2", "a": "1"}) == qualify_name(
            "m", {"a": "1", "b": "2"}
        )

    HOSTILE = ('a"b,x', 'a"c', "back\\slash", "comma,x=y", "brace}{", "k=v", "line\nbreak", '\\"')

    @pytest.mark.parametrize("value", HOSTILE)
    def test_hostile_label_values_round_trip(self, value):
        labels = {"graph": value, "algorithm": "nearfar"}
        assert parse_name(qualify_name("lat", labels)) == ("lat", labels)

    def test_hostile_label_values_stay_distinct_series(self):
        reg = MetricsRegistry()
        for value in self.HOSTILE:
            reg.histogram("lat", labels={"graph": value}).observe(1.0)
        parsed = [parse_name(key) for key in reg.snapshot()]
        assert sorted(labels["graph"] for _, labels in parsed) == sorted(self.HOSTILE)
        assert all("\n" not in key for key in reg.snapshot())


class TestThreadSafety:
    """Satellite 1: concurrent mutation must not lose increments."""

    def test_hammered_counter_loses_nothing(self):
        reg = MetricsRegistry()
        threads_n, per_thread = 8, 5_000
        start = threading.Barrier(threads_n)

        def hammer():
            start.wait()
            c = reg.counter("hammered")
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hammered").value == threads_n * per_thread

    def test_hammered_histogram_keeps_every_sample(self):
        reg = MetricsRegistry()
        threads_n, per_thread = 8, 2_000
        start = threading.Barrier(threads_n)

        def hammer(seed):
            start.wait()
            h = reg.histogram("lat")
            for i in range(per_thread):
                h.observe(0.001 * (seed + 1) * (i % 7 + 1))

        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        h = reg.histogram("lat")
        assert h.count == threads_n * per_thread
        # bucket counters must account for every sample too
        assert sum(c for _, c in h.bucket_counts()) == h.count

    def test_concurrent_registration_yields_one_handle(self):
        reg = MetricsRegistry()
        handles = []
        start = threading.Barrier(8)

        def register():
            start.wait()
            handles.append(reg.counter("same.name"))

        threads = [threading.Thread(target=register) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(reg) == 1
        assert all(h is handles[0] for h in handles)


class TestHistogramQuantiles:
    """Satellite 3: quantile estimation edge cases."""

    def test_empty_histogram_answers_zero(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) == 0.0
        assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_sample_answers_every_quantile_exactly(self):
        h = MetricsRegistry().histogram("h")
        h.observe(0.125)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.125)

    def test_quantiles_clamped_to_observed_range(self):
        h = MetricsRegistry().histogram("h")
        for v in (2.0, 3.0, 4.0):
            h.observe(v)
        assert h.quantile(0.0) >= 2.0
        assert h.quantile(1.0) <= 4.0

    def test_overflow_bucket_tops_out_at_observed_max(self):
        h = MetricsRegistry().histogram("h")
        beyond = BUCKET_BOUNDS[-1] * 10  # past the last finite bound
        h.observe(beyond)
        assert h.quantile(0.99) == pytest.approx(beyond)
        # the +inf bucket index is one past the last finite bound
        [(index, count)] = h.bucket_counts()
        assert index == len(BUCKET_BOUNDS)
        assert count == 1

    def test_zero_and_negative_samples_land_in_first_bucket(self):
        h = MetricsRegistry().histogram("h")
        h.observe(0.0)
        h.observe(-1.0)
        assert h.count == 2
        assert h.minimum == -1.0
        [(index, count)] = h.bucket_counts()
        assert index == 0 and count == 2

    def test_quantile_out_of_range_rejected(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_median_of_uniform_spread_is_plausible(self):
        h = MetricsRegistry().histogram("h")
        for i in range(1, 101):
            h.observe(i / 100.0)
        # log-bucketed estimate: within one bucket's width of the truth
        assert h.quantile(0.5) == pytest.approx(0.5, rel=0.45)
        assert h.quantile(0.95) == pytest.approx(0.95, rel=0.45)
