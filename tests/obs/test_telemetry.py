"""Tests for trace propagation: contexts, sampling, span events."""

import pytest

from repro import obs
from repro.obs.telemetry import (
    TraceContext,
    TraceSampler,
    WorkerEvents,
    emit_span,
)


class TestTraceContext:
    def test_mint_is_a_root(self):
        ctx = TraceContext.mint()
        assert ctx.trace_id and ctx.span_id
        assert ctx.parent_id is None
        assert ctx.sampled is True

    def test_mint_unique_ids(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id

    def test_child_keeps_trace_reparents_span(self):
        root = TraceContext.mint(sampled=False)
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        assert child.sampled is False  # the decision sticks down the chain


class TestTraceSampler:
    def test_rate_one_samples_everything(self):
        sampler = TraceSampler(1.0)
        assert all(sampler.sample() for _ in range(10))

    def test_rate_zero_samples_nothing(self):
        sampler = TraceSampler(0.0)
        assert not any(sampler.sample() for _ in range(10))

    def test_half_rate_is_every_second_deterministically(self):
        decisions = [TraceSampler(0.5).sample() for _ in range(1)]
        assert decisions == [False]
        sampler = TraceSampler(0.5)
        assert [sampler.sample() for _ in range(6)] == [
            False, True, False, True, False, True,
        ]

    def test_quarter_rate_fires_every_fourth(self):
        sampler = TraceSampler(0.25)
        fired = [i for i in range(12) if sampler.sample()]
        assert fired == [3, 7, 11]

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TraceSampler(1.5)
        with pytest.raises(ValueError):
            TraceSampler(-0.1)


class TestEmitSpan:
    def test_emits_for_sampled_trace(self):
        sink = obs.ListSink()
        ctx = TraceContext.mint()
        emit_span(sink, ctx, "engine/query", 0.25, qid=3)
        [event] = sink.events
        assert event["type"] == "span"
        assert event["trace"] == ctx.trace_id
        assert event["span"] == ctx.span_id
        assert event["name"] == "engine/query"
        assert event["seconds"] == 0.25
        assert event["qid"] == 3

    def test_silent_when_unsampled_or_missing(self):
        sink = obs.ListSink()
        emit_span(sink, TraceContext.mint(sampled=False), "x", 0.1)
        emit_span(sink, None, "x", 0.1)
        assert sink.events == []


class TestWorkerEvents:
    def test_stamps_a_copy_with_trace_and_worker(self):
        sink = obs.ListSink()
        event = {"type": "run_start", "trace": None}
        WorkerEvents(sink, "abc").emit(event)
        assert sink.events == [
            {"type": "run_start", "trace": "abc", "worker": True}
        ]
        assert event == {"type": "run_start", "trace": None}


class TestThreadScopedContext:
    def test_thread_scope_shadows_only_this_thread(self):
        import threading

        outer = obs.MetricsRegistry()
        seen = {}

        def worker():
            # no thread-local override here: sees the process context
            seen["registry"] = obs.get_registry()

        with obs.use(registry=outer):
            inner = obs.MetricsRegistry()
            with obs.use(registry=inner, scope="thread"):
                assert obs.get_registry() is inner
                t = threading.Thread(target=worker)
                t.start()
                t.join()
            assert obs.get_registry() is outer
        assert seen["registry"] is outer
