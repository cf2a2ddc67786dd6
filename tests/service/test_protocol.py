"""Tests for the JSONL serve protocol."""

import io
import json

import pytest

from repro.service import QueryEngine, handle_line, serve_stream
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolSession,
    parse_batch_query,
    parse_query,
)


class TestParseQuery:
    def test_minimal(self):
        q = parse_query({"graph": "g", "source": 3})
        assert q.graph_id == "g"
        assert q.source == 3
        assert q.algorithm == "adaptive"
        assert dict(q.params) == {}
        assert q.request_id is None

    def test_full(self):
        q = parse_query(
            {
                "graph": "g",
                "source": "4",
                "algorithm": "nearfar",
                "params": {"delta": 1.5},
                "id": 7,
            }
        )
        assert q.source == 4
        assert q.request_id == "7"
        assert dict(q.params) == {"delta": 1.5}

    @pytest.mark.parametrize(
        "request_,message",
        [
            ({"source": 0}, "missing 'graph'"),
            ({"graph": "g"}, "missing 'source'"),
            ({"graph": "g", "source": "abc"}, "integer"),
            ({"graph": "g", "source": 0, "params": [1]}, "object"),
        ],
    )
    def test_rejections(self, request_, message):
        with pytest.raises(ValueError, match=message):
            parse_query(request_)

    def test_oversized_params_rejected(self):
        params = {f"k{i}": i for i in range(17)}
        with pytest.raises(ValueError, match=r"17 keys \(max 16\)"):
            parse_query({"graph": "g", "source": 0, "params": params})

    def test_params_at_the_bound_accepted(self):
        params = {f"k{i}": i for i in range(16)}
        q = parse_query({"graph": "g", "source": 0, "params": params})
        assert len(dict(q.params)) == 16


class TestHandleLine:
    @pytest.fixture
    def engine(self, catalog):
        with QueryEngine(catalog) as e:
            yield e

    def test_blank_line_skipped(self, engine):
        assert handle_line(engine, "   \n") is None

    def test_bad_json(self, engine):
        response = handle_line(engine, "{nope")
        assert response["ok"] is False
        assert "invalid JSON" in response["error"]

    def test_non_object(self, engine):
        response = handle_line(engine, "[1, 2]")
        assert response["ok"] is False

    def test_query_default_op(self, engine):
        response = handle_line(engine, '{"graph": "grid", "source": 0}')
        assert response["ok"] is True
        assert response["cache"] == "miss"

    def test_query_echoes_id_on_parse_error(self, engine):
        response = handle_line(engine, '{"graph": "grid", "id": "x"}')
        assert response["ok"] is False
        assert response["id"] == "x"

    def test_stats_op(self, engine):
        handle_line(engine, '{"graph": "grid", "source": 0}')
        response = handle_line(engine, '{"op": "stats"}')
        assert response["ok"] is True
        assert response["queries"] == 1
        assert response["cache"]["misses"] == 1

    def test_graphs_op(self, engine):
        response = handle_line(engine, '{"op": "graphs"}')
        assert response["ok"] is True
        assert [g["id"] for g in response["graphs"]] == ["grid"]

    def test_health_op(self, engine):
        response = handle_line(engine, '{"op": "health"}')
        assert response["ok"] is True
        assert response["op"] == "health"
        assert response["v"] == PROTOCOL_VERSION
        assert response["pool"]["alive"] is True

    def test_unknown_op(self, engine):
        response = handle_line(engine, '{"op": "shutdown"}')
        assert response["ok"] is False
        assert "unknown op" in response["error"]
        assert "health" in response["error"]


class TestServeStream:
    def test_one_response_per_request(self, catalog):
        lines = [
            '{"graph": "grid", "source": 0, "algorithm": "dijkstra", "id": "a"}',
            "",
            '{"graph": "grid", "source": 0, "algorithm": "dijkstra", "id": "b"}',
            "garbage",
            '{"op": "stats"}',
        ]
        out = io.StringIO()
        with QueryEngine(catalog) as engine:
            written = serve_stream(engine, lines, out)
        assert written == 4  # the blank line produces nothing
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert len(responses) == 4
        assert responses[0]["id"] == "a" and responses[0]["cache"] == "miss"
        assert responses[1]["id"] == "b" and responses[1]["cache"] == "hit"
        assert responses[2]["ok"] is False
        assert responses[3]["op"] == "stats"

    def test_json_nested_too_deep_answers_invalid_json(self, catalog):
        lines = ["[" * 100_000 + "]" * 100_000, '{"graph": "grid", "source": 0}']
        out = io.StringIO()
        with QueryEngine(catalog) as engine:
            assert serve_stream(engine, lines, out) == 2
        deep, query = (json.loads(l) for l in out.getvalue().splitlines())
        assert deep["ok"] is False
        assert deep["error"].startswith("invalid JSON: maximum recursion depth")
        assert query["ok"] is True

    def test_stream_survives_engine_level_errors(self, catalog):
        lines = [
            '{"graph": "absent", "source": 0}',
            '{"graph": "grid", "source": 0}',
        ]
        out = io.StringIO()
        with QueryEngine(catalog) as engine:
            assert serve_stream(engine, lines, out) == 2
        first, second = (json.loads(l) for l in out.getvalue().splitlines())
        assert first["ok"] is False
        assert second["ok"] is True

    def test_stream_survives_an_engine_crash(self, catalog, monkeypatch):
        """The satellite guarantee: an unexpected exception while
        answering one line is answered in-band, not raised."""
        lines = [
            '{"graph": "grid", "source": 0}',
            '{"graph": "grid", "source": 1}',
        ]
        out = io.StringIO()
        with QueryEngine(catalog) as engine:
            real_run = engine.run
            calls = {"n": 0}

            def flaky_run(query):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("engine exploded")
                return real_run(query)

            monkeypatch.setattr(engine, "run", flaky_run)
            assert serve_stream(engine, lines, out) == 2
        first, second = (json.loads(l) for l in out.getvalue().splitlines())
        assert first["ok"] is False
        assert "internal error: RuntimeError: engine exploded" in first["error"]
        assert second["ok"] is True


class TestBatchQueries:
    """Protocol v3: the ``sources`` list form."""

    @pytest.fixture
    def engine(self, catalog):
        with QueryEngine(catalog, max_batch=8) as e:
            yield e

    def test_parse_batch(self):
        queries = parse_batch_query(
            {"graph": "g", "sources": [1, 2, 3], "algorithm": "nearfar"}
        )
        assert [q.source for q in queries] == [1, 2, 3]
        assert all(q.graph_id == "g" for q in queries)
        assert all(q.algorithm == "nearfar" for q in queries)

    @pytest.mark.parametrize(
        "request_, message",
        [
            ({"graph": "g", "sources": []}, "non-empty"),
            ({"graph": "g", "sources": 3}, "non-empty array"),
            ({"graph": "g", "sources": [1], "source": 1}, "not both"),
            ({"graph": "g", "sources": [1, "x"]}, "integer"),
            ({"graph": "g", "sources": [1, True]}, "integer"),
            ({"graph": "g", "sources": list(range(257))}, "max 256"),
        ],
    )
    def test_rejections(self, request_, message):
        with pytest.raises(ValueError, match=message):
            parse_batch_query(request_)

    def test_handle_line_sources(self, engine):
        response = handle_line(
            engine,
            '{"graph": "grid", "sources": [0, 5, 9], '
            '"algorithm": "nearfar", "id": "b1"}',
        )
        assert response["ok"] is True
        assert response["count"] == 3
        assert response["id"] == "b1"
        assert len(response["results"]) == 3
        for entry in response["results"]:
            assert entry["ok"] is True
            assert entry["reached"] > 1

    def test_handle_line_sources_partial_failure(self, engine):
        big = 10_000_000
        response = handle_line(
            engine,
            f'{{"graph": "grid", "sources": [0, {big}], "algorithm": "nearfar"}}',
        )
        assert response["ok"] is False  # all-ok conjunction
        assert response["count"] == 2
        assert response["results"][0]["ok"] is True
        assert response["results"][1]["ok"] is False

    def test_handle_line_sources_parse_error_echoes_id(self, engine):
        response = handle_line(
            engine, '{"graph": "grid", "sources": [], "id": "e"}'
        )
        assert response["ok"] is False
        assert response["id"] == "e"

    def test_duplicate_sources_one_line(self, engine):
        response = handle_line(
            engine,
            '{"graph": "grid", "sources": [0, 0, 5], "algorithm": "nearfar"}',
        )
        assert response["ok"] is True
        caches = [entry["cache"] for entry in response["results"]]
        assert caches.count("coalesced") == 1


class TestDeltaEdgeCases:
    """Deltas a client can send that once gave wrong answers or hung."""

    @pytest.fixture
    def engine(self, catalog):
        with QueryEngine(catalog, max_batch=8) as e:
            yield e

    @pytest.mark.parametrize("algorithm", ["nearfar", "delta-stepping"])
    @pytest.mark.parametrize("form", ['"source": 0', '"sources": [0, 5]'])
    def test_nan_delta_answers_in_band_error(self, engine, algorithm, form):
        # json.loads accepts the NaN literal
        line = (
            f'{{"graph": "grid", {form}, "algorithm": "{algorithm}", '
            f'"params": {{"delta": NaN}}, "id": "nan"}}'
        )
        response = handle_line(engine, line)
        assert response["ok"] is False
        assert response["id"] == "nan"
        entries = response.get("results", [response])
        assert all(not e["ok"] for e in entries)
        assert all("delta must be" in e["error"] for e in entries), entries

    @pytest.mark.parametrize("delta", ["1e-14", "1e-16"])
    def test_delta_below_distance_spacing_reaches_everything(self, engine, grid, delta):
        # delta-stepping's bounded-time check lives in tests/sssp, in a subprocess
        line = (
            f'{{"graph": "grid", "sources": [0, 5], "algorithm": "nearfar", '
            f'"params": {{"delta": {delta}}}}}'
        )
        response = handle_line(engine, line)
        assert response["ok"] is True, response
        assert [e["reached"] for e in response["results"]] == [grid.num_nodes] * 2


class TestMetricsOpAndTraces:
    """Protocol v4: the metrics op, per-line trace minting, sampling."""

    def _telemetry(self):
        from repro import obs

        return obs.use(
            registry=obs.MetricsRegistry(),
            events=obs.ListSink(),
            spans=obs.SpanRecorder(),
        )

    def test_metrics_op_json_snapshot(self, catalog):
        with self._telemetry():
            with QueryEngine(catalog) as engine:
                handle_line(engine, '{"graph": "grid", "source": 0}')
                response = handle_line(engine, '{"op": "metrics"}')
        assert response["ok"] is True
        assert response["op"] == "metrics"
        assert response["v"] == PROTOCOL_VERSION
        latency_keys = [
            k for k in response["metrics"] if k.startswith("service.query.latency")
        ]
        assert len(latency_keys) == 1
        data = response["metrics"][latency_keys[0]]
        assert data["count"] == 1
        assert data["p50"] > 0 and data["p99"] > 0

    def test_metrics_op_prometheus_text(self, catalog):
        with self._telemetry():
            with QueryEngine(catalog) as engine:
                handle_line(engine, '{"graph": "grid", "source": 0}')
                response = handle_line(
                    engine, '{"op": "metrics", "format": "prometheus"}'
                )
        assert response["ok"] is True
        assert response["format"] == "prometheus"
        assert "repro_service_query_latency_bucket" in response["text"]
        assert 'graph="grid"' in response["text"]

    def test_metrics_op_empty_without_telemetry(self, catalog):
        from repro import obs

        with obs.use():
            with QueryEngine(catalog) as engine:
                response = handle_line(engine, '{"op": "metrics"}')
        assert response["ok"] is True
        assert response["metrics"] == {}

    def test_query_response_carries_trace_when_telemetry_on(self, catalog):
        with self._telemetry():
            with QueryEngine(catalog) as engine:
                single = handle_line(engine, '{"graph": "grid", "source": 0}')
                batch = handle_line(
                    engine, '{"graph": "grid", "sources": [1, 2]}'
                )
        assert single["ok"] and single["trace"]
        assert batch["ok"] and batch["trace"]
        # one line, one trace: every batch member shares it
        assert all(
            entry["trace"] == batch["trace"] for entry in batch["results"]
        )
        assert single["trace"] != batch["trace"]

    def test_no_trace_key_without_telemetry(self, catalog):
        from repro import obs

        with obs.use():
            with QueryEngine(catalog) as engine:
                response = handle_line(engine, '{"graph": "grid", "source": 0}')
        assert response["ok"] is True
        assert "trace" not in response

    def test_protocol_span_closes_each_query_line(self, catalog):
        from repro import obs

        sink = obs.ListSink()
        with obs.use(registry=obs.MetricsRegistry(), events=sink):
            with QueryEngine(catalog) as engine:
                handle_line(engine, '{"graph": "grid", "source": 0}')
        protocol_spans = [
            e for e in sink.of_type("span") if e["name"] == "protocol"
        ]
        assert len(protocol_spans) == 1
        assert protocol_spans[0]["seconds"] > 0

    def test_sampler_halves_span_traffic(self, catalog):
        from repro import obs
        from repro.obs.telemetry import TraceSampler

        sink = obs.ListSink()
        with obs.use(registry=obs.MetricsRegistry(), events=sink):
            with QueryEngine(catalog, cache_size=0) as engine:
                sampler = TraceSampler(0.5)
                for source in range(4):
                    line = f'{{"graph": "grid", "source": {source}}}'
                    response = handle_line(engine, line, sampler)
                    assert response["ok"] is True
        protocol_spans = [
            e for e in sink.of_type("span") if e["name"] == "protocol"
        ]
        assert len(protocol_spans) == 2  # every 2nd line, deterministically

    def test_unknown_op_mentions_metrics(self, catalog):
        from repro import obs

        with obs.use():
            with QueryEngine(catalog) as engine:
                response = handle_line(engine, '{"op": "nope"}')
        assert response["ok"] is False
        assert "metrics" in response["error"]


class TestProtocolSession:
    """The two-phase begin/finish path async transports rely on."""

    def test_begin_skips_blank_lines(self, catalog):
        with QueryEngine(catalog) as engine:
            session = ProtocolSession(engine)
            assert session.begin("") is None
            assert session.begin("   \n") is None

    def test_admin_ops_are_ready_immediately(self, catalog):
        with QueryEngine(catalog) as engine:
            session = ProtocolSession(engine)
            pending = session.begin('{"op": "stats"}')
            assert pending.ready
            assert pending.response["ok"] is True
            assert pending.wait() is pending.response

    def test_parse_errors_are_ready_immediately(self, catalog):
        with QueryEngine(catalog) as engine:
            session = ProtocolSession(engine)
            pending = session.begin("not json")
            assert pending.ready and pending.response["ok"] is False

    def test_query_without_submit_many_resolves_synchronously(self, catalog):
        with QueryEngine(catalog) as engine:
            session = ProtocolSession(engine)
            pending = session.begin('{"graph": "grid", "source": 0}')
            assert pending.ready  # plain engines answer in begin()
            assert pending.wait()["ok"] is True

    def test_query_with_submit_many_defers_to_the_future(self, catalog):
        """An engine exposing submit_many keeps begin() non-blocking."""
        import concurrent.futures

        class Deferred:
            def __init__(self, engine):
                self._engine = engine
                self.telemetry = engine.telemetry
                self.events = engine.events

            def submit_many(self, queries):
                future = concurrent.futures.Future()
                future.set_result(self._engine.run_many(queries))
                return future

        with QueryEngine(catalog) as engine:
            session = ProtocolSession(Deferred(engine))
            pending = session.begin('{"graph": "grid", "source": 0}')
            assert not pending.ready
            raw = pending.future.result()
            response = pending.finish(raw)
            assert response["ok"] is True
            assert pending.wait()["ok"] is True  # blocking path, same data

    def test_batched_reply_shape_matches_handle_line(self, catalog):
        line = '{"graph": "grid", "sources": [0, 1]}'
        with QueryEngine(catalog) as engine:
            session = ProtocolSession(engine)
            via_session = session.begin(line).wait()
            via_handle = handle_line(engine, line)

        def strip(d):
            d = {k: v for k, v in d.items() if k != "results"}
            return d

        assert strip(via_session) == strip(via_handle)

    def test_handle_counts_responses(self, catalog):
        with QueryEngine(catalog) as engine:
            session = ProtocolSession(engine)
            assert session.handle("") is None
            session.handle('{"op": "stats"}')
            session.handle('{"graph": "grid", "source": 0}')
            assert session.responses == 2

    def test_handle_answers_engine_crashes_in_band(self, catalog, monkeypatch):
        with QueryEngine(catalog) as engine:
            session = ProtocolSession(engine)

            def boom(query):
                raise RuntimeError("engine exploded")

            monkeypatch.setattr(engine, "run", boom)
            response = session.handle('{"graph": "grid", "source": 0}')
            assert response["ok"] is False
            assert "internal error" in response["error"]
            # the session keeps serving afterwards
            monkeypatch.undo()
            assert session.handle('{"op": "stats"}')["ok"] is True
