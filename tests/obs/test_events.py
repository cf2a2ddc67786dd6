"""Tests for the structured event log."""

import json

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    JsonlSink,
    ListSink,
    NullEventSink,
)


class TestListSink:
    def test_collects_in_order(self):
        sink = ListSink()
        sink.emit({"type": "a", "k": 0})
        sink.emit({"type": "b", "k": 1})
        assert [e["type"] for e in sink.events] == ["a", "b"]

    def test_of_type(self):
        sink = ListSink()
        sink.emit({"type": "iteration", "k": 0})
        sink.emit({"type": "run_end"})
        assert len(sink.of_type("iteration")) == 1


class TestJsonlSink:
    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"type": "run_start", "v": EVENT_SCHEMA_VERSION})
            sink.emit({"type": "iteration", "k": 0, "x1": 3})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["type"] == "run_start"
        assert json.loads(lines[1])["x1"] == 3

    def test_streams_before_close(self, tmp_path):
        """Events are on disk the moment they are emitted (flushed)."""
        path = tmp_path / "e.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "iteration", "k": 0})
        assert json.loads(path.read_text().splitlines()[0])["k"] == 0
        sink.close()

    def test_nan_becomes_null(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"type": "iteration", "d": float("nan")})
        payload = json.loads(path.read_text())
        assert payload["d"] is None

    def test_nested_nan_and_inf_become_null(self, tmp_path):
        """An ``iterations`` event's d/alpha columns start as NaN."""
        path = tmp_path / "e.jsonl"
        nan, inf = float("nan"), float("inf")
        with JsonlSink(path) as sink:
            sink.emit({"type": "iterations", "d_estimate": [nan, 2.5], "m": {"a": [inf]}})

        def strict(token):
            raise AssertionError(f"non-JSON constant {token}")

        payload = json.loads(path.read_text(), parse_constant=strict)
        assert payload["d_estimate"] == [None, 2.5]
        assert payload["m"] == {"a": [None]}

    def test_counts_events(self, tmp_path):
        with JsonlSink(tmp_path / "e.jsonl") as sink:
            for k in range(5):
                sink.emit({"k": k})
            assert sink.count == 5

    def test_accepts_open_file_object(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with path.open("w") as f:
            sink = JsonlSink(f)
            sink.emit({"k": 1})
            sink.close()  # must not close a file it does not own
            assert not f.closed
        assert json.loads(path.read_text())["k"] == 1


class TestNullSink:
    def test_disabled_and_silent(self):
        sink = NullEventSink()
        assert not sink.enabled
        sink.emit({"anything": 1})
        sink.close()
