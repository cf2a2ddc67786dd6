"""WorkerClient: spawn, handshake, correlation, death, backpressure."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.graph.generators import grid_road_network
from repro.net.worker import (
    WorkerClient,
    WorkerRequestError,
    query_from_wire,
    query_to_wire,
)
from repro.resilience import ScheduledFaultPlan
from repro.service import QueryEngine, SSSPQuery
from repro.service.catalog import GraphCatalog


def _client(grids, **kwargs):
    kwargs.setdefault("engine_kwargs", {"max_workers": 1})
    kwargs.setdefault("heartbeat_ms", 100.0)
    return WorkerClient(0, grids, **kwargs)


def _wire(graph, sources):
    return [
        query_to_wire(SSSPQuery(graph_id=graph, source=s)) for s in sources
    ]


def test_request_answers_match_in_process_engine(grids, registry):
    cat = GraphCatalog()
    for name, graph in grids.items():
        cat.register(name, graph)
    engine = QueryEngine(cat, max_workers=1)
    client = _client(grids)
    try:
        queries = [
            SSSPQuery(graph_id=g, source=s)
            for g in sorted(grids)
            for s in (0, 5)
        ]
        body = client.request(
            [query_to_wire(q) for q in queries]
        ).result(timeout=30.0)
        rows = body["responses"]
        direct = engine.run_many(queries)
        assert len(rows) == len(direct)
        for row, want in zip(rows, direct):
            assert row["ok"] is want.ok
            assert row["reached"] == want.reached
            assert row["max_dist"] == want.max_dist
            assert row["mean_dist"] == want.mean_dist
            assert row["fingerprint"] == want.fingerprint
    finally:
        client.close()
        engine.close()


def test_handshake_records_graph_fingerprints(grids, registry):
    client = _client(grids)
    try:
        assert set(client.graph_fingerprints) == set(grids)
        for name, graph in grids.items():
            assert client.graph_fingerprints[name] == graph.fingerprint()
        snap = client.snapshot()
        assert snap["alive"] is True
        assert snap["pid"] == client.proc.pid
        assert snap["exit"] is None
    finally:
        client.close()


def test_concurrent_requests_correlate_correctly(grids, registry):
    client = _client(grids)
    try:
        futures = [
            (s, client.request(_wire("alpha", [s])))
            for s in range(8)
        ]
        engine_cat = GraphCatalog()
        engine_cat.register("alpha", grids["alpha"])
        engine = QueryEngine(engine_cat, max_workers=1)
        try:
            for source, future in futures:
                row = future.result(timeout=30.0)["responses"][0]
                want = engine.run(SSSPQuery(graph_id="alpha", source=source))
                assert row["max_dist"] == want.max_dist, source
        finally:
            engine.close()
    finally:
        client.close()


def test_sigkill_fails_inflight_and_subsequent_requests(grids, registry):
    client = _client(grids)
    try:
        os.kill(client.proc.pid, signal.SIGKILL)
        client.proc.wait(timeout=10.0)
        deadline = time.monotonic() + 5.0
        while client.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not client.alive
        # the reader may see the EOF before waitpid reaps the corpse;
        # either way the death is recorded and exit_description is exact
        assert client.death_reason
        assert "SIGKILL" in client.exit_description()
        with pytest.raises(WorkerRequestError, match="retry"):
            client.request(_wire("alpha", [0])).result(timeout=5.0)
    finally:
        client.close()


def test_sigstop_expires_heartbeat_and_request_deadline(grids, registry):
    client = _client(grids, heartbeat_timeout_ms=300.0)
    try:
        assert not client.heartbeat_expired()
        os.kill(client.proc.pid, signal.SIGSTOP)
        try:
            future = client.request(_wire("alpha", [0]), deadline_seconds=0.4)
            with pytest.raises(WorkerRequestError, match="deadline"):
                future.result(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while not client.heartbeat_expired() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert client.heartbeat_expired()
            assert (
                registry.counter(
                    "net.worker.heartbeat_misses", {"shard": "0"}
                ).value
                >= 1
            )
        finally:
            os.kill(client.proc.pid, signal.SIGCONT)
    finally:
        client.close()


def test_window_full_sheds_retryably(grids, registry):
    client = _client(grids, window=1)
    try:
        os.kill(client.proc.pid, signal.SIGSTOP)
        try:
            first = client.request(_wire("alpha", [0]), deadline_seconds=30.0)
            second = client.request(_wire("alpha", [1]), deadline_seconds=0.2)
            with pytest.raises(WorkerRequestError, match="window full"):
                second.result(timeout=5.0)
        finally:
            os.kill(client.proc.pid, signal.SIGCONT)
        # the stalled slot drains once the worker resumes
        assert first.result(timeout=30.0)["responses"][0]["ok"]
    finally:
        client.close()


def test_corrupt_response_fails_only_its_frame(grids, registry):
    client = _client(
        grids,
        fault_plan=ScheduledFaultPlan(at=(0,), kind="frame_corrupt"),
    )
    try:
        with pytest.raises(WorkerRequestError):
            client.request(_wire("alpha", [0])).result(timeout=30.0)
        assert (
            registry.counter("net.worker.frames_corrupt", {"shard": "0"}).value
            == 1
        )
        # the stream resynced: the very next request succeeds
        body = client.request(_wire("alpha", [0])).result(timeout=30.0)
        assert body["responses"][0]["ok"]
        assert client.alive
    finally:
        client.close()


def test_adopt_graph_after_handshake(grids, registry):
    client = _client(grids)
    try:
        extra = grid_road_network(6, 6, seed=31)
        client.adopt_graph("gamma", extra)
        assert client.graph_fingerprints["gamma"] == extra.fingerprint()
        body = client.request(_wire("gamma", [0])).result(timeout=30.0)
        assert body["responses"][0]["ok"]
        assert body["responses"][0]["fingerprint"] == extra.fingerprint()
    finally:
        client.close()


def test_query_wire_round_trip():
    q = SSSPQuery(
        graph_id="g",
        source=4,
        algorithm="dijkstra",
        params={"delta": 2.0},
        request_id="r-1",
    )
    assert query_from_wire(query_to_wire(q)) == q


def test_close_is_idempotent(grids, registry):
    client = _client(grids)
    client.close()
    client.close()
    assert not client.alive
