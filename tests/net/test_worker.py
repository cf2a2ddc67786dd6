"""WorkerClient: spawn, handshake, correlation, death, bad frames."""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from repro.graph.generators import grid_road_network
from repro.net.frames import (
    FT_ADOPT,
    FT_ADOPT_OK,
    FT_CONFIG,
    FT_ERROR,
    FT_HEARTBEAT,
    FT_HELLO,
    FT_READY,
    FT_REQUEST,
    FT_RESPONSE,
    FT_SHUTDOWN,
    decode_json_payload,
    encode_frame,
    recv_frame,
    send_json_frame,
)
from repro.net.worker import (
    HandshakeError,
    WorkerClient,
    WorkerRequestError,
    _WorkerEngineProxy,
    _WorkerProcess,
    query_from_wire,
    query_to_wire,
    run_worker,
)
from repro.resilience import ScheduledFaultPlan
from repro.service import QueryEngine, SSSPQuery
from repro.service.catalog import GraphCatalog
from repro.service.serial import pack_graph


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


def test_missed_request_deadline_marks_the_client_dead(grids, registry):
    client = _client(grids)
    try:
        os.kill(client.proc.pid, signal.SIGSTOP)
        try:
            future = client.request(_wire("alpha", [0]), deadline_seconds=0.4)
            with pytest.raises(WorkerRequestError, match="deadline"):
                future.result(timeout=10.0)
            assert not client.alive
            assert "missed the deadline" in client.death_reason
        finally:
            os.kill(client.proc.pid, signal.SIGCONT)
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


def test_adopt_after_config_answers_bad_frame(grids, registry):
    """A worker's graph set is fixed at CONFIG; a later ADOPT fails alone."""
    client = _client(grids)
    try:
        extra = grid_road_network(6, 6, seed=31)
        with pytest.raises(RuntimeError, match="bad frame: ValueError: ") as info:
            client.adopt_graph("gamma", extra)
        assert not isinstance(info.value, WorkerRequestError)  # not retryable
        assert "gamma" not in client.graph_fingerprints
        assert client.alive
        body = client.request(_wire("gamma", [0]) + _wire("alpha", [0])).result(
            timeout=30.0
        )
        gamma, alpha = body["responses"]
        assert not gamma["ok"] and "unknown graph" in gamma["error"]
        assert alpha["ok"]
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


def _stop(pid: int) -> None:
    """SIGSTOP ``pid`` and return once it is stopped, not just signalled."""
    os.kill(pid, signal.SIGSTOP)
    stat = Path(f"/proc/{pid}/stat")
    if not stat.exists():  # no procfs: give the stop time to land
        time.sleep(0.2)
        return
    deadline = time.monotonic() + 5.0
    while stat.read_text().rsplit(")", 1)[1].split()[0] != "T":
        assert time.monotonic() < deadline, f"pid {pid} never stopped"
        time.sleep(0.005)


def test_close_kills_a_stopped_worker_at_once(grids, registry):
    """A worker that cannot act on a frame or a SIGTERM gets SIGKILL."""
    client = _client(grids)
    _stop(client.proc.pid)
    try:
        t0 = time.perf_counter()
        client.close(graceful=False)
        took = time.perf_counter() - t0
    finally:
        if client.proc.poll() is None:
            os.kill(client.proc.pid, signal.SIGCONT)
            client.close()
    assert took < 0.5, took
    assert client.proc.returncode == -signal.SIGKILL
    assert not client.alive


# ----------------------------------------------------------------------
# malformed frames, driven over a socketpair into an in-thread serve loop
# ----------------------------------------------------------------------
class _Link:
    """The parent end of a socketpair whose other end a serve loop owns."""

    def __init__(self):
        self.sock, child = socket.socketpair()
        self.worker = _WorkerProcess(
            child, shard_index=0, token="t", heartbeat_ms=60_000.0
        )
        self.thread = threading.Thread(target=self.worker.serve, daemon=True)
        self.thread.start()
        self.corr = 0
        frame_type, _, _ = recv_frame(self.sock, idle_timeout=30.0)
        assert frame_type == FT_HELLO

    def call(self, frame_type: int, payload: bytes):
        """Send one frame; return the ``(type, body)`` answering its corr."""
        self.corr += 1
        self.sock.sendall(encode_frame(frame_type, self.corr, payload))
        got_type, corr, body = recv_frame(self.sock, idle_timeout=30.0)
        assert corr == self.corr
        return got_type, decode_json_payload(body)

    def close(self) -> None:
        self.sock.sendall(encode_frame(FT_SHUTDOWN, 0, b"{}"))
        self.thread.join(timeout=10.0)
        self.sock.close()


def _json(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def _image(graph, edit) -> bytes:
    """A CRC-valid graph image whose JSON header went through ``edit``."""
    packed = pack_graph("gamma", graph)
    (head_len,) = struct.unpack_from("!I", packed, 4)
    head = _json(edit(json.loads(packed[8 : 8 + head_len])))
    return packed[:4] + struct.pack("!I", len(head)) + head + packed[8 + head_len :]


_ROW = query_to_wire(SSSPQuery("alpha", 0))
_REQUEST = _json({"queries": [_ROW]})
_NO_SOURCE = _json({"queries": [{k: v for k, v in _ROW.items() if k != "source"}]})


# case -> (frame type, payload builder over the grids, error it names)
BAD_FRAMES = {
    "adopt-renamed-key": (
        FT_ADOPT,
        lambda g: _image(
            g["beta"],
            lambda h: {
                ("num_edgez" if k == "num_edges" else k): v for k, v in h.items()
            },
        ),
        "GraphTransferError",
    ),
    "adopt-list-header": (
        FT_ADOPT, lambda g: _image(g["beta"], lambda h: list(h.values())),
        "GraphTransferError",
    ),
    "adopt-text-count": (
        FT_ADOPT, lambda g: _image(g["beta"], lambda h: {**h, "num_nodes": "a"}),
        "GraphTransferError",
    ),
    "adopt-fingerprint-mismatch": (
        FT_ADOPT,
        lambda g: _image(g["beta"], lambda h: {**h, "fingerprint": "0" * 64}),
        "GraphTransferError",
    ),
    "config-bad-kwarg": (
        FT_CONFIG, lambda g: _json({"engine": {"max_batch": "8"}}),
        "TypeError",
    ),
    "config-not-json": (FT_CONFIG, lambda g: b"{engine", "FrameError"),
    "request-without-source": (FT_REQUEST, lambda g: _NO_SOURCE, "KeyError"),
    "request-without-queries": (FT_REQUEST, lambda g: _json({}), "KeyError"),
}


def _adopt_and_configure(link: _Link, grids) -> None:
    got_type, _ = link.call(FT_ADOPT, pack_graph("alpha", grids["alpha"]))
    assert got_type == FT_ADOPT_OK
    got_type, _ = link.call(FT_CONFIG, _json({"engine": {"max_workers": 1}}))
    assert got_type == FT_READY


@pytest.mark.parametrize("case", sorted(BAD_FRAMES))
def test_malformed_frame_answers_error_and_keeps_serving(grids, case):
    frame_type, build, error = BAD_FRAMES[case]
    link = _Link()
    try:
        _adopt_and_configure(link, grids)
        got_type, body = link.call(frame_type, build(grids))
        assert got_type == FT_ERROR
        assert body["retryable"] is False
        assert body["error"].startswith(f"bad frame: {error}: "), body["error"]
        assert link.thread.is_alive()
        # the same worker answers a valid request next
        got_type, body = link.call(FT_REQUEST, _REQUEST)
        assert got_type == FT_RESPONSE
        (row,) = body["responses"]
        assert row["ok"] is True
        assert row["fingerprint"] == grids["alpha"].fingerprint()
    finally:
        link.close()
    assert not link.thread.is_alive()


def test_bad_first_config_leaves_worker_unconfigured_but_serving(grids):
    link = _Link()
    try:
        bad = _json({"engine": {"max_batch": "8"}})
        assert link.call(FT_CONFIG, bad)[0] == FT_ERROR
        got_type, body = link.call(FT_REQUEST, _REQUEST)
        assert (got_type, body["retryable"]) == (FT_ERROR, True)
        assert body["error"] == "worker not configured yet"
        _adopt_and_configure(link, grids)
        assert link.call(FT_REQUEST, _REQUEST)[0] == FT_RESPONSE
    finally:
        link.close()


# ----------------------------------------------------------------------
# bad answers, driven into a client whose worker end is a socketpair
# ----------------------------------------------------------------------
class _NoProcess:
    """The ``Popen`` surface a socketpair-wired client touches."""

    pid = 0
    returncode = None

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode

    def terminate(self):
        self.returncode = -signal.SIGTERM

    kill = terminate


@pytest.fixture
def paired(monkeypatch, registry):
    """``(client, peer)``: a WorkerClient and the worker end of its socket."""
    ours, peer = socket.socketpair()

    def spawn(self, graphs, engine_kwargs, fault_plan, spawn_timeout):
        self.sock, self.proc, self.pid = ours, _NoProcess(), 0
        self.last_stats = {"queries": 0}
        self.last_health = {"pool": {"alive": True}}
        self._reader.start()

    monkeypatch.setattr(WorkerClient, "_spawn", spawn)
    client = WorkerClient(0, {})
    yield client, peer
    client.close()
    peer.close()


def _answer_next(peer, frame_type: int, payload: bytes) -> None:
    """Read the client's next frame and answer its correlation id."""
    _, corr, _ = recv_frame(peer, idle_timeout=5.0)
    peer.sendall(encode_frame(frame_type, corr, payload))


@pytest.mark.parametrize("payload", [b"not json", b"[]"], ids=["not-json", "array"])
def test_undecodable_answer_fails_only_its_request(paired, payload):
    client, peer = paired
    bad = client.request(_wire("alpha", [0]), deadline_seconds=1.0)
    _answer_next(peer, FT_RESPONSE, payload)
    with pytest.raises(RuntimeError, match="bad frame") as info:
        bad.result(timeout=1.0)
    assert not isinstance(info.value, WorkerRequestError)  # same bytes, same failure
    assert client.alive and client._reader.is_alive()
    good = client.request(_wire("alpha", [1]), deadline_seconds=1.0)
    _answer_next(peer, FT_RESPONSE, _json({"responses": []}))
    assert good.result(timeout=1.0) == {"responses": []}


def test_answer_nested_too_deep_fails_only_its_request(paired):
    client, peer = paired
    deep = b"[" * 100_000 + b"]" * 100_000  # past any recursion limit
    bad = client.request(_wire("alpha", [0]), deadline_seconds=1.0)
    _answer_next(peer, FT_RESPONSE, deep)
    with pytest.raises(RuntimeError, match="bad frame: undecodable JSON payload"):
        bad.result(timeout=1.0)
    peer.sendall(encode_frame(FT_HEARTBEAT, 0, deep))
    good = client.request(_wire("alpha", [1]), deadline_seconds=1.0)
    _answer_next(peer, FT_RESPONSE, _json({"responses": []}))
    assert good.result(timeout=1.0) == {"responses": []}
    assert client.alive and client._reader.is_alive()


def test_heartbeat_with_non_object_stats_is_ignored(paired):
    client, peer = paired
    peer.sendall(encode_frame(FT_HEARTBEAT, 0, _json({"stats": {"queries": 3}})))
    peer.sendall(encode_frame(FT_HEARTBEAT, 0, _json({"stats": 5, "health": []})))
    # frames are read in order: once this answer lands, both beats were handled
    future = client.request(_wire("alpha", [0]), deadline_seconds=1.0)
    _answer_next(peer, FT_RESPONSE, _json({"responses": []}))
    future.result(timeout=1.0)
    assert client.last_stats == {"queries": 3}
    assert client.last_health == {"pool": {"alive": True}}
    proxy = _WorkerEngineProxy(client, GraphCatalog())
    assert proxy.stats()["queries"] == 3
    assert proxy.health()["pool"]["alive"] is True


def test_reader_failure_marks_client_dead(paired, monkeypatch):
    client, peer = paired

    def boom(self, payload):
        raise ValueError("reader bug")

    monkeypatch.setattr(WorkerClient, "_keep_beat", boom)
    future = client.request(_wire("alpha", [0]), deadline_seconds=30.0)
    peer.sendall(encode_frame(FT_HEARTBEAT, 0, _json({})))
    with pytest.raises(WorkerRequestError, match="reader failed: ValueError"):
        future.result(timeout=5.0)
    assert not client.alive


def test_wrong_answer_type_fails_the_call(paired):
    client, peer = paired
    future = client.request(_wire("alpha", [0]), deadline_seconds=1.0)
    _answer_next(peer, FT_READY, _json({}))
    with pytest.raises(RuntimeError, match=f"bad frame: type {FT_READY}, expected {FT_RESPONSE}"):
        future.result(timeout=1.0)
    assert client.alive


class _WorkerThread:
    """A ``Popen`` stand-in that serves the ``shard-worker`` argv on a thread."""

    def __init__(self, argv, **_):
        opts = dict(zip(argv[4::2], argv[5::2]))
        self.returncode = None
        self.thread = threading.Thread(
            target=run_worker,
            args=(opts["--connect"],),
            kwargs={
                "shard_index": int(opts["--shard"]),
                "token": opts["--token"],
                "heartbeat_ms": float(opts["--heartbeat-ms"]),
            },
            daemon=True,
        )
        self.thread.start()

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode

    def terminate(self):
        self.returncode = -signal.SIGTERM

    kill = terminate


def test_ready_without_stats_fails_the_spawn_and_closes_the_client(
    grids, registry, monkeypatch
):
    workers = []

    def spawn_thread(argv, **kwargs):
        workers.append(_WorkerThread(argv, **kwargs))
        return workers[-1]

    def ready_without_stats(self, corr, payload):
        graphs = {g: self.catalog.fingerprint(g) for g in self.catalog.names()}
        send_json_frame(self.sock, FT_READY, corr, {"graphs": graphs})

    monkeypatch.setattr("repro.net.worker.subprocess.Popen", spawn_thread)
    monkeypatch.setattr(_WorkerProcess, "_handle_config", ready_without_stats)
    with pytest.raises(HandshakeError, match="READY lacks stats or health"):
        _client(grids)
    (worker,) = workers
    worker.thread.join(timeout=10.0)
    assert not worker.thread.is_alive()  # the client closed its socket
