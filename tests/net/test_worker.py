"""WorkerClient: spawn, handshake, exchanges, beats, death, bad frames."""

from __future__ import annotations

import json
import os
import queue
import select
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
    FrameError,
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


def test_sigkill_fails_inflight_and_subsequent_requests(grids, registry):
    client = _client(grids)
    try:
        os.kill(client.proc.pid, signal.SIGKILL)
        client.proc.wait(timeout=10.0)
        deadline = time.monotonic() + 5.0
        while client.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not client.alive
        # waitpid reaps the corpse through alive, before any exchange
        # sees the EOF; the death is recorded and exit_description is exact
        assert client.death_reason
        assert "SIGKILL" in client.exit_description()
        with pytest.raises(WorkerRequestError, match="retry"):
            client.request(_wire("alpha", [0])).result(timeout=5.0)
    finally:
        client.close()


def test_sigstop_expires_heartbeat_and_request_deadline(grids, registry):
    """A stopped worker misses its beat when idle, its deadline when busy."""
    idle, busy = _client(grids), _client(grids)
    try:
        idle.beat()
        assert idle.snapshot()["heartbeat_timeout_ms"] == 500.0
        for client in (idle, busy):
            os.kill(client.proc.pid, signal.SIGSTOP)
        try:
            t0 = time.monotonic()
            with pytest.raises(WorkerRequestError, match="missed the heartbeat"):
                idle.beat()
            assert 0.45 < time.monotonic() - t0 < 5.0
            assert not idle.alive
            future = busy.request(_wire("alpha", [0]), deadline_seconds=0.4)
            with pytest.raises(WorkerRequestError, match="deadline"):
                future.result(timeout=10.0)
            assert not busy.alive
            misses = registry.counter("net.worker.heartbeat_misses", {"shard": "0"})
            assert misses.value == 1  # the REQUEST's deadline is not a beat
        finally:
            for client in (idle, busy):
                os.kill(client.proc.pid, signal.SIGCONT)
    finally:
        idle.close()
        busy.close()


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
        self.worker = _WorkerProcess(child, shard_index=0, token="t")
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


class _FakeWorker:
    """The worker end of a paired client's socket, answering on a helper thread.

    Each frame the client sends is answered by the next queued reply:
    ``reply(corr)`` returns the bytes to send back.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.replies: "queue.SimpleQueue" = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def answer(self, frame_type: int, payload: bytes, *, corrupt=False) -> None:
        """Queue one answer of ``frame_type`` to the next frame's corr."""

        def reply(corr: int) -> bytes:
            frame = bytearray(encode_frame(frame_type, corr, payload))
            if corrupt:
                frame[-1] ^= 0xFF  # a payload bit flipped after the CRC was set
            return bytes(frame)

        self.replies.put(reply)

    def _serve(self) -> None:
        try:
            while True:
                _, corr, _ = recv_frame(self.sock)
                reply = self.replies.get()
                if reply is None:  # the test is over
                    return
                self.sock.sendall(reply(corr))
        except (EOFError, OSError, FrameError):
            return


@pytest.fixture
def paired(monkeypatch, registry):
    """``(client, worker)``: a WorkerClient and a fake worker on its socket."""
    ours, peer = socket.socketpair()

    def spawn(self, graphs, engine_kwargs, spawn_timeout):
        self.sock, self.proc, self.pid = ours, _NoProcess(), 0
        self.last_stats = {"queries": 0}
        self.last_health = {"pool": {"alive": True}}

    monkeypatch.setattr(WorkerClient, "_spawn", spawn)
    client = WorkerClient(0, {})
    worker = _FakeWorker(peer)
    yield client, worker
    client.close()
    worker.replies.put(None)
    worker.thread.join(timeout=5.0)
    peer.close()


_EMPTY = _json({"responses": []})


def _good_request_follows(client, worker) -> None:
    """The stream is still framed: the next exchange succeeds."""
    worker.answer(FT_RESPONSE, _EMPTY)
    future = client.request(_wire("alpha", [1]), deadline_seconds=1.0)
    assert future.result(timeout=1.0) == {"responses": []}
    assert client.alive


def test_corrupt_response_fails_only_its_frame(paired, registry):
    """A RESPONSE whose CRC does not match fails its request alone, retryably."""
    client, worker = paired
    worker.answer(FT_RESPONSE, _EMPTY, corrupt=True)
    bad = client.request(_wire("alpha", [0]), deadline_seconds=1.0)
    with pytest.raises(WorkerRequestError, match="corrupt frame"):
        bad.result(timeout=1.0)
    assert (
        registry.counter("net.worker.frames_corrupt", {"shard": "0"}).value == 1
    )
    _good_request_follows(client, worker)


@pytest.mark.parametrize("payload", [b"not json", b"[]"], ids=["not-json", "array"])
def test_undecodable_answer_fails_only_its_request(paired, payload):
    client, worker = paired
    worker.answer(FT_RESPONSE, payload)
    bad = client.request(_wire("alpha", [0]), deadline_seconds=1.0)
    with pytest.raises(RuntimeError, match="bad frame") as info:
        bad.result(timeout=1.0)
    assert not isinstance(info.value, WorkerRequestError)  # same bytes, same failure
    _good_request_follows(client, worker)


def test_answer_nested_too_deep_fails_only_its_request(paired):
    client, worker = paired
    deep = b"[" * 100_000 + b"]" * 100_000  # past any recursion limit
    worker.answer(FT_RESPONSE, deep)
    bad = client.request(_wire("alpha", [0]), deadline_seconds=1.0)
    with pytest.raises(RuntimeError, match="bad frame: undecodable JSON payload"):
        bad.result(timeout=1.0)
    worker.answer(FT_HEARTBEAT, deep)
    with pytest.raises(RuntimeError, match="bad frame: undecodable JSON payload"):
        client.beat()
    assert client.last_stats == {"queries": 0}
    _good_request_follows(client, worker)


def test_heartbeat_with_non_object_stats_is_ignored(paired):
    client, worker = paired
    worker.answer(FT_HEARTBEAT, _json({"stats": {"queries": 3}}))
    client.beat()
    worker.answer(FT_HEARTBEAT, _json({"stats": 5, "health": []}))
    client.beat()
    assert client.last_stats == {"queries": 3}
    assert client.last_health == {"pool": {"alive": True}}
    proxy = _WorkerEngineProxy(client, GraphCatalog())
    assert proxy.stats()["queries"] == 3
    assert proxy.health()["pool"]["alive"] is True
    assert proxy.stats()["worker"]["heartbeat_age_ms"] < 1000.0


def test_wrong_answer_type_fails_the_call(paired):
    client, worker = paired
    worker.answer(FT_READY, _json({}))
    future = client.request(_wire("alpha", [0]), deadline_seconds=1.0)
    with pytest.raises(RuntimeError, match=f"bad frame: type {FT_READY}, expected {FT_RESPONSE}"):
        future.result(timeout=1.0)
    assert client.alive


def test_error_answer_honours_its_retryable_flag(paired):
    client, worker = paired
    worker.answer(FT_ERROR, _json({"error": "not yet", "retryable": True}))
    with pytest.raises(WorkerRequestError, match="worker 0: not yet"):
        client.request(_wire("alpha", [0])).result(timeout=1.0)
    worker.answer(FT_ERROR, _json({"error": "bad frame: KeyError", "retryable": False}))
    with pytest.raises(RuntimeError, match="worker 0: bad frame: KeyError") as info:
        client.request(_wire("alpha", [0])).result(timeout=1.0)
    assert not isinstance(info.value, WorkerRequestError)
    _good_request_follows(client, worker)


def test_close_wakes_a_blocked_exchange(paired):
    """Closing from another thread fails the exchange waiting on the socket."""
    client, worker = paired
    closer = threading.Timer(0.2, client.close, kwargs={"graceful": False})
    closer.start()
    t0 = time.monotonic()
    future = client.request(_wire("alpha", [0]), deadline_seconds=30.0)
    with pytest.raises(WorkerRequestError, match="closed"):
        future.result(timeout=1.0)
    assert time.monotonic() - t0 < 5.0
    closer.join()
    assert not client.alive


def test_idle_worker_sends_nothing_until_asked(grids):
    """After HELLO the worker only answers: an idle one stays silent."""
    link = _Link()
    try:
        _adopt_and_configure(link, grids)
        ready, _, _ = select.select([link.sock], [], [], 0.5)
        assert ready == []  # no unsolicited frame, heartbeat or otherwise
        got_type, body = link.call(FT_HEARTBEAT, b"{}")
        assert got_type == FT_HEARTBEAT
        assert body["pid"] == os.getpid()
        assert body["stats"]["queries"] == 0
        assert body["health"]["pool"]["alive"] is True
        ready, _, _ = select.select([link.sock], [], [], 0.2)
        assert ready == []
    finally:
        link.close()


class _WorkerThread:
    """A ``Popen`` stand-in that serves the ``shard-worker`` argv on a thread."""

    def __init__(self, argv, **_):
        opts = dict(zip(argv[4::2], argv[5::2]))
        self.returncode = None
        self.thread = threading.Thread(
            target=run_worker,
            args=(opts["--connect"],),
            kwargs={"shard_index": int(opts["--shard"]), "token": opts["--token"]},
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
