"""NetServer: socket protocol streams, HTTP endpoints, edge cases.

No pytest-asyncio here: each test drives its own ``asyncio.run`` with
the server and client on the same loop, which keeps the suite
dependency-free and the lifetimes obvious.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.net import NetServer, ShardManager, parse_listen
from repro.service import MAX_BATCH_SOURCES
from repro.service import engine as engine_module


@pytest.fixture
def slow_runs(monkeypatch):
    """Every single-source run pays 0.3 s first: a slow dispatch cycle."""
    real = engine_module.run_algorithm

    def run_algorithm(*args, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "run_algorithm", run_algorithm)


@pytest.fixture
def manager(catalog):
    mgr = ShardManager(catalog, shards=2, max_workers=2)
    yield mgr
    mgr.close()


def _run(manager, scenario):
    """Start a server on a free port, run ``scenario(host, port)``."""

    async def main():
        server = NetServer(manager, port=0)
        await server.start()
        try:
            host, port = server.address
            return await scenario(host, port)
        finally:
            await server.stop()

    return asyncio.run(main())


async def _roundtrip(host, port, *lines):
    """Open one connection, send each line, collect one reply per line."""
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for line in lines:
            writer.write(line.encode() + b"\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


async def _http(host, port, request: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()


def test_query_roundtrip_over_socket(manager):
    async def scenario(host, port):
        return await _roundtrip(
            host, port,
            '{"op": "query", "graph": "alpha", "source": 0}',
            '{"op": "query", "graph": "beta", "sources": [0, 1]}',
        )

    single, batched = _run(manager, scenario)
    assert single["ok"] and single["graph"] == "alpha"
    assert batched["ok"] and batched["count"] == 2


def test_one_connection_is_one_protocol_stream(manager):
    async def scenario(host, port):
        return await _roundtrip(
            host, port,
            '{"op": "stats"}',
            '{"op": "query", "graph": "alpha", "source": 1}',
            '{"op": "health"}',
        )

    stats, query, health = _run(manager, scenario)
    assert stats["ok"] and stats["op"] == "stats"
    assert query["ok"]
    assert health["ok"] and health["op"] == "health"


def test_malformed_json_answers_in_band_and_stream_survives(manager):
    async def scenario(host, port):
        return await _roundtrip(
            host, port,
            "this is not json",
            '{"op": "query", "graph": "alpha", "source": 0}',
        )

    bad, good = _run(manager, scenario)
    assert not bad["ok"] and "invalid JSON" in bad["error"]
    assert good["ok"]


def test_oversized_sources_batch_rejected_in_band(manager):
    sources = list(range(MAX_BATCH_SOURCES + 1))

    async def scenario(host, port):
        return await _roundtrip(
            host, port,
            json.dumps({"op": "query", "graph": "alpha", "sources": sources}),
            '{"op": "query", "graph": "alpha", "source": 0}',
        )

    bad, good = _run(manager, scenario)
    assert not bad["ok"] and str(MAX_BATCH_SOURCES) in bad["error"]
    assert good["ok"]


def test_mid_request_disconnect_leaves_server_serving(manager):
    async def scenario(host, port):
        # half a request line, then vanish without a newline
        _, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "query", "graph": "al')
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.05)
        # the server must still answer a fresh connection
        return await _roundtrip(
            host, port, '{"op": "query", "graph": "alpha", "source": 0}'
        )

    (reply,) = _run(manager, scenario)
    assert reply["ok"]


def test_partial_line_at_eof_still_answered(manager):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "stats"}')  # no trailing newline
        writer.write_eof()
        line = await reader.readline()
        writer.close()
        await writer.wait_closed()
        return json.loads(line)

    reply = _run(manager, scenario)
    assert reply["ok"] and reply["op"] == "stats"


def test_overlong_line_answered_then_closed(manager):
    from repro.net.server import MAX_LINE_BYTES

    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"padding": "' + b"x" * MAX_LINE_BYTES + b'"}\n')
        await writer.drain()
        line = await reader.readline()
        rest = await reader.read()  # server closes after answering
        writer.close()
        await writer.wait_closed()
        return json.loads(line), rest

    reply, rest = _run(manager, scenario)
    assert not reply["ok"] and "exceeds" in reply["error"]
    assert rest == b""


def test_http_metrics_endpoint_serves_prometheus(registry, manager):
    async def scenario(host, port):
        return await _http(
            host, port, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
        )

    data = _run(manager, scenario)
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert b"text/plain" in head
    assert b"repro_net_connections" in body


def test_http_healthz_reports_ok(manager):
    async def scenario(host, port):
        return await _http(host, port, b"GET /healthz HTTP/1.0\r\n\r\n")

    data = _run(manager, scenario)
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    payload = json.loads(body)
    assert payload["ok"] is True and payload["pool"]["alive"] is True


def test_http_unknown_path_is_404_and_bad_method_is_405(manager):
    async def scenario(host, port):
        missing = await _http(host, port, b"GET /nope HTTP/1.1\r\n\r\n")
        posted = await _http(host, port, b"POST /metrics HTTP/1.1\r\n\r\n")
        return missing, posted

    missing, posted = _run(manager, scenario)
    assert missing.startswith(b"HTTP/1.1 404")
    assert posted.startswith(b"HTTP/1.1 405")
    assert b"Allow: GET, HEAD" in posted


def test_head_request_omits_the_body(manager):
    async def scenario(host, port):
        return await _http(host, port, b"HEAD /metrics HTTP/1.1\r\n\r\n")

    data = _run(manager, scenario)
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert body == b""


def test_concurrent_connections_interleave(manager):
    async def scenario(host, port):
        async def one(graph, source):
            (reply,) = await _roundtrip(
                host, port,
                json.dumps(
                    {"op": "query", "graph": graph, "source": source}
                ),
            )
            return reply

        return await asyncio.gather(
            *(one("alpha" if i % 2 else "beta", i) for i in range(16))
        )

    replies = _run(manager, scenario)
    assert len(replies) == 16
    assert all(r["ok"] for r in replies)


def test_stop_drains_inflight_requests(catalog, slow_runs):
    """Satellite: stop() waits for busy requests before cutting cords."""
    mgr = ShardManager(catalog, shards=1, max_workers=1)

    async def main():
        server = NetServer(mgr, port=0)
        await server.start()
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "query", "graph": "alpha", "source": 0}\n')
        await writer.drain()
        await asyncio.sleep(0.1)  # the slow dispatch cycle is underway
        stop_task = asyncio.ensure_future(server.stop(drain_seconds=5.0))
        line = await reader.readline()
        await stop_task
        writer.close()
        await writer.wait_closed()
        # the listener closed immediately: no new connections
        refused = False
        try:
            await asyncio.open_connection(host, port)
        except OSError:
            refused = True
        return json.loads(line), refused

    try:
        reply, refused = asyncio.run(main())
    finally:
        mgr.close()
    assert reply["ok"] and reply["graph"] == "alpha"
    assert refused


def test_stop_is_idempotent_under_signal_races(catalog, slow_runs):
    """Satellite: a second SIGTERM (stop() racing stop()) must not raise.

    The first stop owns the shutdown; every later call — concurrent or
    after completion — just awaits the same drain instead of
    double-closing the listener.
    """
    mgr = ShardManager(catalog, shards=1, max_workers=1)

    async def main():
        server = NetServer(mgr, port=0)
        await server.start()
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "query", "graph": "alpha", "source": 0}\n')
        await writer.drain()
        await asyncio.sleep(0.1)  # request in flight: stop() must drain
        # two signals in flight: both stops run concurrently...
        first = asyncio.ensure_future(server.stop(drain_seconds=5.0))
        second = asyncio.ensure_future(server.stop(drain_seconds=5.0))
        line = await reader.readline()
        await asyncio.gather(first, second)
        # ...and a third stop after completion is equally harmless
        await server.stop()
        writer.close()
        await writer.wait_closed()
        return json.loads(line)

    try:
        reply = asyncio.run(main())
    finally:
        mgr.close()
    assert reply["ok"] and reply["graph"] == "alpha"


def test_healthz_degraded_is_200_all_shards_down_is_503(catalog):
    """Satellite: 503 only when *no* shard can answer."""
    mgr = ShardManager(catalog, shards=2, max_workers=1)

    async def scenario(host, port):
        mgr.set_shard_state(0, "down")
        degraded = await _http(host, port, b"GET /healthz HTTP/1.0\r\n\r\n")
        mgr.set_shard_state(1, "failed")
        dead = await _http(host, port, b"GET /healthz HTTP/1.0\r\n\r\n")
        return degraded, dead

    try:
        degraded, dead = _run(mgr, scenario)
    finally:
        mgr.close()
    assert degraded.startswith(b"HTTP/1.1 200 OK")
    payload = json.loads(degraded.partition(b"\r\n\r\n")[2])
    assert payload["ok"] is True and payload["shards_up"] == 1
    assert dead.startswith(b"HTTP/1.1 503")
    payload = json.loads(dead.partition(b"\r\n\r\n")[2])
    assert payload["ok"] is False and payload["shards_up"] == 0


def test_parse_listen_forms():
    assert parse_listen("0.0.0.0:9000") == ("0.0.0.0", 9000)
    assert parse_listen(":9000") == ("127.0.0.1", 9000)
    assert parse_listen("9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        parse_listen("host:notaport")
    with pytest.raises(ValueError):
        parse_listen("host:70000")
