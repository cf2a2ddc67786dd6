"""The asyncio network front-end: JSONL protocol v4 over TCP, plus HTTP.

One TCP connection is one protocol stream — the same
newline-delimited request/response format ``repro serve`` speaks on
stdin/stdout (see :mod:`repro.service.protocol`), so ``repro query``
transcripts replay over a socket byte-for-byte.  Each connection gets
its own :class:`~repro.service.protocol.ProtocolSession`; the server
calls its non-blocking ``begin`` and awaits the resulting future, so a
slow query never stalls the event loop and hundreds of connections can
be in flight over a handful of shard dispatcher threads.

The same port also answers plain HTTP/1.1 (sniffed from the first
request line): ``GET /metrics`` serves the Prometheus text exposition
of the serving registry and ``GET /healthz`` serves the ``health`` op
JSON, so the standard scrape and probe tooling needs no JSONL client.
``/healthz`` keys its status off the ``serving`` health flag when the
engine reports one (a sharded deployment): 503 means *no* shard can
answer — one dead shard degrades responses in-band but keeps the
deployment on the balancer.  Engines without the flag fall back to the
pool-liveness criterion.

Shutdown drains: :meth:`stop` closes the listener immediately (no new
connections), then gives in-flight requests up to ``drain_seconds`` to
finish writing their responses before force-cancelling what remains.
The CLI wires SIGTERM to the same path, so a supervised restart loses
no answered-but-unflushed work.

Edge cases answer in-band or close cleanly, never crash the server:
malformed JSON and oversized ``sources`` batches get protocol error
envelopes; an over-long line gets one error line and then the
connection closes; a final line without a trailing newline (partial
write before EOF) is still processed; a mid-request disconnect just
tears down that one connection.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Optional, Set, Tuple

from repro import obs
from repro.obs.exposition import format_prometheus
from repro.service.protocol import ProtocolSession, internal_error_response

__all__ = ["NetServer", "parse_listen"]

# first-line sniff: HTTP request line vs JSONL payload
_HTTP_REQUEST_RE = re.compile(rb"^(GET|HEAD|POST|PUT|DELETE) (\S+) HTTP/1\.[01]\r?$")

# a single request line (JSON or HTTP) may be this long before the
# connection is answered with an error and closed
MAX_LINE_BYTES = 1 << 20


def parse_listen(listen: str) -> Tuple[str, int]:
    """``HOST:PORT`` (or bare ``:PORT`` / ``PORT``) -> ``(host, port)``."""
    spec = listen.strip()
    if ":" in spec:
        host, _, port_text = spec.rpartition(":")
        host = host or "127.0.0.1"
    else:
        host, port_text = "127.0.0.1", spec
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"expected HOST:PORT, got {listen!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} is not in 0-65535")
    return host, port


class NetServer:
    """Serve an engine (or :class:`~repro.net.shard.ShardManager`) on TCP.

    Parameters
    ----------
    engine:
        Anything with the duck-typed engine surface
        (``run``/``run_many``/``stats``/``health``/``metrics_snapshot``
        /``catalog``; ``submit_many`` keeps the event loop unblocked).
    host, port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    sampler:
        Optional trace sampler forwarded to each connection's
        :class:`~repro.service.protocol.ProtocolSession`.
    """

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sampler=None,
    ):
        self.engine = engine
        self.host = host
        self.port = port
        self.sampler = sampler
        self.connections_total = 0
        self.responses_total = 0
        self.http_requests = 0
        self._open_connections = 0
        self._busy = 0  # connections currently inside request handling
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_started = False
        self._stop_done: Optional["asyncio.Event"] = None
        registry = obs.get_registry()
        self._conn_gauge = registry.gauge("net.connections")
        self._conn_counter = registry.counter("net.connections.opened")
        self._http_counter = registry.counter("net.http.requests")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — authoritative when port was 0."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_seconds: float = 0.0) -> None:
        """Stop listening, drain in-flight sessions, cut off stragglers.

        The listener closes first — no connection arrives after stop
        begins — then busy sessions get up to ``drain_seconds`` to
        finish their current responses.  Whatever is still running
        after the deadline is cancelled (its connection closes without
        a response, which clients classify as a drop, not a hang).

        Idempotent and concurrency-safe: a second ``stop`` (a repeated
        SIGTERM, or a signal racing an already-draining shutdown) must
        not raise or double-close the listener, so later callers just
        await the first call's completion.  The started-flag check and
        set happen with no ``await`` between them, which makes them
        atomic on the event loop.
        """
        if self._stop_started:
            if self._stop_done is not None:
                await self._stop_done.wait()
            return
        self._stop_started = True
        self._stop_done = asyncio.Event()
        try:
            server, self._server = self._server, None
            if server is not None:
                server.close()
                await server.wait_closed()
            if drain_seconds > 0:
                deadline = asyncio.get_running_loop().time() + drain_seconds
                while self._busy > 0:
                    if asyncio.get_running_loop().time() >= deadline:
                        break
                    await asyncio.sleep(0.01)
            tasks = [t for t in self._conn_tasks if not t.done()]
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._stop_done.set()

    @property
    def draining(self) -> int:
        """Connections still inside request handling (stop() waits on these)."""
        return self._busy

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_total += 1
        self._open_connections += 1
        self._conn_gauge.set(self._open_connections)
        self._conn_counter.inc()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                first = await self._read_line(reader, writer)
            except _LineTooLong:
                return
            if first is None:
                return
            match = _HTTP_REQUEST_RE.match(first.rstrip(b"\n"))
            if match:
                await self._handle_http(match, reader, writer)
            else:
                await self._handle_jsonl(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass  # client went away mid-request; nothing left to answer
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._open_connections -= 1
            self._conn_gauge.set(self._open_connections)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_line(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """One line, or None at EOF; answers + raises on over-long lines.

        A partial final line (no trailing newline before EOF) is
        returned as-is so the request still gets its response.
        """
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            response = {
                "ok": False,
                "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
            }
            writer.write(json.dumps(response).encode() + b"\n")
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            raise _LineTooLong()
        return line if line else None

    # ------------------------------------------------------------------
    # JSONL protocol stream
    # ------------------------------------------------------------------
    async def _handle_jsonl(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        session = ProtocolSession(self.engine, sampler=self.sampler)
        line: Optional[bytes] = first
        while line is not None:
            self._busy += 1
            try:
                response = await self._respond(session, line)
                if response is not None:
                    writer.write(json.dumps(response).encode() + b"\n")
                    await writer.drain()
                    self.responses_total += 1
            finally:
                self._busy -= 1
            try:
                line = await self._read_line(reader, writer)
            except _LineTooLong:
                return

    async def _respond(self, session: ProtocolSession, raw: bytes) -> Optional[dict]:
        """Run one protocol line without blocking the event loop."""
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return {"ok": False, "error": f"invalid utf-8 in request: {exc}"}
        try:
            pending = session.begin(text)
            if pending is None:
                return None
            if pending.ready:
                return pending.response
            raw_result = await asyncio.wrap_future(pending.future)
            return pending.finish(raw_result)
        except Exception as exc:  # engine bugs answer in-band, stream lives
            return internal_error_response(exc)

    # ------------------------------------------------------------------
    # HTTP endpoints
    # ------------------------------------------------------------------
    async def _handle_http(
        self,
        match: "re.Match[bytes]",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.http_requests += 1
        self._http_counter.inc()
        method = match.group(1).decode()
        path = match.group(2).decode().split("?", 1)[0]
        # drain request headers; bodies are not accepted on any route
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break

        if method not in ("GET", "HEAD"):
            body = b"method not allowed\n"
            await self._write_http(
                writer, 405, "Method Not Allowed", "text/plain", body,
                head=method == "HEAD", extra="Allow: GET, HEAD\r\n",
            )
            return
        if path == "/metrics":
            text = format_prometheus(self.engine.metrics_snapshot())
            await self._write_http(
                writer, 200, "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                text.encode(), head=method == "HEAD",
            )
            return
        if path == "/healthz":
            health = self.engine.health()
            # sharded deployments report `serving` (any shard up); 503
            # only when nothing can answer.  Single engines keep the
            # pool-liveness criterion.
            if "serving" in health:
                healthy = bool(health["serving"])
            else:
                healthy = bool(health.get("pool", {}).get("alive", False))
            status, phrase = (200, "OK") if healthy else (503, "Service Unavailable")
            body = json.dumps({"ok": healthy, **health}).encode() + b"\n"
            await self._write_http(
                writer, status, phrase, "application/json", body,
                head=method == "HEAD",
            )
            return
        await self._write_http(
            writer, 404, "Not Found", "text/plain",
            b"not found (have /metrics, /healthz)\n", head=method == "HEAD",
        )

    async def _write_http(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        phrase: str,
        content_type: str,
        body: bytes,
        *,
        head: bool = False,
        extra: str = "",
    ) -> None:
        writer.write(
            (
                f"HTTP/1.1 {status} {phrase}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                "Connection: close\r\n"
                "\r\n"
            ).encode()
        )
        if not head:
            writer.write(body)
        await writer.drain()


class _LineTooLong(Exception):
    """Internal: the offending connection was answered and must close."""
