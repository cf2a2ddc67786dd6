"""Out-of-process shard workers: OS-level crash isolation per shard.

Thread-mode shards (:class:`~repro.net.shard.Shard`) share the
front-end's address space, so a segfaulting kernel or an OOM kill
takes the whole server down.  Process mode moves each shard's
:class:`~repro.service.engine.QueryEngine` into a separate **worker
process** (``repro shard-worker``, spawned by the front-end) that
speaks the length-prefixed, checksummed frame protocol of
:mod:`repro.net.frames` over a loopback TCP socket:

* :func:`run_worker` — the worker side: connect back to the parent,
  HELLO handshake (wire version, JSONL protocol version, spawn token),
  adopt packed graphs (fingerprint-verified both ways), build the
  engine from the CONFIG frame, then answer REQUEST and HEARTBEAT
  frames.  After HELLO it sends only answers.  The graph set is fixed
  at CONFIG: a later ADOPT is a malformed frame.
* :class:`WorkerClient` — the parent side: spawns and handshakes the
  process, then makes each exchange a send followed by a receive on
  the calling thread, one at a time (ADOPT, CONFIG, REQUEST and
  HEARTBEAT each await one answer under a deadline), and detects death
  by EOF *and* ``waitpid`` (SIGKILL/SIGSEGV show up as signal exits).
  A CRC-rejected answer fails its exchange retryably without tearing
  the stream down.
* :class:`ProcessShard` — a drop-in :class:`~repro.net.shard.Shard`
  whose dispatcher sends each merged group to the worker as one
  REQUEST frame and reads the answer itself, so groups that queue
  meanwhile share the next frame.  Before it waits for work it beats
  the worker once per ``heartbeat_ms``.  The supervisor restarts it
  exactly like a thread shard (``rebuild_shard`` spawns a fresh process
  that adopts the same home graphs in its handshake).

Failure semantics: a dead worker fails the exchange in flight and
every later one with :class:`WorkerRequestError` (a
:class:`~repro.net.shard.ShardDiedError` subclass, so the manager
answers in-band retryable ``unavailable:`` errors for exactly the dead
shard's sources); a REQUEST or a beat that misses its deadline marks
the worker dead too, so the supervisor replaces a wedged worker, idle
or busy; a corrupt answer fails only its own exchange, and so does a
malformed frame (a CRC-valid frame whose handler raises: the worker
answers a non-retryable ERROR and keeps serving).  Worker-side
telemetry is process-local by construction — the worker runs under a
null observability context so its answers are byte-identical to thread
mode's; the front-end instead exports ``net.worker.*`` counters
(restarts, heartbeat misses, corrupt frames, bytes in/out) labelled
``{"shard": i}``.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro import obs
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
    WIRE_VERSION,
    FrameCorruptError,
    FrameError,
    decode_json_payload,
    encode_frame,
    encode_json_frame,
    recv_frame,
    send_json_frame,
)
from repro.net.shard import Shard, ShardDiedError
from repro.service.catalog import GraphCatalog
from repro.service.engine import QueryEngine, QueryResponse, SSSPQuery
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.serial import (
    engine_config_from_wire,
    engine_config_to_wire,
    pack_graph,
    unpack_graph,
)

__all__ = [
    "HandshakeError",
    "ProcessShard",
    "WorkerClient",
    "WorkerRequestError",
    "query_from_wire",
    "query_to_wire",
    "run_worker",
]

#: Generous: a cold worker pays the numpy import before it can HELLO.
DEFAULT_SPAWN_TIMEOUT = 30.0

#: A REQUEST unanswered this long marks its worker dead, to be replaced.
DEFAULT_REQUEST_DEADLINE = 60.0


class WorkerRequestError(ShardDiedError):
    """A worker request failed retryably (death, deadline, corruption).

    Subclasses :class:`~repro.net.shard.ShardDiedError` so the manager
    maps it to an in-band ``unavailable:`` answer and the supervisor's
    restart machinery stays the single recovery path.
    """


class HandshakeError(RuntimeError):
    """The worker failed version, token or fingerprint verification."""


# ----------------------------------------------------------------------
# query wire form (the REQUEST payload rows)
# ----------------------------------------------------------------------
def query_to_wire(query: SSSPQuery) -> dict:
    """A JSON-safe query row.  Traces stay on the front-end side."""
    return {
        "graph_id": query.graph_id,
        "source": query.source,
        "algorithm": query.algorithm,
        "params": dict(query.params),
        "request_id": query.request_id,
    }


def query_from_wire(data: Mapping) -> SSSPQuery:
    return SSSPQuery(
        graph_id=data["graph_id"],
        source=data["source"],
        algorithm=data["algorithm"],
        params=dict(data["params"]),
        request_id=data.get("request_id"),
    )


# ----------------------------------------------------------------------
# the worker side (runs inside `repro shard-worker`)
# ----------------------------------------------------------------------
class _WorkerProcess:
    """The worker's single-threaded serve loop over one parent socket.

    After HELLO it only answers: every frame it sends carries the
    correlation id of the frame it read.
    """

    def __init__(self, sock: socket.socket, *, shard_index: int, token: str):
        self.sock = sock
        self.shard_index = shard_index
        self.token = token
        self.catalog = GraphCatalog()
        self.engine: Optional[QueryEngine] = None

    # -- frame handlers ------------------------------------------------
    def _hello(self) -> None:
        send_json_frame(
            self.sock,
            FT_HELLO,
            0,
            {
                "wire_version": WIRE_VERSION,
                "protocol_version": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "shard": self.shard_index,
                "token": self.token,
            },
        )

    def _handle_adopt(self, corr: int, payload: bytes) -> None:
        graph_id, graph = unpack_graph(payload)
        if self.engine is not None:
            raise ValueError(
                f"cannot adopt {graph_id!r}: the graph set is fixed at CONFIG"
            )
        self.catalog.register(graph_id, graph)
        send_json_frame(
            self.sock,
            FT_ADOPT_OK,
            corr,
            {"graph": graph_id, "fingerprint": graph.fingerprint()},
        )

    def _handle_config(self, corr: int, payload: bytes) -> None:
        cfg = decode_json_payload(payload)
        kwargs = engine_config_from_wire(cfg.get("engine", {}))
        # built before it is kept: a bad CONFIG changes nothing
        self.engine = QueryEngine(self.catalog, **kwargs)
        send_json_frame(
            self.sock,
            FT_READY,
            corr,
            {
                "pid": os.getpid(),
                "graphs": {
                    gid: self.catalog.fingerprint(gid)
                    for gid in self.catalog.names()
                },
                "stats": self.engine.stats(),
                "health": self.engine.health(),
            },
        )

    def _handle_request(self, corr: int, payload: bytes) -> None:
        if self.engine is None:
            send_json_frame(
                self.sock,
                FT_ERROR,
                corr,
                {"error": "worker not configured yet", "retryable": True},
            )
            return
        body = decode_json_payload(payload)
        queries = [query_from_wire(row) for row in body["queries"]]
        try:
            responses = self.engine.run_many(queries)
        except Exception as exc:  # engine bugs answer in-band, non-retryable
            send_json_frame(
                self.sock,
                FT_ERROR,
                corr,
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "retryable": False,
                },
            )
            return
        send_json_frame(
            self.sock,
            FT_RESPONSE,
            corr,
            {"responses": [r.to_wire() for r in responses]},
        )

    def _handle_heartbeat(self, corr: int) -> None:
        stats = self.engine.stats() if self.engine is not None else None
        health = self.engine.health() if self.engine is not None else None
        send_json_frame(
            self.sock,
            FT_HEARTBEAT,
            corr,
            {"pid": os.getpid(), "stats": stats, "health": health},
        )

    # -- the loop ------------------------------------------------------
    def serve(self) -> int:
        self._hello()
        try:
            while True:
                try:
                    frame_type, corr, payload = recv_frame(self.sock)
                except FrameCorruptError as exc:
                    # parent→worker corruption: answer that corr
                    # retryably; the stream itself is still in sync
                    send_json_frame(
                        self.sock,
                        FT_ERROR,
                        exc.corr,
                        {"error": f"corrupt frame received: {exc}", "retryable": True},
                    )
                    continue
                if frame_type == FT_SHUTDOWN:
                    return 0
                try:
                    if frame_type == FT_ADOPT:
                        self._handle_adopt(corr, payload)
                    elif frame_type == FT_CONFIG:
                        self._handle_config(corr, payload)
                    elif frame_type == FT_REQUEST:
                        self._handle_request(corr, payload)
                    elif frame_type == FT_HEARTBEAT:
                        self._handle_heartbeat(corr)
                    else:
                        send_json_frame(
                            self.sock,
                            FT_ERROR,
                            corr,
                            {
                                "error": f"unexpected frame type {frame_type}",
                                "retryable": True,
                            },
                        )
                except OSError:
                    raise  # the parent socket failed: the loop ends below
                except Exception as exc:
                    # a malformed frame fails only its own correlation
                    # id; the same bytes would fail again, so no retry
                    send_json_frame(
                        self.sock,
                        FT_ERROR,
                        corr,
                        {
                            "error": f"bad frame: {type(exc).__name__}: {exc}",
                            "retryable": False,
                        },
                    )
        except (EOFError, OSError, FrameError):
            return 0  # parent went away; die quietly, never orphan
        finally:
            if self.engine is not None:
                try:
                    self.engine.close(cancel_pending=True)
                except Exception:
                    pass
            try:
                self.sock.close()
            except Exception:
                pass


def run_worker(connect: str, *, shard_index: int, token: str) -> int:
    """Entry point for ``repro shard-worker`` (one process, one shard).

    Connects back to the parent at ``host:port``, handshakes, and
    serves until SHUTDOWN or parent disappearance.  Returns the
    process exit code.
    """
    host, _, port = connect.rpartition(":")
    sock = socket.create_connection((host or "127.0.0.1", int(port)), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return _WorkerProcess(sock, shard_index=shard_index, token=token).serve()


# ----------------------------------------------------------------------
# the parent side
# ----------------------------------------------------------------------
class WorkerClient:
    """Spawn, handshake and drive one shard-worker process.

    Every exchange is a send followed by a receive on the calling
    thread, one at a time under one lock (:meth:`_exchange`): ADOPT is
    answered by ADOPT_OK, CONFIG by READY, REQUEST by RESPONSE and
    HEARTBEAT by HEARTBEAT.  An ERROR, an answer of another type, an
    undecodable answer or a CRC-corrupt frame fails that exchange
    alone.  Death (EOF, a socket error, the process reaped by
    ``waitpid``, or an exchange past its deadline) fails the exchange
    and every later one with a retryable :class:`WorkerRequestError`.
    A beat unanswered within ``max(0.5 s, 4 * heartbeat_ms)`` counts a
    heartbeat miss and marks the worker dead.
    """

    def __init__(
        self,
        index: int,
        graphs: Mapping[str, "object"],
        *,
        engine_kwargs: Optional[Mapping] = None,
        heartbeat_ms: float = 1000.0,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
    ):
        self.index = index
        self.heartbeat_timeout_seconds = max(0.5, 4.0 * float(heartbeat_ms) / 1000.0)
        self._lock = threading.Lock()  # held for a whole exchange
        self._corr = 0
        self._dead = False
        self.death_reason: Optional[str] = None
        self.beat_answered_at = time.monotonic()
        self.last_stats: Optional[dict] = None
        self.last_health: Optional[dict] = None
        self.graph_fingerprints: Dict[str, str] = {}
        registry = obs.get_registry()
        labels = {"shard": str(index)}
        self._bytes_in = registry.counter("net.worker.bytes_in", labels)
        self._bytes_out = registry.counter("net.worker.bytes_out", labels)
        self._corrupt_counter = registry.counter("net.worker.frames_corrupt", labels)
        self._hb_miss_counter = registry.counter("net.worker.heartbeat_misses", labels)
        try:
            self._spawn(dict(graphs), dict(engine_kwargs or {}), spawn_timeout)
        except BaseException:
            self.close(graceful=False)
            raise

    # -- spawn + handshake ---------------------------------------------
    def _spawn(
        self,
        graphs: Dict[str, "object"],
        engine_kwargs: Dict,
        spawn_timeout: float,
    ) -> None:
        """Start the worker, pair it by token, then adopt and configure.

        HELLO pairs the child by its spawn token.  The graphs and the
        CONFIG then go through :meth:`_exchange` like every other frame.
        """
        import secrets

        import repro

        token = secrets.token_hex(8)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            listener.settimeout(spawn_timeout)
            port = listener.getsockname()[1]
            env = dict(os.environ)
            src_root = str(Path(repro.__file__).resolve().parents[1])
            existing = env.get("PYTHONPATH")
            env["PYTHONPATH"] = (
                src_root if not existing else src_root + os.pathsep + existing
            )
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "shard-worker",
                    "--connect",
                    f"127.0.0.1:{port}",
                    "--shard",
                    str(self.index),
                    "--token",
                    token,
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stdin=subprocess.DEVNULL,
            )
            try:
                while True:
                    sock, addr = listener.accept()
                    frame_type, _, payload = recv_frame(sock, idle_timeout=spawn_timeout)
                    hello = decode_json_payload(payload)
                    if frame_type != FT_HELLO or hello.get("token") != token:
                        sock.close()  # a stray local connection, not our child
                        continue
                    break
            except (socket.timeout, EOFError, FrameError) as exc:
                raise HandshakeError(
                    f"worker {self.index} never completed HELLO: {exc}"
                ) from None
        finally:
            listener.close()
        self.sock = sock
        if hello.get("wire_version") != WIRE_VERSION:
            raise HandshakeError(
                f"worker {self.index} speaks wire version "
                f"{hello.get('wire_version')}, expected {WIRE_VERSION}"
            )
        if hello.get("protocol_version") != PROTOCOL_VERSION:
            raise HandshakeError(
                f"worker {self.index} speaks protocol version "
                f"{hello.get('protocol_version')}, expected {PROTOCOL_VERSION} "
                "(stale handshake: mixed code versions?)"
            )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pid = int(hello["pid"])
        # ship the graphs, fingerprint-checked both ways
        for graph_id in sorted(graphs):
            self.adopt_graph(graph_id, graphs[graph_id], timeout=spawn_timeout)
        config = {"engine": engine_config_to_wire(engine_kwargs)}
        ready = self._exchange(FT_CONFIG, config, FT_READY, spawn_timeout)
        if ready.get("graphs") != self.graph_fingerprints:
            raise HandshakeError(
                f"worker {self.index} READY fingerprints diverge: "
                f"{ready.get('graphs')} != {self.graph_fingerprints}"
            )
        stats, health = ready.get("stats"), ready.get("health")
        if not (isinstance(stats, dict) and isinstance(health, dict)):
            raise HandshakeError(f"worker {self.index} READY lacks stats or health")
        self.last_stats, self.last_health = stats, health

    # -- the exchange --------------------------------------------------
    def _next_corr(self) -> int:
        self._corr += 1  # under the exchange lock
        return self._corr

    def _exchange(self, frame_type: int, body, answer: int, timeout: float) -> dict:
        """Send one frame (``body``: bytes, or JSON) and read its answer.

        Returns the body of the ``answer`` frame that carries the sent
        correlation id; frames with another id are skipped.  An ERROR
        fails the exchange, retryably unless the worker says otherwise.
        Like the worker's own ``bad frame:`` answer, another frame type
        or a body that is not a JSON object fails it non-retryably.  A
        corrupt answer fails it retryably.  EOF, a socket error, an
        unrecoverable frame or no answer within ``timeout`` seconds
        marks the worker dead.
        """
        with self._lock:
            if not self.alive:
                raise WorkerRequestError(
                    f"worker {self.index} is dead ({self.death_reason}); retry shortly"
                )
            corr = self._next_corr()
            data = (
                encode_frame(frame_type, corr, body)
                if isinstance(body, bytes)
                else encode_json_frame(frame_type, corr, body)
            )
            deadline_at = time.monotonic() + timeout
            try:
                self.sock.sendall(data)
                self._bytes_out.inc(len(data))
                got_corr = None
                while got_corr != corr:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout
                    got, got_corr, payload = recv_frame(
                        self.sock, idle_timeout=remaining, frame_timeout=30.0
                    )
                    self._bytes_in.inc(len(payload) + 17)  # header is 17 bytes
            except FrameCorruptError:
                self._corrupt_counter.inc()
                raise WorkerRequestError(
                    f"worker {self.index} answered corr {corr} with a corrupt frame; "
                    "retry shortly"
                ) from None
            except (EOFError, OSError, FrameError) as exc:
                if not isinstance(exc, socket.timeout):
                    reason = self.exit_description() or f"{type(exc).__name__}: {exc}"
                elif frame_type == FT_HEARTBEAT:
                    self._hb_miss_counter.inc()
                    reason = f"worker pid {self.pid} missed the heartbeat of corr {corr}"
                else:
                    reason = f"worker pid {self.pid} missed the deadline of corr {corr}"
                self._mark_dead(reason)
                raise WorkerRequestError(
                    f"worker {self.index} died ({self.death_reason}); retry shortly"
                ) from None
        try:
            reply = decode_json_payload(payload)
        except FrameError as exc:
            raise RuntimeError(f"worker {self.index}: bad frame: {exc}") from None
        if got == answer:
            return reply
        if got != FT_ERROR:
            raise RuntimeError(
                f"worker {self.index}: bad frame: type {got}, expected {answer}"
            )
        kind = WorkerRequestError if reply.get("retryable", True) else RuntimeError
        raise kind(f"worker {self.index}: {reply.get('error')}")

    def _mark_dead(self, reason: Optional[str]) -> None:
        if self._dead:
            return
        self._dead = True
        self.death_reason = reason or "worker connection lost"
        try:  # shut down first: it wakes an exchange blocked in recv
            self.sock.shutdown(socket.SHUT_RDWR)
        except Exception:
            pass
        try:
            self.sock.close()
        except Exception:
            pass

    # -- public surface ------------------------------------------------
    @property
    def alive(self) -> bool:
        # a reaped process is dead even if no exchange has seen EOF
        # yet: record it here so death_reason is set whenever alive is False
        if not self._dead and self.proc.poll() is not None:
            self._mark_dead(self.exit_description())
        return not self._dead

    def exit_description(self) -> Optional[str]:
        """How the process ended, per ``waitpid`` (None while running)."""
        code = self.proc.poll()
        if code is None:
            return None
        if code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:
                name = f"signal {-code}"
            return f"worker pid {self.pid} killed by {name}"
        return f"worker pid {self.pid} exited with code {code}"

    def request(
        self,
        wire_queries: List[dict],
        *,
        deadline_seconds: float = DEFAULT_REQUEST_DEADLINE,
    ) -> "Future[dict]":
        """Exchange one REQUEST frame; the future returned is already resolved.

        It holds the RESPONSE payload, or the exchange's error
        (retryable when the worker is dead).
        """
        future: Future = Future()
        try:
            future.set_result(
                self._exchange(
                    FT_REQUEST, {"queries": wire_queries}, FT_RESPONSE, deadline_seconds
                )
            )
        except Exception as exc:
            future.set_exception(exc)
        return future

    def beat(self) -> None:
        """Exchange one HEARTBEAT; keep the stats and health it carries.

        Stats or health that are not objects leave the cached ones in
        place.  Raises like any exchange; unanswered within
        ``heartbeat_timeout_seconds`` it counts a heartbeat miss and
        marks the worker dead.
        """
        body = self._exchange(
            FT_HEARTBEAT, {}, FT_HEARTBEAT, self.heartbeat_timeout_seconds
        )
        self.beat_answered_at = time.monotonic()
        if isinstance(body.get("stats"), dict):
            self.last_stats = body["stats"]
        if isinstance(body.get("health"), dict):
            self.last_health = body["health"]

    def adopt_graph(self, graph_id: str, graph, *, timeout: float = 30.0) -> None:
        """Ship one graph and wait for its fingerprint-checked ADOPT_OK.

        Handshake only: once CONFIG has built the engine, the worker
        answers ADOPT with a non-retryable ``bad frame:`` ERROR.
        """
        body = self._exchange(
            FT_ADOPT, pack_graph(graph_id, graph), FT_ADOPT_OK, timeout
        )
        expected = graph.fingerprint()
        if body.get("graph") != graph_id or body.get("fingerprint") != expected:
            raise HandshakeError(
                f"worker {self.index} mis-adopted {graph_id!r}: {body}"
            )
        self.graph_fingerprints[graph_id] = expected

    def _terminate_process(self, *, graceful: bool) -> None:
        """End the worker process: ask it, or kill it.

        A live worker closed ``graceful`` with no exchange in flight
        gets a SHUTDOWN frame and two seconds to exit.  Any other
        (retired, dead, busy or wedged) gets SIGKILL at once: a stopped
        process acts on neither a frame nor a SIGTERM.
        """
        proc = getattr(self, "proc", None)
        if proc is None or proc.poll() is not None:
            return
        if graceful and self._lock.acquire(blocking=False):
            try:
                self.sock.sendall(encode_json_frame(FT_SHUTDOWN, 0, {}))
                proc.wait(timeout=2.0)
            except Exception:
                pass
            finally:
                self._lock.release()
        if proc.poll() is None:
            try:
                proc.kill()
                proc.wait(timeout=2.0)
            except Exception:
                pass

    def close(self, *, graceful: bool = True) -> None:
        """End the worker process; an exchange blocked on it fails."""
        self._terminate_process(graceful=graceful and not self._dead)
        self._mark_dead("closed")

    def snapshot(self) -> dict:
        """JSON-ready worker facts for health rows and ``repro top``."""
        return {
            "pid": getattr(self, "pid", None),
            "alive": self.alive,
            "heartbeat_age_ms": round(
                max(0.0, time.monotonic() - self.beat_answered_at) * 1000.0, 3
            ),
            "heartbeat_timeout_ms": round(self.heartbeat_timeout_seconds * 1000.0, 3),
            "outstanding": int(self._lock.locked()),
            "exit": self.exit_description(),
        }


class _WorkerEngineProxy:
    """Looks like a QueryEngine; forwards the few calls that matter.

    The real engine lives in the worker process.  ``telemetry`` is
    always False on this side — worker metrics are process-local (we
    export ``net.worker.*`` transport counters instead), which also
    keeps process-mode responses byte-identical to thread mode's.
    ``stats()`` and ``health()`` serve the last payload the worker
    answered (READY, then every beat its dispatcher exchanges between
    cycles, so at most about one interval old under load too), never
    blocking the caller on a round trip.
    """

    telemetry = False

    def __init__(self, client: WorkerClient, catalog: GraphCatalog):
        self._client = client
        self.catalog = catalog

    def stats(self) -> dict:
        stats = dict(self._client.last_stats)
        stats["worker"] = self._client.snapshot()
        return stats

    def health(self) -> dict:
        health = dict(self._client.last_health)
        pool = dict(health["pool"])
        pool["alive"] = bool(pool.get("alive", True)) and self._client.alive
        health["pool"] = pool
        health["worker"] = self._client.snapshot()
        return health

    def close(self, *, cancel_pending: bool = False) -> None:
        self._client.close(graceful=not cancel_pending)


class ProcessShard(Shard):
    """A Shard whose engine lives in a separate worker process.

    The parent keeps the dispatcher thread (queueing, merge-draining,
    the drill's ``crash_at`` and the submit/death race handling are
    inherited unchanged) and no other.  ``_run_items`` sends the merged
    group to the worker as one REQUEST frame and returns once that
    exchange has settled, as a thread shard's returns once ``run_many``
    has.  Groups that arrive meanwhile queue up and leave together in
    the next frame, where the worker's engine batches same-corridor
    misses.  Before the dispatcher waits for work it beats the worker
    if one ``heartbeat_ms`` interval has passed since its last beat,
    and it waits no longer than until the next beat is due, so beats
    flow while idle and between cycles under load.
    """

    def __init__(
        self,
        index: int,
        catalog: GraphCatalog,
        *,
        heartbeat_ms: float = 1000.0,
        engine_kwargs: Optional[Mapping] = None,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
    ):
        graphs = catalog.load_all()
        self._client = WorkerClient(
            index,
            graphs,
            engine_kwargs=engine_kwargs,
            heartbeat_ms=heartbeat_ms,
            spawn_timeout=spawn_timeout,
        )
        self._beat_seconds = heartbeat_ms / 1000.0
        self._beat_due = time.monotonic() + self._beat_seconds
        proxy = _WorkerEngineProxy(self._client, catalog)
        super().__init__(
            index, proxy  # type: ignore[arg-type] — duck-typed engine facade
        )

    @property
    def client(self) -> WorkerClient:
        return self._client

    # -- dispatch: one REQUEST frame per cycle, a beat between ---------
    def _next_item(self):
        """The next queued item; beats the worker whenever one is due."""
        while True:
            now = time.monotonic()
            if now >= self._beat_due:
                try:
                    self._client.beat()
                except RuntimeError:
                    pass  # keeps the old stats; alive reports a death
                now = time.monotonic()
                self._beat_due = now + self._beat_seconds
            try:
                return self._queue.get(timeout=self._beat_due - now)
            except queue.Empty:
                pass

    def _run_items(self, items) -> None:
        self._run_cycle(items, self._round_trip)

    def _round_trip(self, queries: List[SSSPQuery]) -> List[QueryResponse]:
        """One REQUEST exchange; its rows as responses in order."""
        body = self._client.request(
            [query_to_wire(q) for q in queries],
            deadline_seconds=DEFAULT_REQUEST_DEADLINE,
        ).result()
        rows = body["responses"]
        if len(rows) != len(queries):
            raise WorkerRequestError(
                f"worker {self.index} answered {len(rows)} rows "
                f"for {len(queries)} queries; retry shortly"
            )
        return [QueryResponse.from_wire(q, row) for q, row in zip(queries, rows)]

    # -- liveness folds in the worker process --------------------------
    @property
    def alive(self) -> bool:
        if not (self._thread.is_alive() and self.exit_reason is None):
            return False
        if not self._client.alive:
            if self.exit_reason is None:
                self.exit_reason = (
                    self._client.death_reason
                    or self._client.exit_description()
                    or "worker process died"
                )
            return False
        return True

    def dispatcher_snapshot(self) -> dict:
        snap = super().dispatcher_snapshot()
        snap["mode"] = "process"
        snap["worker"] = self._client.snapshot()
        return snap
