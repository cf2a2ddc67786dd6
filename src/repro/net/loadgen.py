"""Closed-loop load generator for the network front-end.

``repro loadgen`` drives a running ``repro serve --listen`` endpoint
with N concurrent connections, each a closed loop: send one query,
await its response, immediately send the next.  Offered load therefore
tracks service capacity (the classic closed-loop property), and
``--connections`` is exactly the concurrency the admission controller
sees — 512 connections against ``--max-inflight 64`` *must* shed,
which is what the overload acceptance check exploits.

Sources are drawn Zipf-distributed (``--zipf A``, ``A > 1``) so a hot
set of sources exercises the result cache and the coalescing window
the way skewed production traffic would; ``A <= 1`` falls back to
uniform.  Graphs round-robin across the catalog discovered via the
``graphs`` op unless ``--graph`` pins one.

Workers are chaos-hardened clients: a dropped connection (EOF, reset)
is counted and *reconnected*, not fatal, and every read carries a
timeout so a wedged server shows up as a ``hung`` count instead of a
hung load generator.  That makes the tally itself the chaos drill's
verdict — ``hung == 0`` is the "no client ever waits forever" claim,
measured rather than asserted.

Results come back as a JSON-ready summary — counts (sent / ok / shed
/ unavailable / errors / dropped / hung), ``cache_hits`` (answered
sources served from the cache or coalesced, one per source of a
batched answer), ``qps`` (ok answers per second, so a run that sheds
does not report its rejections as throughput) and latency percentiles
— which the CLI also folds into ``bench.net.*`` gauges in a metrics
snapshot file, the same schema the benchmark suite and ``repro top``
read.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.admission import OVERLOADED_PREFIX, UNAVAILABLE_PREFIX
from repro.net.server import parse_listen

__all__ = ["run_loadgen", "summarize"]


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    if not latencies:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
    arr = np.asarray(latencies) * 1000.0
    p50, p95, p99 = np.percentile(arr, [50, 95, 99])
    return {
        "p50_ms": round(float(p50), 3),
        "p95_ms": round(float(p95), 3),
        "p99_ms": round(float(p99), 3),
        "max_ms": round(float(arr.max()), 3),
    }


class _Tally:
    """Shared counters all worker connections fold into.

    Every request a worker sends terminates in exactly one bucket:
    ``ok``, ``shed`` (admission), ``unavailable`` (shard down,
    retryable), ``errors`` (anything else in-band), ``dropped`` (the
    connection died before the response arrived) or ``hung`` (no
    response within the read timeout).  ``sent == ok + shed +
    unavailable + errors + dropped + hung`` always holds — nothing
    vanishes, which is the invariant the chaos drill audits.  A failed
    batched (``sources``) answer carries its errors per result, so it
    is classified by its first failed result's error.  ``cache_hits``
    counts answered sources: each result of an ok batched answer whose
    ``cache`` is ``hit`` or ``coalesced`` adds one.
    """

    def __init__(self):
        self.sent = 0
        self.ok = 0
        self.shed = 0
        self.unavailable = 0
        self.errors = 0
        self.dropped = 0
        self.hung = 0
        self.cache_hits = 0
        self.latencies: List[float] = []
        self.error_samples: List[str] = []

    def record(self, response: dict, elapsed: float) -> None:
        self.sent += 1
        self.latencies.append(elapsed)
        if response.get("ok"):
            self.ok += 1
            self.cache_hits += sum(
                r.get("cache") in ("hit", "coalesced")
                for r in response.get("results", (response,))
            )
            return
        if "error" not in response:
            response = next(
                (r for r in response.get("results", ()) if not r.get("ok")), {}
            )
        error = str(response.get("error", ""))
        if error.startswith(OVERLOADED_PREFIX):
            self.shed += 1
        elif error.startswith(UNAVAILABLE_PREFIX):
            self.unavailable += 1
        else:
            self.errors += 1
            if len(self.error_samples) < 5:
                self.error_samples.append(error)

    def record_dropped(self) -> None:
        self.sent += 1
        self.dropped += 1

    def record_hung(self) -> None:
        self.sent += 1
        self.hung += 1


async def _discover_graphs(
    host: str, port: int, attempts: int = 3
) -> List[dict]:
    """One ``graphs`` op round-trip: the catalog rows (id, nodes, ...).

    Retries a few times: a server that closes the connection unanswered
    (a restart, a flaky network) should not stop the load run from
    starting.
    """
    last_error: Optional[BaseException] = None
    for _ in range(attempts):
        line = b""
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"op": "graphs"}\n')
                await writer.drain()
                line = await reader.readline()
            finally:
                await _close(writer)
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            last_error = exc
            await asyncio.sleep(0.02)
            continue
        if not line:  # dropped before the answer: dial again
            last_error = None
            await asyncio.sleep(0.02)
            continue
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"graphs op failed: {response.get('error')}")
        graphs = response["graphs"]
        if not graphs:
            raise RuntimeError("server catalog is empty")
        return graphs
    if last_error is not None:
        raise last_error  # unreachable target: let the caller say so
    raise RuntimeError("connection dropped during graph discovery")


def _draw_source(rng: np.random.Generator, nodes: int, zipf_a: float) -> int:
    if zipf_a > 1.0:
        return int((rng.zipf(zipf_a) - 1) % nodes)
    return int(rng.integers(0, nodes))


async def _connect(host: str, port: int, deadline: float):
    """Dial until it works or the run deadline passes; None on give-up."""
    while time.perf_counter() < deadline:
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionRefusedError, OSError):
            await asyncio.sleep(0.02)
    return None


async def _close(writer: Optional[asyncio.StreamWriter]) -> None:
    if writer is None:
        return
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


async def _worker(
    index: int,
    host: str,
    port: int,
    graphs: List[Tuple[str, int]],
    deadline: float,
    tally: _Tally,
    *,
    zipf_a: float,
    batch: int,
    algorithm: Optional[str],
    seed: int,
    read_timeout_seconds: float,
    collect: Optional[List[dict]],
) -> None:
    rng = np.random.default_rng(seed + index)
    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None
    turn = index  # stagger the round-robin start across workers
    try:
        while time.perf_counter() < deadline:
            if writer is None:
                conn = await _connect(host, port, deadline)
                if conn is None:
                    return  # run is over; nothing was left unanswered
                reader, writer = conn
            graph_id, nodes = graphs[turn % len(graphs)]
            turn += 1
            request: dict = {"op": "query", "graph": graph_id}
            sources = [_draw_source(rng, nodes, zipf_a) for _ in range(batch)]
            if batch > 1:
                request["sources"] = sources
            else:
                request["source"] = sources[0]
            if algorithm:
                request["algorithm"] = algorithm
            t0 = time.perf_counter()
            try:
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(
                    reader.readline(), timeout=read_timeout_seconds
                )
            except asyncio.TimeoutError:
                # no response in time: the one outcome chaos drills
                # must prove impossible — count it and move on
                tally.record_hung()
                await _close(writer)
                reader = writer = None
                continue
            except (ConnectionResetError, BrokenPipeError, OSError):
                tally.record_dropped()
                await _close(writer)
                reader = writer = None
                continue
            if not line:
                # clean EOF mid-request (the server closed unanswered):
                # the request died with the connection — reconnect
                tally.record_dropped()
                await _close(writer)
                reader = writer = None
                continue
            response = json.loads(line)
            tally.record(response, time.perf_counter() - t0)
            if collect is not None:
                results = response.get("results", [response])
                collect.extend(
                    {
                        "graph": graph_id,
                        "source": source,
                        "reached": row["reached"],
                        "max_dist": row["max_dist"],
                        "mean_dist": row["mean_dist"],
                    }
                    for source, row in zip(sources, results)
                    if row.get("ok") and "reached" in row
                )
    finally:
        await _close(writer)


def summarize(tally: _Tally, wall_seconds: float, connections: int) -> dict:
    """Fold a run's tally into the JSON-ready loadgen report.

    ``qps`` counts ok answers per second; ``sent`` keeps every request.
    """
    qps = tally.ok / wall_seconds if wall_seconds > 0 else 0.0
    return {
        "connections": connections,
        "wall_seconds": round(wall_seconds, 3),
        "sent": tally.sent,
        "ok": tally.ok,
        "shed": tally.shed,
        "unavailable": tally.unavailable,
        "errors": tally.errors,
        "dropped": tally.dropped,
        "hung": tally.hung,
        "cache_hits": tally.cache_hits,
        "qps": round(qps, 2),
        "latency": _percentiles(tally.latencies),
        "error_samples": tally.error_samples,
    }


async def run_loadgen(
    listen: str,
    *,
    connections: int = 8,
    duration_seconds: float = 5.0,
    zipf_a: float = 1.2,
    batch: int = 1,
    graph: Optional[str] = None,
    algorithm: Optional[str] = None,
    seed: int = 7,
    read_timeout_seconds: float = 30.0,
    collect: Optional[List[dict]] = None,
) -> dict:
    """Drive ``listen`` (HOST:PORT) closed-loop; return the summary dict.

    ``read_timeout_seconds`` bounds every response wait — a silent
    server costs one ``hung`` count and a reconnect, never a stuck
    worker.  ``collect``, when given a list, receives one row per
    successful answer — one per source of a batched request — (graph,
    source, reached, max_dist, mean_dist) for offline verification
    against Dijkstra.
    """
    if connections < 1:
        raise ValueError("connections must be >= 1")
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be positive")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if read_timeout_seconds <= 0:
        raise ValueError("read_timeout_seconds must be positive")
    host, port = parse_listen(listen)
    rows = await _discover_graphs(host, port)
    if graph is not None:
        rows = [r for r in rows if r["id"] == graph]
        if not rows:
            raise RuntimeError(f"graph {graph!r} not in server catalog")
    graphs = [(r["id"], int(r["nodes"])) for r in rows]
    tally = _Tally()
    t0 = time.perf_counter()
    deadline = t0 + duration_seconds
    await asyncio.gather(
        *(
            _worker(
                i, host, port, graphs, deadline, tally,
                zipf_a=zipf_a, batch=batch, algorithm=algorithm, seed=seed,
                read_timeout_seconds=read_timeout_seconds, collect=collect,
            )
            for i in range(connections)
        )
    )
    return summarize(tally, time.perf_counter() - t0, connections)
