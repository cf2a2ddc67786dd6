"""The serve wire protocol: JSONL requests in, JSONL responses out.

One JSON object per line.  Four operations (``op`` defaults to
``"query"`` so the common case is terse):

* ``{"op": "query", "graph": "cal", "source": 0, "algorithm":
  "nearfar", "params": {"delta": 0.5}, "id": "q1"}`` — run (or serve
  from cache) one SSSP query.  ``id`` is echoed back untouched;
  ``algorithm`` defaults to ``"adaptive"``; ``params`` defaults to
  ``{}`` (at most :data:`MAX_PARAM_KEYS` keys — a param object large
  enough to trip that bound is garbage, not a query).  A request may
  carry ``"sources": [0, 5, 9]`` *instead of* ``"source"`` (at most
  :data:`MAX_BATCH_SOURCES`): the queries run as one engine batch —
  same-corridor misses become one batched kernel dispatch — and the
  single response line answers
  ``{"ok": <all ok>, "count": N, "results": [<per-source response>,
  ...]}`` in source order.
* ``{"op": "stats"}`` — engine counters: queries served, cache
  hits/misses/evictions, pool occupancy.
* ``{"op": "graphs"}`` — the catalog: id, name, sizes, fingerprint.
* ``{"op": "health"}`` — pool liveness (mode, workers, pending,
  ``alive``); a sharded server adds per-shard rows,
  admission and supervisor state.
* ``{"op": "metrics"}`` — the serving registry's metric snapshot
  (labelled ``service.query.*`` histograms with p50/p95/p99, cache and
  error counters, merged worker-side kernel metrics).  With
  ``"format": "prometheus"`` the snapshot is rendered as Prometheus
  text exposition in the response's ``"text"`` field (see
  :mod:`repro.obs.exposition`).  ``{}`` when the engine was built
  without observability.

The protocol layer is also where a request's **trace** begins: when
the engine has telemetry, each query line mints a root
:class:`~repro.obs.telemetry.TraceContext` (one per line — a
``sources`` batch shares its line's trace), threads it through the
queries, stamps the response with ``"trace"``, and emits the
``protocol`` span closing the request.  An optional
:class:`~repro.obs.telemetry.TraceSampler` decides, per line, whether
that trace emits spans and events (metrics always count).

Every input line produces exactly one output line with an ``"ok"``
key; malformed lines (bad JSON, missing fields, unknown graph or
algorithm) produce ``{"ok": false, "error": ...}`` and the stream
keeps going — a service must not die because one client sent garbage.
The same holds for *engine* crashes: an unexpected exception while
answering one line is caught by :func:`serve_stream` and answered as
an error line, because one bad query must not end the session.
Responses are flushed per line so ``tail -f`` (or a piped consumer)
sees them live.

Version history: v1 — query/stats/graphs; v2 — ``health`` op,
param-size bound; v3 — ``sources``
lists on query requests (batched dispatch, one ``results`` line);
v4 — ``metrics`` op, ``trace`` ids on query responses.

**Transports.**  The per-line dispatch lives in
:class:`ProtocolSession`, which is transport-agnostic: the stdin loop
(:func:`serve_stream`) and the socket server (:mod:`repro.net.server`)
drive the *same* session object, so a malformed line, an unknown op or
an engine crash produces byte-identical error envelopes whichever way
the request arrived.  A session splits handling into
:meth:`ProtocolSession.begin` (parse, validate, dispatch — never
blocks on query execution when the engine supports asynchronous
submission) and the returned :class:`PendingReply`, whose ``finish``
closure shapes the final response.  Synchronous callers use
:meth:`ProtocolSession.handle`, which runs both phases back to back;
an asyncio transport awaits ``PendingReply.future`` instead of
blocking the event loop.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import IO, Callable, Iterable, List, Optional

from repro.obs.exposition import format_prometheus
from repro.obs.telemetry import TraceContext, TraceSampler, emit_span
from repro.service.engine import QueryEngine, QueryResponse, SSSPQuery

__all__ = [
    "MAX_BATCH_SOURCES",
    "MAX_PARAM_KEYS",
    "PROTOCOL_VERSION",
    "PendingReply",
    "ProtocolSession",
    "internal_error_response",
    "parse_query",
    "parse_batch_query",
    "handle_line",
    "serve_stream",
]

PROTOCOL_VERSION = 4

# params is a flat knob dict (delta, setpoint, k, ...); dozens of keys
# means a malformed or hostile request, and the engine would only
# reject them one ValueError at a time further in
MAX_PARAM_KEYS = 16

# one request line fanning out to thousands of kernel runs is a typo
# or an attack, not a batch; big sweeps belong in `repro experiment`
MAX_BATCH_SOURCES = 256


class ProtocolError(ValueError):
    """A request line that cannot be turned into an operation."""


def _common_query_fields(request: dict) -> tuple:
    """Validate the graph/params/id fields shared by both query shapes."""
    if "graph" not in request:
        raise ProtocolError("query is missing 'graph'")
    params = request.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(f"params must be an object, got {type(params).__name__}")
    if len(params) > MAX_PARAM_KEYS:
        raise ProtocolError(
            f"params has {len(params)} keys (max {MAX_PARAM_KEYS})"
        )
    request_id = request.get("id")
    return (
        str(request["graph"]),
        str(request.get("algorithm", "adaptive")),
        params,
        None if request_id is None else str(request_id),
    )


def parse_query(request: dict) -> SSSPQuery:
    """Build an :class:`SSSPQuery` from a decoded ``query`` request."""
    graph_id, algorithm, params, request_id = _common_query_fields(request)
    if "source" not in request:
        raise ProtocolError("query is missing 'source'")
    try:
        source = int(request["source"])
    except (TypeError, ValueError):
        raise ProtocolError(f"source must be an integer, got {request['source']!r}")
    return SSSPQuery(
        graph_id=graph_id,
        source=source,
        algorithm=algorithm,
        params=params,
        request_id=request_id,
    )


def parse_batch_query(request: dict) -> list:
    """Build one :class:`SSSPQuery` per entry of a ``sources`` list."""
    graph_id, algorithm, params, request_id = _common_query_fields(request)
    if "source" in request:
        raise ProtocolError("pass either 'source' or 'sources', not both")
    sources = request["sources"]
    if not isinstance(sources, list) or not sources:
        raise ProtocolError("sources must be a non-empty array of integers")
    if len(sources) > MAX_BATCH_SOURCES:
        raise ProtocolError(
            f"sources has {len(sources)} entries (max {MAX_BATCH_SOURCES})"
        )
    queries = []
    for raw in sources:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ProtocolError(
                f"sources must be an array of integers, got {raw!r}"
            )
        queries.append(
            SSSPQuery(
                graph_id=graph_id,
                source=raw,
                algorithm=algorithm,
                params=params,
                request_id=request_id,
            )
        )
    return queries


def _mint_root(
    engine: QueryEngine, sampler: Optional[TraceSampler]
) -> Optional[TraceContext]:
    """The root trace context for one query line, or None.

    Minted only when the engine has telemetry (a null-context engine
    stays trace-free end to end).  The sampler — when given — decides
    here, once, whether this trace emits spans and events.
    """
    if not engine.telemetry:
        return None
    sampled = sampler.sample() if sampler is not None else True
    return TraceContext.mint(sampled=sampled)


def internal_error_response(exc: Exception) -> dict:
    """The in-band envelope for an exception that escaped the engine.

    One definition, used by every transport, so the stdin loop and the
    socket server cannot drift apart on what an internal error looks
    like on the wire.
    """
    return {
        "ok": False,
        "error": f"internal error: {type(exc).__name__}: {exc}",
    }


class PendingReply:
    """One request's in-flight answer: ready now, or a future + shaper.

    ``response`` is set for everything that resolves synchronously
    (parse errors, ``stats``/``graphs``/``health``/``metrics`` ops,
    query execution on an engine without asynchronous submission).
    Otherwise ``future`` is a :class:`concurrent.futures.Future`
    resolving to the ``List[QueryResponse]`` and ``finish`` shapes that
    list into the final response dict (stamping the protocol span).
    """

    __slots__ = ("response", "future", "finish")

    def __init__(
        self,
        response: Optional[dict] = None,
        future=None,
        finish: Optional[Callable[[List[QueryResponse]], dict]] = None,
    ):
        self.response = response
        self.future = future
        self.finish = finish

    @property
    def ready(self) -> bool:
        return self.future is None

    def wait(self) -> dict:
        """Block until the response dict is available (sync transports)."""
        if self.future is None:
            return self.response  # type: ignore[return-value]
        return self.finish(self.future.result())  # type: ignore[misc]


class ProtocolSession:
    """One protocol stream over any transport.

    Owns the per-line dispatch previously inlined in
    :func:`serve_stream`: JSON decoding, op routing, trace minting,
    query parsing and response shaping.  The transport supplies lines
    and writes the encoded responses; :attr:`responses` counts what the
    session answered.

    Query execution goes through ``engine.submit_many(queries)`` when
    the engine offers it (the sharded router in
    :mod:`repro.net.shard` does), in which case :meth:`begin` returns
    without blocking and the transport decides how to wait — an
    asyncio server awaits the future, :meth:`handle` blocks on it.  A
    plain :class:`~repro.service.engine.QueryEngine` executes inline.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        sampler: Optional[TraceSampler] = None,
    ):
        self.engine = engine
        self.sampler = sampler
        self.responses = 0

    # ------------------------------------------------------------------
    # phase 1: parse + dispatch
    # ------------------------------------------------------------------
    def begin(self, line: str) -> Optional[PendingReply]:
        """Parse one request line and start answering it.

        Returns ``None`` for blank lines.  Protocol-level problems
        (bad JSON, bad fields, unknown op) come back as ready error
        replies; engine crashes propagate to the caller (wrap with
        :func:`internal_error_response`, as :meth:`handle` does).
        """
        line = line.strip()
        if not line:
            return None
        try:
            request = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
            return PendingReply({"ok": False, "error": f"invalid JSON: {exc}"})
        if not isinstance(request, dict):
            return PendingReply(
                {"ok": False, "error": "request must be a JSON object"}
            )
        op = request.get("op", "query")
        if op == "query":
            return self._begin_query(request)
        return PendingReply(self._handle_admin(op, request))

    def _begin_query(self, request: dict) -> PendingReply:
        engine = self.engine
        ctx = _mint_root(engine, self.sampler)
        t0 = time.perf_counter()
        batched = "sources" in request
        try:
            if batched:
                queries = parse_batch_query(request)
            else:
                queries = [parse_query(request)]
        except ProtocolError as exc:
            response = {"ok": False, "error": str(exc)}
            if request.get("id") is not None:
                response["id"] = str(request["id"])
            return PendingReply(response)
        if ctx is not None:
            queries = [replace(q, trace=ctx) for q in queries]

        def finish(responses: List[QueryResponse]) -> dict:
            if not batched:
                out = responses[0].as_dict()
                emit_span(
                    engine.events, ctx, "protocol",
                    time.perf_counter() - t0, op="query",
                )
                return out
            out = {
                "ok": all(r.ok for r in responses),
                "count": len(responses),
                "results": [r.as_dict() for r in responses],
            }
            if ctx is not None:
                out["trace"] = ctx.trace_id
            if request.get("id") is not None:
                out["id"] = str(request["id"])
            emit_span(
                engine.events, ctx, "protocol",
                time.perf_counter() - t0, op="query", batch=len(responses),
            )
            return out

        submit = getattr(engine, "submit_many", None)
        if submit is not None:
            return PendingReply(future=submit(queries), finish=finish)
        if not batched:
            return PendingReply(finish([engine.run(queries[0])]))
        return PendingReply(finish(engine.run_many(queries)))

    def _handle_admin(self, op: str, request: dict) -> dict:
        """The non-query ops; all answer synchronously."""
        engine = self.engine
        if op == "stats":
            return {
                "ok": True, "op": "stats", "v": PROTOCOL_VERSION,
                **engine.stats(),
            }
        if op == "graphs":
            return {"ok": True, "op": "graphs", "graphs": engine.catalog.describe()}
        if op == "health":
            return {
                "ok": True, "op": "health", "v": PROTOCOL_VERSION,
                **engine.health(),
            }
        if op == "metrics":
            snapshot = engine.metrics_snapshot()
            out = {"ok": True, "op": "metrics", "v": PROTOCOL_VERSION}
            if request.get("format") == "prometheus":
                out["format"] = "prometheus"
                out["text"] = format_prometheus(snapshot)
            else:
                out["metrics"] = snapshot
            return out
        return {
            "ok": False,
            "error": (
                f"unknown op {op!r} "
                "(have query, stats, graphs, health, metrics)"
            ),
        }

    # ------------------------------------------------------------------
    # phase 1+2: the blocking convenience path
    # ------------------------------------------------------------------
    def handle(self, line: str) -> Optional[dict]:
        """One request line -> one response dict (None for blank lines).

        Exceptions escaping the engine — a bug, a resource blip,
        anything :meth:`begin` did not already turn into an error
        reply — are answered in-band so a single poisoned request
        cannot end the session.
        """
        try:
            pending = self.begin(line)
            if pending is None:
                return None
            response = pending.wait()
        except Exception as exc:  # one bad query must not kill the loop
            response = internal_error_response(exc)
        self.responses += 1
        return response


def handle_line(
    engine: QueryEngine,
    line: str,
    sampler: Optional[TraceSampler] = None,
) -> Optional[dict]:
    """One request line -> one response dict (None for blank lines).

    The stateless wrapper around :class:`ProtocolSession` kept for
    direct callers and tests; unlike :meth:`ProtocolSession.handle` it
    lets engine crashes propagate (the session loop turns those into
    in-band error responses).
    """
    pending = ProtocolSession(engine, sampler=sampler).begin(line)
    return None if pending is None else pending.wait()


def serve_stream(
    engine: QueryEngine,
    lines: Iterable[str],
    out: IO[str],
    *,
    sampler: Optional[TraceSampler] = None,
) -> int:
    """Drive the engine from a line stream; returns responses written.

    This is the whole stdin serve loop: the CLI hands it ``sys.stdin``
    (or a file) and ``sys.stdout``; tests hand it lists and
    ``StringIO``.  ``sampler`` (optional) head-samples traces per
    request line.  The socket server (:mod:`repro.net.server`) drives
    the same :class:`ProtocolSession` machinery, so both transports
    answer identically — including the in-band ``internal error``
    envelope for exceptions escaping the engine.
    """
    session = ProtocolSession(engine, sampler=sampler)
    for line in lines:
        response = session.handle(line)
        if response is None:
            continue
        out.write(json.dumps(response) + "\n")
        out.flush()
    return session.responses
