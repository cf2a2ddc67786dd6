"""The SSSP query service.

The repo's algorithms answer one-shot, in-process calls; this package
turns them into a serving stack:

* :mod:`~repro.service.pool` — thread executor with the CSR graphs
  shared in-process and graceful shutdown;
* :mod:`~repro.service.catalog` — named graphs (objects, files,
  generator factories) with stable content fingerprints;
* :mod:`~repro.service.cache` — bounded LRU result cache with
  hit/miss/eviction metrics;
* :mod:`~repro.service.engine` — the query engine: fingerprint-keyed
  caching, in-flight dedup, pool fan-out, ``query_start``/``query_end``
  events; with telemetry on, pool tasks record kernel metrics and
  trace-stamped events straight into the engine's context;
* :mod:`~repro.service.runners` — wire-name -> algorithm dispatch
  (single-source and batched entry points);
* :mod:`~repro.service.protocol` — the JSONL request/response format
  behind ``repro serve`` and ``repro query``; also where per-request
  traces are minted (see :mod:`repro.obs.telemetry`) and where the
  ``metrics`` op exposes the serving registry (JSON or Prometheus
  text).

Result validation lives in :mod:`repro.resilience` and is wired
through the engine; the README's *Query service* and *Resilience*
sections document the wire schema, cache semantics and failure
handling.
"""

from repro.service.cache import LRUCache
from repro.service.catalog import GraphCatalog, default_catalog
from repro.service.engine import QueryEngine, QueryResponse, SSSPQuery
from repro.service.pool import ExecutorPool, default_max_workers
from repro.service.protocol import (
    MAX_BATCH_SOURCES,
    MAX_PARAM_KEYS,
    PROTOCOL_VERSION,
    PendingReply,
    ProtocolSession,
    handle_line,
    internal_error_response,
    serve_stream,
)
from repro.service.runners import (
    BATCHED_ALGORITHMS,
    algorithm_names,
    run_algorithm,
    run_algorithm_batch,
)

__all__ = [
    "BATCHED_ALGORITHMS",
    "ExecutorPool",
    "GraphCatalog",
    "LRUCache",
    "MAX_BATCH_SOURCES",
    "MAX_PARAM_KEYS",
    "PROTOCOL_VERSION",
    "PendingReply",
    "ProtocolSession",
    "QueryEngine",
    "QueryResponse",
    "SSSPQuery",
    "algorithm_names",
    "default_catalog",
    "default_max_workers",
    "handle_line",
    "internal_error_response",
    "run_algorithm",
    "run_algorithm_batch",
    "serve_stream",
]
