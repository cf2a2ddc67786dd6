"""repro.net: the network serving layer.

Where :mod:`repro.service` turns the algorithms into an engine that
answers queries, this package puts that engine on the wire:

* :mod:`~repro.net.server` — asyncio TCP front-end speaking the JSONL
  protocol (one connection = one protocol stream) plus HTTP
  ``GET /metrics`` (Prometheus) and ``GET /healthz`` on the same port;
* :mod:`~repro.net.shard` — :class:`ShardManager` partitions the graph
  catalog across N independent engines (own pool and cache) and
  routes by graph name while presenting the single-engine surface to
  the protocol layer;
* :mod:`~repro.net.supervisor` — :class:`ShardSupervisor` health-checks
  shard dispatchers and workers for death (never for slowness) and
  restarts dead ones under a budgeted exponential backoff; meanwhile a
  down shard's graphs answer retryable ``unavailable`` responses;
* :mod:`~repro.net.admission` — per-shard admission control by one
  token bound (``--max-inflight``): a group that finds its shard full
  is shed at once with an in-band ``overloaded`` error instead of
  queuing without bound;
* :mod:`~repro.net.loadgen` — closed-loop Zipf load generator
  (``repro loadgen``) for capacity and shedding checks; reconnects
  through drops and bounds every read, so chaos drills measure
  client-visible hangs instead of suffering them;
* :mod:`~repro.net.chaos` — the ``repro chaos-net`` drill: a faulted
  multi-shard server under live load, audited for zero hangs, correct
  distances (Dijkstra cross-check) and in-budget recovery;
* :mod:`~repro.net.worker` / :mod:`~repro.net.frames` — out-of-process
  shard workers (``serve --shard-mode process``): each shard engine in
  its own supervised worker process behind a length-prefixed,
  checksummed frame protocol, for OS-level crash isolation (SIGKILL,
  OOM, segfault) with a handshaked respawn that re-ships the shard's
  graphs.

``docs/serving.md`` walks the full deployment story, including the
failure modes and recovery section.
"""

from repro.net.admission import (
    OVERLOADED_PREFIX,
    UNAVAILABLE_PREFIX,
    AdmissionController,
)
from repro.net.chaos import run_chaos_drill
from repro.net.loadgen import run_loadgen
from repro.net.server import NetServer, parse_listen
from repro.net.shard import Shard, ShardDiedError, ShardManager
from repro.net.supervisor import ShardSupervisor
from repro.net.worker import (
    HandshakeError,
    ProcessShard,
    WorkerClient,
    WorkerRequestError,
    run_worker,
)

__all__ = [
    "AdmissionController",
    "HandshakeError",
    "NetServer",
    "OVERLOADED_PREFIX",
    "ProcessShard",
    "Shard",
    "ShardDiedError",
    "ShardManager",
    "ShardSupervisor",
    "UNAVAILABLE_PREFIX",
    "WorkerClient",
    "WorkerRequestError",
    "parse_listen",
    "run_chaos_drill",
    "run_loadgen",
    "run_worker",
]
