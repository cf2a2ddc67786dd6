"""The network-tier chaos drill: shard death under live traffic.

``repro chaos-net`` stands up a real multi-shard TCP deployment —
the built-in catalog at the drill's ``scale``, admission control (the
256-query per-shard bound ``serve`` defaults to),
:class:`~repro.net.shard.ShardManager`,
:class:`~repro.net.supervisor.ShardSupervisor`,
:class:`~repro.net.server.NetServer` on an ephemeral port — kills one
shard for real while the closed-loop load generator is driving it, and
audits the three claims the robustness work makes:

1. **no hangs** — every client request terminates: an answer, an
   in-band retryable error (``overloaded`` / ``unavailable``), or a
   connection drop the client reconnects through.  The loadgen tally's
   ``hung`` count *is* this claim; the drill fails if it is nonzero.
2. **no wrong answers** — every successful single-source response is
   cross-checked against a clean Dijkstra run on the same graph and
   source (:func:`~repro.resilience.faults.verify_answers`).  A
   restarted shard must not change a single distance.
3. **bounded recovery** — the dead shard is restarted and serving
   again within the restart policy's worst-case backoff budget; the
   supervisor's measured downtime is the drill's recovery metric (and
   CI's ``bench.net.recovery_ms`` gate).

The victim shard dies one of two ways, both from outside the serving
code:

* ``worker_kill`` (process shards) — a watcher beside the load
  generator SIGKILLs the shard's worker process once the shard has
  begun dispatch cycle ``crash_at``, as the OOM killer or a segfault
  would;
* ``shard_crash`` (either shard mode) — the drill arms
  :attr:`~repro.net.shard.Shard.crash_at` on the live shard, so its
  dispatcher thread dies instead of starting that cycle.  The thread
  is the one component nothing outside the process can kill.

Everything is deterministic where it can be: the death lands at an
exact dispatch cycle on an exact shard, sources are seeded, and the
restart schedule is the deterministic
:class:`~repro.resilience.retry.RestartPolicy`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from typing import List, Optional

from repro.net.admission import AdmissionController
from repro.net.loadgen import run_loadgen
from repro.net.server import NetServer
from repro.net.shard import ShardManager
from repro.net.supervisor import ShardSupervisor
from repro.net.worker import ProcessShard
from repro.resilience.faults import verify_answers
from repro.resilience.retry import RestartPolicy
from repro.service.catalog import default_catalog

__all__ = ["run_chaos_drill"]


async def _kill_worker(shard: ProcessShard, crash_at: int) -> None:
    """SIGKILL ``shard``'s worker process once it has begun cycle ``crash_at``."""
    while shard.cycles <= crash_at:
        await asyncio.sleep(0.005)
    os.kill(shard.client.pid, signal.SIGKILL)


async def _recovery_wait(
    supervisor: ShardSupervisor, deadline_seconds: float
) -> bool:
    """Poll until every supervised shard is back up (or time runs out)."""
    deadline = time.perf_counter() + deadline_seconds
    while time.perf_counter() < deadline:
        report = supervisor.report()
        if all(s["state"] == "up" for s in report["shards"].values()):
            return True
        await asyncio.sleep(0.02)
    report = supervisor.report()
    return all(s["state"] == "up" for s in report["shards"].values())


def run_chaos_drill(
    *,
    shards: int = 2,
    scale: float = 0.005,
    connections: int = 8,
    duration_seconds: float = 3.0,
    crash_at: int = 2,
    crash_shard: int = 0,
    fault_kind: str = "shard_crash",
    restart_policy: Optional[RestartPolicy] = None,
    workers: int = 2,
    zipf_a: float = 1.2,
    seed: int = 7,
    verify: bool = True,
    shard_mode: str = "thread",
    heartbeat_ms: float = 250.0,
) -> dict:
    """Run one seeded network-tier chaos drill; return its report.

    The report's ``ok`` is the drill verdict: zero hung clients, zero
    non-retryable errors, zero Dijkstra mismatches, and the killed
    shard restarted within the recovery deadline.  ``repro chaos-net``
    exits nonzero when ``ok`` is False; the CI smoke job and the
    recovery benchmark both run through here.
    """
    if fault_kind not in ("shard_crash", "worker_kill"):
        raise ValueError(
            f"fault_kind must be shard_crash or worker_kill; got {fault_kind!r}"
        )
    if shard_mode not in ("thread", "process"):
        raise ValueError(
            f"shard_mode must be 'thread' or 'process', got {shard_mode!r}"
        )
    if fault_kind == "worker_kill" and shard_mode != "process":
        raise ValueError(
            "fault kind 'worker_kill' needs shard_mode='process' "
            "(it kills the worker process)"
        )
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if crash_at < 0:
        raise ValueError("crash_at must be >= 0")
    cat = default_catalog(scale)
    shards = min(shards, len(cat.names()))  # as many as the manager builds
    if crash_shard < 0 or crash_shard >= shards:
        raise ValueError(f"crash_shard must be in [0, {shards})")
    policy = restart_policy if restart_policy is not None else RestartPolicy()
    collected: List[dict] = []
    # worst-case supervised recovery: the full backoff budget plus
    # slack for detection and the rebuild itself (process mode pays a
    # worker spawn — interpreter + numpy import — per restart, so it
    # gets extra headroom)
    recovery_deadline = (
        policy.max_recovery_seconds() + 5.0
        + (10.0 if shard_mode == "process" else 0.0)
    )
    manager = ShardManager(
        cat,
        shards=shards,
        admission=AdmissionController(max_inflight=256),
        shard_mode=shard_mode,
        heartbeat_ms=heartbeat_ms,
        max_workers=workers,
    )
    victim = manager.shards[crash_shard]
    if fault_kind == "shard_crash":
        victim.crash_at = crash_at
    supervisor = ShardSupervisor(
        manager,
        restart_policy=policy,
        check_interval=0.02,
    )
    server = NetServer(manager, port=0)

    async def _drill() -> dict:
        await server.start()
        host, port = server.address
        serve_task = asyncio.ensure_future(server.serve_forever())
        supervisor.start()
        watcher = (
            asyncio.ensure_future(_kill_worker(victim, crash_at))
            if fault_kind == "worker_kill"
            else None
        )
        try:
            try:
                summary = await run_loadgen(
                    f"{host}:{port}",
                    connections=connections,
                    duration_seconds=duration_seconds,
                    zipf_a=zipf_a,
                    seed=seed,
                    read_timeout_seconds=10.0,
                    collect=collected if verify else None,
                )
            finally:
                if watcher is not None:  # the load ended: so does the watch
                    watcher.cancel()
                    await asyncio.gather(watcher, return_exceptions=True)
            recovered = await _recovery_wait(supervisor, recovery_deadline)
        finally:
            supervisor.stop()
            serve_task.cancel()
            try:
                await serve_task
            except (asyncio.CancelledError, Exception):
                pass
            await server.stop(drain_seconds=0.5)
        return {"summary": summary, "recovered": recovered}

    t0 = time.perf_counter()
    outcome = asyncio.run(_drill())
    wall = time.perf_counter() - t0
    try:
        sup_report = supervisor.report()
        verification = (
            verify_answers(cat, collected)
            if verify
            else {"checked": 0, "mismatches": 0, "skipped": True}
        )
    finally:
        manager.close(cancel_pending=True)

    summary = outcome["summary"]
    recoveries = [
        s["last_recovery_ms"]
        for s in sup_report["shards"].values()
        if s["last_recovery_ms"] is not None
    ]
    restarts = sum(s["restarts"] for s in sup_report["shards"].values())
    recovered = bool(outcome["recovered"]) and restarts > 0
    ok = (
        summary["hung"] == 0
        and summary["errors"] == 0
        and int(verification.get("mismatches", 0)) == 0
        and recovered
    )
    return {
        "ok": ok,
        "wall_seconds": round(wall, 3),
        "shard_mode": shard_mode,
        "fault": {
            "kind": fault_kind,
            "at": crash_at,
            "shard": crash_shard,
        },
        "summary": summary,
        "supervisor": sup_report,
        "restarts": restarts,
        "recovered": recovered,
        "recovery_ms": max(recoveries) if recoveries else None,
        "verification": verification,
    }
