"""The network-tier chaos drill: shard death under live traffic.

``repro chaos-net`` stands up a real multi-shard TCP deployment —
the built-in catalog at the drill's ``scale``, admission control (the
256-query per-shard bound ``serve`` defaults to),
:class:`~repro.net.shard.ShardManager`,
:class:`~repro.net.supervisor.ShardSupervisor`,
:class:`~repro.net.server.NetServer` on an ephemeral port — injects a
scheduled network-tier fault (a dispatcher crash by default) while the
closed-loop load generator is driving it, and audits the three claims
the robustness work makes:

1. **no hangs** — every client request terminates: an answer, an
   in-band retryable error (``overloaded`` / ``unavailable``), or a
   connection drop the client reconnects through.  The loadgen tally's
   ``hung`` count *is* this claim; the drill fails if it is nonzero.
2. **no wrong answers** — every successful single-source response is
   cross-checked against a clean Dijkstra run on the same graph and
   source (:func:`~repro.resilience.faults.verify_answers`, the check
   ``repro faults`` applies below the pool).  A restarted shard must
   not change a single distance.
3. **bounded recovery** — a crashed shard is restarted and serving
   again within the restart policy's worst-case backoff budget; the
   supervisor's measured downtime is the drill's recovery metric (and
   CI's ``bench.net.recovery_ms`` gate).

Everything is deterministic where it can be: the fault is a
:class:`~repro.resilience.faults.ScheduledFaultPlan` (fires at an
exact dispatch cycle on an exact shard), sources are seeded, and the
restart schedule is the seeded :class:`~repro.resilience.retry.RestartPolicy`.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional

from repro.net.admission import AdmissionController
from repro.net.loadgen import run_loadgen
from repro.net.server import NetServer
from repro.net.shard import ShardManager
from repro.net.supervisor import ShardSupervisor
from repro.resilience.faults import (
    NET_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    ScheduledFaultPlan,
    verify_answers,
)
from repro.resilience.retry import RestartPolicy
from repro.service.catalog import default_catalog

__all__ = ["run_chaos_drill"]

# kinds that sabotage a shard dispatcher (vs the server's conn_drop)
_DISPATCHER_KINDS = ("shard_crash", "slow_shard")

# kinds after which the drill demands a supervised restart
# (worker_kill / worker_oom end the worker *process*; the supervisor
# must detect the death via waitpid and respawn within budget)
_LETHAL_KINDS = ("shard_crash", "worker_kill", "worker_oom")


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
    non-retryable errors, zero Dijkstra mismatches, and (for lethal
    fault kinds) the crashed shard restarted within the recovery
    deadline.  ``repro chaos-net`` exits nonzero when ``ok`` is False;
    the CI smoke job and the recovery benchmark both run through here.
    """
    if fault_kind not in NET_FAULT_KINDS:
        raise ValueError(
            f"fault_kind must be one of {', '.join(NET_FAULT_KINDS)}; "
            f"got {fault_kind!r}"
        )
    if shard_mode not in ("thread", "process"):
        raise ValueError(
            f"shard_mode must be 'thread' or 'process', got {shard_mode!r}"
        )
    if fault_kind in WORKER_FAULT_KINDS and shard_mode != "process":
        raise ValueError(
            f"fault kind {fault_kind!r} needs shard_mode='process' "
            "(it sabotages the worker process)"
        )
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if crash_shard < 0 or crash_shard >= shards:
        raise ValueError(f"crash_shard must be in [0, {shards})")
    policy = restart_policy if restart_policy is not None else RestartPolicy()
    plan = ScheduledFaultPlan(at=(crash_at,), kind=fault_kind)
    cat = default_catalog(scale)
    collected: List[dict] = []
    lethal = fault_kind in _LETHAL_KINDS
    # worst-case supervised recovery: the full backoff budget plus
    # slack for detection and the rebuild itself (process mode pays a
    # worker spawn — interpreter + numpy import — per restart, so it
    # gets extra headroom)
    recovery_deadline = (
        policy.max_recovery_seconds() + 5.0
        + (10.0 if shard_mode == "process" else 0.0)
    )

    shard_fault_kinds = _DISPATCHER_KINDS + (
        WORKER_FAULT_KINDS if shard_mode == "process" else ()
    )
    manager = ShardManager(
        cat,
        shards=shards,
        admission=AdmissionController(max_inflight=256),
        net_fault_plan=plan if fault_kind in shard_fault_kinds else None,
        net_fault_shard=crash_shard,
        shard_mode=shard_mode,
        heartbeat_ms=heartbeat_ms,
        max_workers=workers,
    )
    supervisor = ShardSupervisor(
        manager,
        restart_policy=policy,
        check_interval=0.02,
    )
    server = NetServer(
        manager,
        port=0,
        fault_plan=plan if fault_kind == "conn_drop" else None,
    )

    async def _drill() -> dict:
        await server.start()
        host, port = server.address
        serve_task = asyncio.ensure_future(server.serve_forever())
        supervisor.start()
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
            recovered = await _recovery_wait(
                supervisor, recovery_deadline if lethal else 0.2
            )
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
    recovered = bool(outcome["recovered"]) and (not lethal or restarts > 0)
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
