"""Network front-end throughput and recovery: serve --listen + loadgen.

The serving acceptance checks for ``repro.net``:

* **throughput** — a 2-shard :class:`~repro.net.ShardManager` behind
  the asyncio TCP front-end, driven by the closed-loop Zipf load
  generator over real sockets, must sustain a healthy query rate with
  **zero** sheds and zero errors at trivial load — shedding on an idle
  box would mean admission control is mis-tuned, and any error would
  mean the socket protocol diverges from the stdin one.
* **recovery** — the network-tier chaos drill (a crash the drill arms
  on a live shard's dispatcher thread, under live traffic, then a
  supervised restart) must pass its three invariants and restart the
  shard quickly; the measured downtime is the ``bench.net.recovery_ms``
  gauge.

* **process-mode recovery** — the same drill with
  ``--shard-mode process`` and ``worker_kill``: the drill itself sends
  SIGKILL to the shard's worker *process* mid-traffic (once the shard
  has begun dispatch cycle ``crash_at``), and the supervisor must
  respawn it (interpreter start + handshake + graph transfer) within
  budget; the measured downtime is ``bench.net.process_recovery_ms``.

Both downtimes run from the supervisor pass that declares the shard
down to the end of the rebuild, so they cover the backoff and the
rebuild itself (in process mode, a worker spawn).  They leave out the
time from the death to that pass and from the rebuild to the shard's
first answer.

Emits ``bench.net.qps`` / ``bench.net.p99_ms`` / ``bench.net.shed`` /
``bench.net.recovery_ms`` / ``bench.net.process_recovery_ms`` gauges
into ``benchmarks/results/metrics.json`` via the session registry;
``tools/perf_gate.py`` gates ``bench.net.qps``,
``bench.net.recovery_ms`` and ``bench.net.process_recovery_ms``
against ``benchmarks/baselines/ci.json``.
"""

import asyncio

from conftest import run_once

from repro import obs
from repro.net import (
    AdmissionController,
    NetServer,
    ShardManager,
    run_chaos_drill,
    run_loadgen,
)
from repro.resilience import RestartPolicy
from repro.service import default_catalog

GRAPH_SCALE = 0.005  # tiny catalog graphs: this measures the wire, not SSSP
SHARDS = 2
CONNECTIONS = 8
DURATION_S = 2.0
ZIPF_A = 1.2


def test_serve_loadgen_throughput(benchmark, emit):
    catalog = default_catalog(GRAPH_SCALE)
    admission = AdmissionController(max_inflight=256)
    manager = ShardManager(
        catalog, shards=SHARDS, admission=admission, max_workers=2
    )

    async def drive():
        server = NetServer(manager, port=0)
        await server.start()
        try:
            host, port = server.address
            return await run_loadgen(
                f"{host}:{port}",
                connections=CONNECTIONS,
                duration_seconds=DURATION_S,
                zipf_a=ZIPF_A,
            )
        finally:
            await server.stop()

    try:
        summary = run_once(benchmark, lambda: asyncio.run(drive()))
    finally:
        manager.close()

    assert summary["sent"] > 0
    assert summary["errors"] == 0, summary["error_samples"]
    assert summary["shed"] == 0  # trivial load must never shed
    assert summary["ok"] == summary["sent"]

    latency = summary["latency"]
    registry = obs.get_registry()
    registry.gauge("bench.net.qps").set(summary["qps"])
    registry.gauge("bench.net.sent").set(summary["sent"])
    registry.gauge("bench.net.shed").set(summary["shed"])
    registry.gauge("bench.net.p50_ms").set(latency["p50_ms"])
    registry.gauge("bench.net.p99_ms").set(latency["p99_ms"])

    emit(
        "net_loadgen",
        "\n".join(
            [
                f"connections={CONNECTIONS} shards={SHARDS} "
                f"duration={DURATION_S}s zipf={ZIPF_A}",
                f"sent={summary['sent']} ok={summary['ok']} "
                f"shed={summary['shed']} errors={summary['errors']}",
                f"qps={summary['qps']}",
                f"latency p50={latency['p50_ms']}ms "
                f"p95={latency['p95_ms']}ms p99={latency['p99_ms']}ms",
            ]
        ),
    )


def test_chaos_recovery(benchmark, emit):
    """Supervised restart under live traffic: the recovery-time gate.

    One seeded ``shard_crash`` drill: the crashed shard's measured
    downtime (backoff + the rebuild) becomes ``bench.net.recovery_ms``.  The drill's own invariants (zero hung
    clients, zero errors, zero Dijkstra mismatches, in-budget restart)
    are asserted too — a chaos regression fails the benchmark, not
    just the gate.
    """
    report = run_once(
        benchmark,
        lambda: run_chaos_drill(
            shards=SHARDS,
            scale=GRAPH_SCALE,
            connections=4,
            duration_seconds=1.5,
            restart_policy=RestartPolicy(budget=5),
        ),
    )
    assert report["ok"], report
    summary = report["summary"]
    recovery_ms = (
        report["recovery_ms"] if report["recovery_ms"] is not None else 0.0
    )
    registry = obs.get_registry()
    registry.gauge("bench.net.recovery_ms").set(round(recovery_ms, 2))
    registry.gauge("bench.net.chaos_restarts").set(report["restarts"])
    registry.gauge("bench.net.chaos_hung").set(summary["hung"])
    registry.gauge("bench.net.chaos_mismatches").set(
        int(report["verification"].get("mismatches", 0))
    )

    emit(
        "net_chaos_recovery",
        "\n".join(
            [
                f"shards={SHARDS} fault=shard_crash duration=1.5s",
                f"sent={summary['sent']} ok={summary['ok']} "
                f"unavailable={summary['unavailable']} "
                f"dropped={summary['dropped']} hung={summary['hung']} "
                f"errors={summary['errors']}",
                f"restarts={report['restarts']} "
                f"recovery_ms={recovery_ms:.1f}",
                f"verified={report['verification']['checked']} answers, "
                f"{report['verification'].get('mismatches', 0)} mismatches",
            ]
        ),
    )


def test_process_chaos_recovery(benchmark, emit):
    """A drill-sent worker-process SIGKILL under live traffic: the process-mode gate.

    The heavyweight path: detection over the worker socket, a
    supervised respawn of a whole Python interpreter, handshake and
    graph transfer before the shard serves again.  The measured
    downtime becomes ``bench.net.process_recovery_ms``; like the
    thread-mode figure it covers backoff and the rebuild, here the
    worker spawn (about half a second: a process spawn imports numpy)
    that the shard's clients wait through.
    """
    report = run_once(
        benchmark,
        lambda: run_chaos_drill(
            shards=SHARDS,
            scale=GRAPH_SCALE,
            connections=4,
            duration_seconds=1.5,
            fault_kind="worker_kill",
            shard_mode="process",
            heartbeat_ms=150.0,
            restart_policy=RestartPolicy(budget=5),
        ),
    )
    assert report["ok"], report
    assert report["shard_mode"] == "process"
    summary = report["summary"]
    recovery_ms = (
        report["recovery_ms"] if report["recovery_ms"] is not None else 0.0
    )
    registry = obs.get_registry()
    registry.gauge("bench.net.process_recovery_ms").set(round(recovery_ms, 2))
    registry.gauge("bench.net.process_chaos_restarts").set(report["restarts"])
    registry.gauge("bench.net.process_chaos_hung").set(summary["hung"])
    registry.gauge("bench.net.process_chaos_mismatches").set(
        int(report["verification"].get("mismatches", 0))
    )

    emit(
        "net_process_recovery",
        "\n".join(
            [
                f"shards={SHARDS} shard_mode=process fault=worker_kill "
                f"duration=1.5s",
                f"sent={summary['sent']} ok={summary['ok']} "
                f"unavailable={summary['unavailable']} "
                f"dropped={summary['dropped']} hung={summary['hung']} "
                f"errors={summary['errors']}",
                f"restarts={report['restarts']} "
                f"recovery_ms={recovery_ms:.1f}",
                f"verified={report['verification']['checked']} answers, "
                f"{report['verification'].get('mismatches', 0)} mismatches",
            ]
        ),
    )
