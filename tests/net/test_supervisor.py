"""ShardSupervisor: detection, restart budget, degraded routing.

Timing-sensitive decisions (backoff windows, a slow cycle that must
not read as a dead shard) are driven through ``supervisor.check(now=...)``
with an explicit fake clock — no sleeps, no background thread — so
every state transition in these tests is deterministic.  The tests
that time ``health()`` while a shard is retired or rebuilt use a real
clock: what they pin is that neither holds the lock ``report()`` takes.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.net import AdmissionController, ShardManager, ShardSupervisor
from repro.resilience import RestartPolicy, ScheduledFaultPlan
from repro.service import SSSPQuery


def _manager(catalog, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("max_workers", 1)
    return ShardManager(catalog, **kwargs)


def _crash_shard0(catalog, **kwargs):
    """A manager whose shard 0 dispatcher dies on its first cycle."""
    return _manager(
        catalog,
        net_fault_plan=ScheduledFaultPlan(at=(0,), kind="shard_crash"),
        net_fault_shard=0,
        **kwargs,
    )


def _kill(mgr, index=0, timeout=2.0):
    """Trigger the scheduled crash and wait for the dispatcher to die."""
    graph = next(g for g, s in mgr._home.items() if s == index)
    mgr.submit_many([SSSPQuery(graph_id=graph, source=0)]).result(timeout=5)
    deadline = time.monotonic() + timeout
    while mgr.shards[index].alive and time.monotonic() < deadline:
        time.sleep(0.005)
    assert not mgr.shards[index].alive
    return graph


def test_crash_detected_and_restarted_fake_clock(catalog):
    mgr = _crash_shard0(catalog)
    try:
        sup = ShardSupervisor(
            mgr,
            restart_policy=RestartPolicy(
                budget=3, base_delay=10.0, max_delay=100.0, jitter=0.0
            ),
        )
        graph = _kill(mgr)
        t0 = 1000.0
        sup.check(now=t0)
        assert sup.state(0) == "down"
        assert mgr.shard_state(0) == "down"
        # degraded mode: the dead shard's graph fast-fails in-band
        r = mgr.run(SSSPQuery(graph_id=graph, source=1))
        assert not r.ok and r.error.startswith("unavailable")
        # inside the backoff window nothing happens
        sup.check(now=t0 + 5.0)
        assert sup.state(0) == "down"
        # past the window: rebuilt, routing restored, serving again
        sup.check(now=t0 + 10.5)
        assert sup.state(0) == "up"
        assert mgr.shard_state(0) == "up"
        assert mgr.run(SSSPQuery(graph_id=graph, source=1)).ok
        report = sup.report()
        assert report["shards"]["0"]["restarts"] == 1
        assert report["shards"]["0"]["last_recovery_ms"] is not None
        assert report["shards"]["1"]["restarts"] == 0
    finally:
        mgr.close()


def test_restart_budget_exhaustion_marks_failed(catalog):
    mgr = _crash_shard0(catalog)
    try:
        sup = ShardSupervisor(
            mgr,
            restart_policy=RestartPolicy(budget=0),
        )
        graph = _kill(mgr)
        sup.check(now=100.0)
        assert sup.state(0) == "failed"
        assert mgr.shard_state(0) == "failed"
        # a failed shard stays failed across further passes
        sup.check(now=10_000.0)
        assert sup.state(0) == "failed"
        r = mgr.run(SSSPQuery(graph_id=graph, source=0))
        assert not r.ok and r.error.startswith("unavailable")
        # the surviving shard keeps the deployment serving
        assert mgr.health()["serving"] is True
    finally:
        mgr.close()


def test_slow_cycle_is_not_a_dead_shard_fake_clock(catalog):
    """A pool task far slower than any guess leaves its shard up."""
    mgr = _manager(
        catalog,
        shards=1,
        fault_plan=ScheduledFaultPlan(at=(0,), kind="hang", hang_seconds=1.0),
    )
    try:
        sup = ShardSupervisor(mgr, restart_policy=RestartPolicy(budget=0))
        future = mgr.submit_many([SSSPQuery(graph_id="alpha", source=0)])
        shard = mgr.shards[0]
        deadline = time.monotonic() + 5.0
        while shard.cycles < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert shard.cycles == 1 and not future.done()
        sup.check(now=time.monotonic() + 1000.0)
        assert sup.state(0) == "up"
        (response,) = future.result(timeout=10.0)
        assert response.ok, response.error
        assert sup.report()["shards"]["0"]["restarts"] == 0
    finally:
        mgr.close()


def test_background_thread_restarts_without_fake_clock(catalog, registry):
    """The integration path: real thread, real (small) backoff."""
    mgr = _crash_shard0(catalog)
    sup = ShardSupervisor(
        mgr,
        restart_policy=RestartPolicy(budget=3, base_delay=0.01, jitter=0.0),
        check_interval=0.01,
    )
    sup.start()
    try:
        graph = _kill(mgr)

        def _recovered():
            row = sup.report()["shards"]["0"]
            return row["restarts"] >= 1 and row["state"] == "up"

        deadline = time.monotonic() + 5.0
        while not _recovered() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _recovered()
        assert mgr.run(SSSPQuery(graph_id=graph, source=3)).ok
        snapshot = registry.snapshot()
        assert snapshot["net.shard.restarts"]["value"] >= 1
    finally:
        mgr.close()  # stops the supervisor too


def test_shard_down_and_up_events_emitted(catalog):
    events = []

    class _Sink:
        enabled = True

        def emit(self, event):
            events.append(event)

    with obs.use(events=_Sink()):
        mgr = _crash_shard0(catalog)
        try:
            sup = ShardSupervisor(
                mgr,
                restart_policy=RestartPolicy(
                    budget=2, base_delay=0.0, jitter=0.0
                ),
            )
            _kill(mgr)
            sup.check(now=1.0)
            sup.check(now=2.0)
        finally:
            mgr.close()
    kinds = [e["type"] for e in events]
    assert "shard_died" in kinds
    assert "shard_down" in kinds
    assert "shard_up" in kinds
    down = next(e for e in events if e["type"] == "shard_down")
    assert down["shard"] == 0 and down["restart"] == 1
    up = next(e for e in events if e["type"] == "shard_up")
    assert up["shard"] == 0 and up["downtime_ms"] >= 0


def test_supervisor_report_in_health_and_healthz_criterion(catalog):
    adm = AdmissionController(max_inflight=16)
    mgr = _crash_shard0(catalog, admission=adm)
    try:
        sup = ShardSupervisor(
            mgr,
            restart_policy=RestartPolicy(budget=0),
        )
        health = mgr.health()
        assert health["serving"] is True and health["shards_up"] == 2
        _kill(mgr)
        sup.check(now=1.0)
        health = mgr.health()
        # one shard failed: degraded but still serving
        assert health["serving"] is True and health["shards_up"] == 1
        assert health["shards"][0]["state"] == "failed"
        assert health["shards"][1]["state"] == "up"
        assert health["supervisor"]["degraded"] == 1
    finally:
        mgr.close()


def test_rejects_bad_parameters(catalog):
    mgr = _manager(catalog)
    try:
        with pytest.raises(ValueError):
            ShardSupervisor(mgr, check_interval=0)
    finally:
        mgr.close()


def test_restart_preserves_catalog_and_cache_keys(catalog):
    """A rebuilt shard serves the same graphs with the same fingerprints."""
    mgr = _crash_shard0(catalog)
    try:
        sup = ShardSupervisor(
            mgr,
            restart_policy=RestartPolicy(budget=2, base_delay=0.0, jitter=0.0),
        )
        before = mgr.run(SSSPQuery(graph_id="beta", source=0))
        graph = _kill(mgr)
        sup.check(now=1.0)
        sup.check(now=2.0)
        assert sup.state(0) == "up"
        after_crashed = mgr.run(SSSPQuery(graph_id=graph, source=0))
        after_other = mgr.run(SSSPQuery(graph_id="beta", source=0))
        assert after_crashed.ok
        assert after_other.ok
        assert after_other.fingerprint == before.fingerprint
        # replacement shard runs fault-free: no crash loop
        assert mgr.shards[0].fault_plan is None
    finally:
        mgr.close()


def test_retire_does_not_wait_for_an_abandoned_pool_task(catalog):
    """A pool task the timeout abandoned holds up neither retire nor health()."""
    mgr = _manager(
        catalog,
        max_workers=2,
        timeout=0.2,
        fault_plan=ScheduledFaultPlan(at=(0,), kind="hang", hang_seconds=4.0),
        net_fault_plan=ScheduledFaultPlan(at=(1,), kind="shard_crash"),
        net_fault_shard=0,
    )
    sup = ShardSupervisor(
        mgr,
        restart_policy=RestartPolicy(budget=3, base_delay=0.05, jitter=0.0),
        check_interval=0.02,
    )
    sup.start()
    try:
        graph = next(g for g, s in mgr._home.items() if s == 0)
        # cycle 0: pool task 0 hangs and is abandoned at the timeout,
        # which answers; the straggler keeps its pool thread
        first = mgr.run(SSSPQuery(graph_id=graph, source=0))
        assert not first.ok and first.error == "timeout after 0.2s"
        # cycle 1 crashes the dispatcher while the straggler still runs
        crashed = mgr.run(SSSPQuery(graph_id=graph, source=1))
        assert not crashed.ok and crashed.error.startswith("unavailable")
        slowest = 0.0
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            t0 = time.perf_counter()
            row = mgr.health()["supervisor"]["shards"]["0"]
            slowest = max(slowest, time.perf_counter() - t0)
            if row["state"] == "up" and row["restarts"] >= 1:
                break
            time.sleep(0.01)
        assert row["state"] == "up" and row["restarts"] >= 1
        assert slowest < 0.5
        assert row["last_recovery_ms"] < 500
        # the rebuilt engine keeps the pool fault plan: its task 0 hangs too
        again = mgr.run(SSSPQuery(graph_id=graph, source=2))
        assert again.error == "timeout after 0.2s"
        assert mgr.run(SSSPQuery(graph_id=graph, source=1)).ok
    finally:
        mgr.close(cancel_pending=True)


def test_health_answers_while_a_shard_rebuilds(catalog, monkeypatch):
    """Retire and rebuild run outside the lock ``report()`` takes."""
    mgr = _crash_shard0(catalog)
    build = ShardManager._build_shard

    def slow_rebuild(self, index, *, with_faults):
        if not with_faults:  # a replacement, not the first build
            time.sleep(1.0)
        return build(self, index, with_faults=with_faults)

    monkeypatch.setattr(ShardManager, "_build_shard", slow_rebuild)
    try:
        sup = ShardSupervisor(
            mgr,
            restart_policy=RestartPolicy(budget=2, base_delay=0.0, jitter=0.0),
        )
        _kill(mgr)
        sup.check(now=1.0)
        assert sup.state(0) == "down"
        rebuild = threading.Thread(target=sup.check, kwargs={"now": 2.0})
        rebuild.start()
        took = []
        deadline = time.monotonic() + 10.0
        while rebuild.is_alive() and time.monotonic() < deadline:
            t0 = time.perf_counter()
            mgr.health()
            took.append(time.perf_counter() - t0)
            time.sleep(0.01)
        rebuild.join(timeout=10.0)
        assert not rebuild.is_alive()
        assert sup.state(0) == "up"
        assert len(took) >= 10
        assert max(took) < 0.2, max(took)
    finally:
        mgr.close()
