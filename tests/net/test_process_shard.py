"""Process-mode shards: parity with thread mode, crash isolation."""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.net import (
    UNAVAILABLE_PREFIX,
    ProcessShard,
    ShardManager,
    ShardSupervisor,
)
from repro.net import worker as worker_module
from repro.net.worker import HandshakeError, WorkerClient
from repro.resilience.retry import RestartPolicy
from repro.service import QueryEngine, SSSPQuery, handle_line


@pytest.fixture
def process_manager(catalog):
    mgr = ShardManager(
        catalog,
        shards=2,
        shard_mode="process",
        heartbeat_ms=150.0,
        max_workers=1,
    )
    yield mgr
    mgr.close(cancel_pending=True)


def _strip(d):
    if not isinstance(d, dict):
        return d
    d = {k: v for k, v in d.items() if k not in ("wall_seconds", "trace")}
    if "results" in d:
        d["results"] = [_strip(x) for x in d["results"]]
    return d


def test_process_mode_protocol_matches_thread_mode(catalog, grids, registry):
    """The acceptance bar: process-mode answers byte-match thread-mode."""
    from repro.service import GraphCatalog

    thread_cat = GraphCatalog()
    for name, graph in grids.items():
        thread_cat.register(name, graph)
    thread_mgr = ShardManager(thread_cat, shards=2, max_workers=1)
    proc_mgr = ShardManager(
        catalog, shards=2, shard_mode="process", max_workers=1
    )
    try:
        for line in [
            '{"op": "query", "graph": "alpha", "source": 0}',
            '{"op": "query", "graph": "beta", "sources": [0, 1, 2]}',
            '{"op": "query", "graph": "alpha", "source": 3, '
            '"algorithm": "dijkstra"}',
            '{"op": "query", "graph": "nope", "source": 0, "id": "x"}',
            '{"op": "graphs"}',
            "not json",
        ]:
            threaded = _strip(handle_line(thread_mgr, line))
            process = _strip(handle_line(proc_mgr, line))
            assert json.dumps(process, sort_keys=True) == json.dumps(
                threaded, sort_keys=True
            ), line
    finally:
        thread_mgr.close(cancel_pending=True)
        proc_mgr.close(cancel_pending=True)


def test_timeout_answers_match_across_shard_modes(catalog, grids):
    """A kernel past ``--timeout`` answers the same bytes in both modes.

    The worker's CONFIG carries the timeout, so its kernel reads the
    same deadline a thread shard's does.  With a null obs context the
    answers carry no trace ids, and error answers no wall time, so the
    dicts compare unstripped.
    """
    from repro.service import GraphCatalog

    thread_cat = GraphCatalog()
    for name, graph in grids.items():
        thread_cat.register(name, graph)
    # 1 µs: past by the first check (the stepper's setup alone is longer)
    kwargs = dict(shards=2, max_workers=1, timeout=1e-6)
    thread_mgr = ShardManager(thread_cat, **kwargs)
    proc_mgr = ShardManager(catalog, shard_mode="process", **kwargs)
    try:
        for line in [
            '{"op": "query", "graph": "alpha", "source": 0, '
            '"algorithm": "adaptive", "id": "t1"}',
            '{"op": "query", "graph": "beta", "sources": [0, 1], '
            '"algorithm": "adaptive"}',
        ]:
            threaded = handle_line(thread_mgr, line)
            process = handle_line(proc_mgr, line)
            errors = [r["error"] for r in threaded.get("results", [threaded])]
            assert errors and set(errors) == {"timeout after 1e-06s"}, threaded
            assert json.dumps(process, sort_keys=True) == json.dumps(
                threaded, sort_keys=True
            ), line
    finally:
        thread_mgr.close(cancel_pending=True)
        proc_mgr.close(cancel_pending=True)


def test_run_many_round_trips_through_worker(process_manager):
    queries = [
        SSSPQuery(graph_id="alpha", source=1),
        SSSPQuery(graph_id="beta", source=2),
        SSSPQuery(graph_id="alpha", source=3),
    ]
    responses = process_manager.run_many(queries)
    assert all(r.ok for r in responses)
    assert [r.query.source for r in responses] == [1, 2, 3]
    # telemetry stays parent-side: the worker never fabricates a trace
    assert all(r.trace_id is None for r in responses)


def test_stats_and_health_surface_worker_facts(process_manager):
    stats = process_manager.stats()
    assert stats["shard_mode"] == "process"
    health = process_manager.health()
    assert health["shard_mode"] == "process"
    for row in health["shards"]:
        dispatcher = row["dispatcher"]
        assert dispatcher["mode"] == "process"
        worker = dispatcher["worker"]
        assert isinstance(worker["pid"], int)
        assert worker["alive"] is True
        assert worker["heartbeat_age_ms"] >= 0.0


def test_worker_kill_mid_batch_fails_only_dead_shards_sources(catalog, registry):
    """A worker death mid-batch must never surface partial distances."""
    mgr = ShardManager(catalog, shards=2, shard_mode="process", max_workers=1)
    victim = mgr.shards[0].client
    send = victim.request

    def kill_then_send(*args, **kwargs):  # the worker dies as its batch leaves
        os.kill(victim.pid, signal.SIGKILL)
        return send(*args, **kwargs)

    victim.request = kill_then_send
    try:
        # one batch spanning both shards: alpha (shard 0, killed)
        # and beta (shard 1, healthy)
        queries = [
            SSSPQuery(graph_id="alpha", source=0),
            SSSPQuery(graph_id="beta", source=0),
            SSSPQuery(graph_id="alpha", source=1),
            SSSPQuery(graph_id="beta", source=1),
        ]
        responses = mgr.run_many(queries)
        by_graph = {}
        for r in responses:
            by_graph.setdefault(r.query.graph_id, []).append(r)
        for r in by_graph["alpha"]:
            assert not r.ok
            assert r.error.startswith(UNAVAILABLE_PREFIX)
            assert r.reached == 0 and r.max_dist is None
        for r in by_graph["beta"]:
            assert r.ok, r.error
            assert r.reached > 0
    finally:
        mgr.close(cancel_pending=True)


def test_supervisor_respawns_killed_worker_and_restores_answers(
    catalog, registry
):
    mgr = ShardManager(
        catalog,
        shards=2,
        shard_mode="process",
        heartbeat_ms=100.0,
        max_workers=1,
    )
    supervisor = ShardSupervisor(
        mgr, restart_policy=RestartPolicy(budget=3), check_interval=0.02
    )
    supervisor.start()
    try:
        baseline = mgr.run_many(
            [SSSPQuery(graph_id=g, source=0) for g in ("alpha", "beta")]
        )
        assert all(r.ok for r in baseline)
        old_pid = mgr.shards[0].client.proc.pid
        os.kill(old_pid, signal.SIGKILL)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            report = supervisor.report()
            watch = report["shards"]["0"]
            if watch["state"] == "up" and watch["restarts"] >= 1:
                break
            time.sleep(0.02)
        report = supervisor.report()
        assert report["shards"]["0"]["state"] == "up"
        assert report["shards"]["0"]["restarts"] >= 1
        # the respawned worker re-adopted its partition: same answers,
        # new pid
        again = mgr.run_many(
            [SSSPQuery(graph_id=g, source=0) for g in ("alpha", "beta")]
        )
        assert all(r.ok for r in again)
        assert [r.max_dist for r in again] == [r.max_dist for r in baseline]
        assert mgr.shards[0].client.proc.pid != old_pid
        assert (
            registry.counter("net.worker.restarts", {"shard": "0"}).value >= 1
        )
    finally:
        supervisor.stop()
        mgr.close(cancel_pending=True)


def test_idle_heartbeat_keeps_worker_alive(catalog, registry):
    shard = ProcessShard(0, catalog, heartbeat_ms=80.0)
    try:
        time.sleep(0.5)  # several heartbeat intervals of pure idleness
        assert shard.alive
        snap = shard.dispatcher_snapshot()
        assert snap["mode"] == "process"
        worker = snap["worker"]
        assert worker["alive"] is True
        # the idle dispatcher beat its worker: the last answer is fresh
        assert worker["heartbeat_age_ms"] < 250.0, worker
        assert worker["heartbeat_timeout_ms"] == 500.0
        assert (
            registry.counter("net.worker.heartbeat_misses", {"shard": "0"}).value
            == 0
        )
    finally:
        shard.close()


def test_frozen_worker_trips_heartbeat_watchdog(catalog, registry):
    """An idle stopped worker misses its dispatcher's beat and is dead."""
    shard = ProcessShard(0, catalog, heartbeat_ms=80.0)
    try:
        os.kill(shard.client.proc.pid, signal.SIGSTOP)
        try:
            deadline = time.monotonic() + 5.0
            while shard.alive and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            os.kill(shard.client.proc.pid, signal.SIGCONT)
        assert not shard.alive
        assert "missed the heartbeat" in shard.exit_reason, shard.exit_reason
        assert (
            registry.counter("net.worker.heartbeat_misses", {"shard": "0"}).value
            == 1
        )
    finally:
        shard.close()


def test_process_shard_owns_one_front_end_thread(catalog, registry):
    """After the handshake a process shard adds its dispatcher and no other thread."""
    before = set(threading.enumerate())
    shard = ProcessShard(0, catalog, heartbeat_ms=50.0)
    try:
        assert shard.submit([SSSPQuery(graph_id="alpha", source=0)]).result(
            timeout=30.0
        )[0].ok
        time.sleep(0.2)  # beats flow meanwhile
        added = set(threading.enumerate()) - before
        assert [t.name for t in added] == ["repro-shard-0"]
    finally:
        shard.close()


def test_busy_worker_keeps_stats_fresh(catalog, registry):
    """Back-to-back requests leave no idle gap, yet stats keep up."""
    shard = ProcessShard(
        0, catalog, heartbeat_ms=100.0, engine_kwargs={"max_workers": 1}
    )
    try:
        assert shard.engine.stats()["queries"] == 0
        t0 = time.monotonic()
        sent = 0
        while time.monotonic() - t0 < 0.6:
            query = SSSPQuery(graph_id="alpha", source=sent % 100)
            (response,) = shard.submit([query]).result(timeout=10.0)
            assert response.ok, response.error
            sent += 1
        assert 0 < shard.engine.stats()["queries"] <= sent
    finally:
        shard.close()


def test_supervisor_replaces_worker_past_its_request_deadline(
    catalog, registry, monkeypatch
):
    """A busy worker that stops answering is dead once its REQUEST expires."""
    monkeypatch.setattr(worker_module, "DEFAULT_REQUEST_DEADLINE", 0.5)
    mgr = ShardManager(catalog, shards=1, shard_mode="process", max_workers=1)
    supervisor = ShardSupervisor(
        mgr, restart_policy=RestartPolicy(budget=3), check_interval=0.02
    )
    supervisor.start()
    old_proc = mgr.shards[0].client.proc
    os.kill(old_proc.pid, signal.SIGSTOP)
    try:
        (lost,) = mgr.run_many([SSSPQuery(graph_id="alpha", source=0)])
        assert not lost.ok and "deadline" in lost.error
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            watch = supervisor.report()["shards"]["0"]
            if watch["state"] == "up" and watch["restarts"] >= 1:
                break
            time.sleep(0.02)
        watch = supervisor.report()["shards"]["0"]
        assert watch["state"] == "up" and watch["restarts"] >= 1
        assert "missed the deadline" in watch["last_reason"]
        assert mgr.shards[0].client.proc.pid != old_proc.pid
        assert old_proc.poll() is not None  # the wedged worker was ended
        assert mgr.run(SSSPQuery(graph_id="alpha", source=0)).ok
    finally:
        if old_proc.poll() is None:
            os.kill(old_proc.pid, signal.SIGCONT)
        supervisor.stop()
        mgr.close(cancel_pending=True)


def test_supervisor_replaces_an_idle_worker_that_misses_its_beat(
    catalog, registry
):
    """An idle worker that stops answering is dead once a beat goes unanswered."""
    mgr = ShardManager(
        catalog, shards=1, shard_mode="process", heartbeat_ms=80.0, max_workers=1
    )
    supervisor = ShardSupervisor(
        mgr, restart_policy=RestartPolicy(budget=3), check_interval=0.02
    )
    supervisor.start()
    old_proc = mgr.shards[0].client.proc
    os.kill(old_proc.pid, signal.SIGSTOP)
    try:
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            watch = supervisor.report()["shards"]["0"]
            if watch["state"] == "up" and watch["restarts"] >= 1:
                break
            time.sleep(0.02)
        watch = supervisor.report()["shards"]["0"]
        assert watch["state"] == "up" and watch["restarts"] >= 1
        assert "missed the heartbeat" in watch["last_reason"]
        assert mgr.shards[0].client.proc.pid != old_proc.pid
        assert old_proc.poll() is not None  # the wedged worker was ended
        assert mgr.run(SSSPQuery(graph_id="alpha", source=0)).ok
    finally:
        if old_proc.poll() is None:
            os.kill(old_proc.pid, signal.SIGCONT)
        supervisor.stop()
        mgr.close(cancel_pending=True)


def test_shard_manager_rejects_unknown_mode(catalog):
    with pytest.raises(ValueError, match="shard_mode"):
        ShardManager(catalog, shards=1, shard_mode="fiber")


def test_groups_queued_during_a_round_trip_share_one_frame(catalog, registry):
    """The dispatcher waits on each round trip, so queued groups merge."""
    shard = ProcessShard(0, catalog, engine_kwargs={"max_workers": 1})
    engine = QueryEngine(catalog, max_workers=1)
    queries = [SSSPQuery(graph_id="alpha", source=s) for s in range(9)]
    try:
        pid = shard.client.proc.pid
        os.kill(pid, signal.SIGSTOP)
        try:
            futures = [shard.submit(queries[:1])]
            deadline = time.monotonic() + 10.0
            while shard.cycles < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert shard.cycles == 1
            for query in queries[1:]:
                futures.append(shard.submit([query]))
                time.sleep(0.01)
        finally:
            os.kill(pid, signal.SIGCONT)
        answers = [r for f in futures for r in f.result(timeout=30.0)]
        assert all(r.ok for r in answers)
        assert [_strip(r.as_dict()) for r in answers] == [
            _strip(r.as_dict()) for r in engine.run_many(queries)
        ]
        assert shard.cycles == 2
    finally:
        shard.close()
        engine.close()


def test_failed_build_closes_the_shards_already_built(
    catalog, registry, monkeypatch
):
    built = []
    spawn = WorkerClient._spawn

    def spawn_all_but_shard_1(self, *args):
        if self.index == 1:
            raise HandshakeError("injected: shard 1 never completes HELLO")
        spawn(self, *args)
        built.append(self)

    monkeypatch.setattr(WorkerClient, "_spawn", spawn_all_but_shard_1)
    with pytest.raises(HandshakeError, match="injected"):
        ShardManager(catalog, shards=2, shard_mode="process", max_workers=1)
    (client,) = built
    assert client.proc.poll() is not None  # shard 0's worker has exited
    assert not client.alive
