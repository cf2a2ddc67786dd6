"""ShardManager: routing, engine-facade parity, admission wiring."""

from __future__ import annotations

import pytest

from repro.net import AdmissionController, ShardDiedError, ShardManager
from repro.service import GraphCatalog, QueryEngine, SSSPQuery, handle_line


@pytest.fixture
def manager(catalog):
    mgr = ShardManager(catalog, shards=2, max_workers=2)
    yield mgr
    mgr.close()


def test_assignment_is_deterministic_round_robin(manager):
    # sorted names: alpha -> shard 0, beta -> shard 1
    assert manager.shard_of("alpha") == 0
    assert manager.shard_of("beta") == 1
    assert manager.shard_of("nope") is None
    assert manager.graph_ids == ["alpha", "beta"]


def test_shard_count_clamps_to_graph_count(catalog):
    mgr = ShardManager(catalog, shards=8, max_workers=1)
    try:
        assert len(mgr.shards) == 2
    finally:
        mgr.close()


def test_empty_catalog_rejected():
    with pytest.raises(ValueError):
        ShardManager(GraphCatalog(), shards=1)


def test_routes_each_graph_to_its_owner(manager):
    ra = manager.run(SSSPQuery(graph_id="alpha", source=0))
    rb = manager.run(SSSPQuery(graph_id="beta", source=0))
    assert ra.ok and rb.ok
    stats = manager.stats()
    assert stats["shards"][0]["graphs"] == ["alpha"]
    assert stats["shards"][1]["graphs"] == ["beta"]
    assert stats["shards"][0]["dispatched"] == 1
    assert stats["shards"][1]["dispatched"] == 1


def test_run_many_preserves_request_order(manager):
    queries = [
        SSSPQuery(graph_id="beta", source=1),
        SSSPQuery(graph_id="alpha", source=2),
        SSSPQuery(graph_id="nope", source=0),
        SSSPQuery(graph_id="alpha", source=3),
    ]
    responses = manager.run_many(queries)
    assert [r.query.graph_id for r in responses] == [
        "beta", "alpha", "nope", "alpha",
    ]
    assert responses[0].ok and responses[1].ok and responses[3].ok
    assert not responses[2].ok


def test_unknown_graph_error_matches_single_engine(catalog, grids):
    mgr = ShardManager(catalog, shards=2, max_workers=1)
    single_cat = GraphCatalog()
    for name, graph in grids.items():
        single_cat.register(name, graph)
    engine = QueryEngine(single_cat, max_workers=1)
    try:
        q = SSSPQuery(graph_id="missing", source=0)
        assert mgr.run(q).error == engine.run(q).error
    finally:
        mgr.close()
        engine.close()


def test_protocol_responses_match_single_engine(catalog, grids):
    """The acceptance bar: socket-mode answers byte-match stdin-mode."""
    import json

    mgr = ShardManager(catalog, shards=2, max_workers=1)
    single_cat = GraphCatalog()
    for name, graph in grids.items():
        single_cat.register(name, graph)
    engine = QueryEngine(single_cat, max_workers=1)

    def strip(d):
        if not isinstance(d, dict):
            return d
        d = {k: v for k, v in d.items() if k not in ("wall_seconds", "trace")}
        if "results" in d:
            d["results"] = [strip(x) for x in d["results"]]
        return d

    try:
        for line in [
            '{"op": "query", "graph": "alpha", "source": 0}',
            '{"op": "query", "graph": "beta", "sources": [0, 1, 2]}',
            '{"op": "query", "graph": "nope", "source": 0, "id": "x"}',
            '{"op": "graphs"}',
            "not json",
            '{"op": "wat"}',
        ]:
            sharded = strip(handle_line(mgr, line))
            direct = strip(handle_line(engine, line))
            assert json.dumps(sharded, sort_keys=True) == json.dumps(
                direct, sort_keys=True
            ), line
    finally:
        mgr.close()
        engine.close()


def test_dispatcher_merges_queued_work(catalog):
    mgr = ShardManager(catalog, shards=1, max_workers=1, cache_size=0)
    try:
        futures = [
            mgr.submit_many([SSSPQuery(graph_id="alpha", source=i)])
            for i in range(12)
        ]
        for f in futures:
            assert f.result()[0].ok
        shard = mgr.shards[0]
        # 12 submissions cannot all have run in their own cycle: the
        # dispatcher drains whatever queued behind the running batch
        assert shard.dispatched == 12
        assert shard.cycles < 12
    finally:
        mgr.close()


def test_admission_sheds_overload_and_recovers(catalog):
    adm = AdmissionController(max_inflight=2)
    mgr = ShardManager(catalog, shards=1, admission=adm, max_workers=1)
    try:
        futures = [
            mgr.submit_many([SSSPQuery(graph_id="alpha", source=i)])
            for i in range(30)
        ]
        responses = [f.result()[0] for f in futures]
        shed = [r for r in responses if not r.ok]
        assert shed and all(r.error.startswith("overloaded") for r in shed)
        assert adm.shed == len(shed)
        # load gone: tokens are back, a fresh query is admitted
        assert mgr.run(SSSPQuery(graph_id="alpha", source=99)).ok
        assert adm.inflight(0) == 0
    finally:
        mgr.close()


def test_stats_and_health_aggregate_across_shards(manager):
    manager.run(SSSPQuery(graph_id="alpha", source=0))
    manager.run(SSSPQuery(graph_id="beta", source=0))
    stats = manager.stats()
    assert stats["queries"] == 2
    assert stats["assignment"] == {"alpha": 0, "beta": 1}
    assert stats["pool"]["max_workers"] == 4  # 2 shards x 2 workers
    health = manager.health()
    assert health["pool"]["alive"] is True
    assert len(health["shards"]) == 2


def test_per_shard_latency_labels(registry, catalog):
    mgr = ShardManager(catalog, shards=2, max_workers=1)
    try:
        mgr.run(SSSPQuery(graph_id="alpha", source=0))
        mgr.run(SSSPQuery(graph_id="beta", source=0))
    finally:
        mgr.close()
    keys = [k for k in registry.snapshot() if k.startswith("service.query.latency")]
    assert any('shard="0"' in k for k in keys)
    assert any('shard="1"' in k for k in keys)


def test_engine_crash_fails_only_that_group(manager):
    manager.shards[0].engine.run_many = _boom  # type: ignore[method-assign]
    bad = manager.run(SSSPQuery(graph_id="alpha", source=0))
    good = manager.run(SSSPQuery(graph_id="beta", source=0))
    assert not bad.ok and "internal error" in bad.error
    assert good.ok


def test_dispatcher_death_fails_pending_futures(catalog):
    """Satellite: a dying dispatch loop fails its queue, never strands it."""
    mgr = ShardManager(catalog, shards=1, max_workers=1)
    mgr.shards[0].crash_at = 0
    try:
        fut = mgr.shards[0].submit([SSSPQuery(graph_id="alpha", source=0)])
        with pytest.raises(ShardDiedError):
            fut.result(timeout=5)
        shard = mgr.shards[0]
        assert shard.alive is False
        assert "InjectedShardCrash" in shard.exit_reason
        snap = shard.dispatcher_snapshot()
        assert snap["alive"] is False and snap["pending"] == 0
    finally:
        mgr.close()


def test_crash_at_lets_earlier_cycles_run(catalog):
    """An armed shard answers the cycles before ``crash_at``, then dies once."""
    mgr = ShardManager(catalog, shards=1, max_workers=1)
    shard = mgr.shards[0]
    assert shard.crash_at is None  # unarmed unless a drill sets it
    shard.crash_at = 1
    try:
        (first,) = shard.submit([SSSPQuery(graph_id="alpha", source=0)]).result(timeout=5)
        assert first.ok, first.error
        with pytest.raises(ShardDiedError, match=r"injected shard crash \(cycle 1\)"):
            shard.submit([SSSPQuery(graph_id="alpha", source=1)]).result(timeout=5)
        assert shard.cycles == 1 and not shard.alive
    finally:
        mgr.close()


def test_submit_to_dead_shard_is_retryable(catalog):
    mgr = ShardManager(catalog, shards=1, max_workers=1)
    mgr.shards[0].crash_at = 0
    try:
        with pytest.raises(ShardDiedError):
            mgr.shards[0].submit(
                [SSSPQuery(graph_id="alpha", source=0)]
            ).result(timeout=5)
        with pytest.raises(ShardDiedError):
            mgr.shards[0].submit([SSSPQuery(graph_id="alpha", source=1)])
    finally:
        mgr.close()


def test_manager_converts_dead_shard_to_unavailable(catalog):
    """No supervisor attached: dead-shard traffic fast-fails in-band."""
    adm = AdmissionController(max_inflight=8)
    mgr = ShardManager(catalog, shards=1, max_workers=1, admission=adm)
    mgr.shards[0].crash_at = 0
    try:
        with pytest.raises(ShardDiedError):
            mgr.shards[0].submit(
                [SSSPQuery(graph_id="alpha", source=0)]
            ).result(timeout=5)
        r = mgr.run(SSSPQuery(graph_id="alpha", source=1))
        assert not r.ok and r.error.startswith("unavailable")
        assert adm.unavailable >= 1
        # the failed admission returned its tokens
        assert adm.inflight(0) == 0
    finally:
        mgr.close()


def test_health_serving_only_false_when_all_shards_down(catalog):
    """Satellite: /healthz flips 503 only when the whole fleet is gone."""
    mgr = ShardManager(catalog, shards=2, max_workers=1)
    try:
        health = mgr.health()
        assert health["serving"] is True and health["shards_up"] == 2
        assert all(row["dispatcher"]["alive"] for row in health["shards"])
        mgr.set_shard_state(0, "down")
        health = mgr.health()
        assert health["serving"] is True and health["shards_up"] == 1
        assert health["shards"][0]["serving"] is False
        mgr.set_shard_state(1, "failed")
        health = mgr.health()
        assert health["serving"] is False and health["shards_up"] == 0
    finally:
        mgr.close()


def test_close_is_idempotent(catalog):
    mgr = ShardManager(catalog, shards=2, max_workers=1)
    mgr.close()
    mgr.close()
    with pytest.raises(RuntimeError):
        mgr.shards[0].submit([SSSPQuery(graph_id="alpha", source=0)])


def _boom(queries):
    raise RuntimeError("engine exploded")
