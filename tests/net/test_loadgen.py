"""Loadgen: closed-loop traffic, shed classification, summaries."""

from __future__ import annotations

import asyncio

import pytest

from repro.net import (
    AdmissionController,
    NetServer,
    ShardManager,
    run_loadgen,
)
from repro.net.admission import OVERLOADED_PREFIX
from repro.net.loadgen import _Tally, summarize
from repro.resilience import ScheduledFaultPlan, verify_answers


def _drive(manager, server_kwargs=None, **kwargs):
    async def main():
        server = NetServer(manager, port=0, **(server_kwargs or {}))
        await server.start()
        try:
            host, port = server.address
            return await run_loadgen(f"{host}:{port}", **kwargs)
        finally:
            await server.stop()

    return asyncio.run(main())


def test_light_load_sheds_nothing(catalog):
    mgr = ShardManager(
        catalog,
        shards=2,
        admission=AdmissionController(max_inflight=256),
        max_workers=2,
    )
    try:
        summary = _drive(
            mgr, connections=4, duration_seconds=0.5, zipf_a=1.2
        )
    finally:
        mgr.close()
    assert summary["sent"] > 0
    assert summary["ok"] == summary["sent"]
    assert summary["shed"] == 0 and summary["errors"] == 0
    assert summary["qps"] > 0
    assert summary["latency"]["p99_ms"] >= summary["latency"]["p50_ms"]


def test_overload_sheds_and_classifies(catalog):
    mgr = ShardManager(
        catalog,
        shards=2,
        admission=AdmissionController(max_inflight=0),  # shed everything
        max_workers=1,
    )
    try:
        summary = _drive(
            mgr, connections=4, duration_seconds=0.3, zipf_a=1.2
        )
    finally:
        mgr.close()
    assert summary["sent"] > 0
    assert summary["shed"] == summary["sent"]
    assert summary["errors"] == 0  # sheds are not errors


def test_batched_requests_and_graph_pin(catalog):
    mgr = ShardManager(catalog, shards=2, max_workers=2)
    try:
        summary = _drive(
            mgr,
            connections=2,
            duration_seconds=0.3,
            zipf_a=0.0,  # uniform fallback
            batch=4,
            graph="alpha",
        )
    finally:
        mgr.close()
    assert summary["sent"] > 0 and summary["errors"] == 0


def _invariant(summary):
    return summary["sent"] == (
        summary["ok"]
        + summary["shed"]
        + summary["unavailable"]
        + summary["errors"]
        + summary["dropped"]
        + summary["hung"]
    )


def test_dead_shard_traffic_classified_unavailable(catalog):
    """A crashed, unsupervised shard answers in-band, never hangs."""
    mgr = ShardManager(
        catalog,
        shards=1,
        max_workers=1,
        admission=AdmissionController(max_inflight=64),
        net_fault_plan=ScheduledFaultPlan(at=(0,), kind="shard_crash"),
    )
    try:
        summary = _drive(
            mgr, connections=2, duration_seconds=0.4, zipf_a=1.2
        )
    finally:
        mgr.close()
    assert summary["sent"] > 0
    assert summary["unavailable"] > 0
    assert summary["errors"] == 0 and summary["hung"] == 0
    assert _invariant(summary)


def test_reconnects_through_connection_drops(catalog):
    mgr = ShardManager(catalog, shards=1, max_workers=2)
    try:
        summary = _drive(
            mgr,
            server_kwargs={
                "fault_plan": ScheduledFaultPlan(at=(0, 3), kind="conn_drop")
            },
            connections=2,
            duration_seconds=0.4,
            zipf_a=1.2,
        )
    finally:
        mgr.close()
    assert summary["dropped"] >= 1
    assert summary["ok"] > 0  # the workers reconnected and kept going
    assert summary["hung"] == 0 and summary["errors"] == 0
    assert _invariant(summary)


def test_collect_hook_captures_single_source_rows(catalog):
    mgr = ShardManager(catalog, shards=2, max_workers=2)
    collected = []
    try:
        summary = _drive(
            mgr,
            connections=2,
            duration_seconds=0.3,
            zipf_a=1.2,
            collect=collected,
        )
    finally:
        mgr.close()
    assert 0 < len(collected) <= summary["ok"]
    row = collected[0]
    assert set(row) == {"graph", "source", "reached", "max_dist", "mean_dist"}
    assert row["graph"] in ("alpha", "beta")
    assert row["reached"] > 0


def test_batched_sheds_count_as_shed_not_errors(catalog):
    mgr = ShardManager(
        catalog,
        shards=2,
        admission=AdmissionController(max_inflight=0),  # shed everything
        max_workers=1,
    )
    try:
        summary = _drive(
            mgr, connections=4, duration_seconds=0.3, zipf_a=1.2, batch=2
        )
    finally:
        mgr.close()
    assert summary["sent"] > 0
    assert summary["shed"] == summary["sent"]
    assert summary["errors"] == 0 and summary["error_samples"] == []


def test_collect_hook_captures_one_row_per_batched_source(catalog):
    mgr = ShardManager(catalog, shards=2, max_workers=2)
    collected = []
    try:
        summary = _drive(
            mgr,
            connections=2,
            duration_seconds=0.3,
            zipf_a=1.2,
            batch=2,
            collect=collected,
        )
    finally:
        mgr.close()
    assert summary["ok"] == summary["sent"] > 0
    assert len(collected) == 2 * summary["ok"]
    verdict = verify_answers(catalog, collected)
    assert verdict["checked"] == len(collected)
    assert verdict["mismatches"] == 0


def test_unknown_graph_pin_rejected(catalog):
    mgr = ShardManager(catalog, shards=1, max_workers=1)
    try:
        with pytest.raises(RuntimeError, match="not in server catalog"):
            _drive(
                mgr, connections=1, duration_seconds=0.2, graph="nope"
            )
    finally:
        mgr.close()


def test_parameter_validation(catalog):
    mgr = ShardManager(catalog, shards=1, max_workers=1)
    try:
        with pytest.raises(ValueError):
            _drive(mgr, connections=0, duration_seconds=0.2)
        with pytest.raises(ValueError):
            _drive(mgr, connections=1, duration_seconds=0.0)
    finally:
        mgr.close()


def test_qps_counts_ok_answers_not_sheds():
    tally = _Tally()
    for _ in range(10):
        tally.record({"ok": True}, 0.01)
    for _ in range(90):
        tally.record({"ok": False, "error": f"{OVERLOADED_PREFIX} shard 0"}, 0.001)
    summary = summarize(tally, wall_seconds=1.0, connections=1)
    assert (summary["sent"], summary["ok"], summary["shed"]) == (100, 10, 90)
    assert summary["qps"] == 10.0


def test_batched_cache_hits_count_per_result():
    tally = _Tally()
    tally.record(
        {
            "ok": True,
            "count": 3,
            "results": [
                {"ok": True, "cache": "hit"},
                {"ok": True, "cache": "miss"},
                {"ok": True, "cache": "coalesced"},
            ],
        },
        0.01,
    )
    assert tally.cache_hits == 2
