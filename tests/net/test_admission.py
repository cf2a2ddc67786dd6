"""AdmissionController: the per-shard token bound and its metrics."""

from __future__ import annotations

import pytest

from repro import obs
from repro.net.admission import OVERLOADED_PREFIX, AdmissionController


def test_admits_within_the_token_bound():
    adm = AdmissionController(max_inflight=3)
    assert adm.try_acquire(0, 2) is None
    assert adm.try_acquire(0, 1) is None
    assert adm.inflight(0) == 3


def test_sheds_past_the_token_bound_with_a_reason():
    adm = AdmissionController(max_inflight=2)
    assert adm.try_acquire(0, 2) is None
    reason = adm.try_acquire(0, 1)
    assert reason is not None and reason.startswith(OVERLOADED_PREFIX)
    assert "2/2" in reason
    assert adm.shed == 1 and adm.admitted == 2


def test_release_returns_tokens():
    adm = AdmissionController(max_inflight=1)
    assert adm.try_acquire(0) is None
    assert adm.try_acquire(0) is not None
    adm.release(0, 1)
    assert adm.try_acquire(0) is None


def test_shards_have_independent_budgets():
    adm = AdmissionController(max_inflight=1)
    assert adm.try_acquire(0) is None
    assert adm.try_acquire(1) is None  # shard 1 unaffected by shard 0
    assert adm.try_acquire(0) is not None


def test_max_inflight_zero_sheds_everything():
    adm = AdmissionController(max_inflight=0)
    assert adm.try_acquire(0) is not None
    assert adm.admitted == 0


def test_an_idle_shard_admits_at_once_after_sustained_shedding():
    adm = AdmissionController(max_inflight=2)
    for _ in range(100):  # a group that can never fit: 100 sheds
        assert adm.try_acquire(0, 3).startswith(OVERLOADED_PREFIX)
    assert adm.try_acquire(0, 2) is None  # idle shard: no cool-down
    for _ in range(100):  # a full shard: every shed names the bound
        assert adm.try_acquire(0) == "overloaded: shard 0 at 2/2 in-flight"
    adm.release(0, 2)
    assert adm.try_acquire(0, 2) is None  # drained: admitted at once


def test_every_shed_answers_overloaded_and_emits_query_shed():
    registry, sink = obs.MetricsRegistry(), obs.ListSink()
    with obs.use(registry=registry, events=sink):
        adm = AdmissionController(max_inflight=0)
        reasons = [adm.try_acquire(0) for _ in range(70)]
    assert all(r.startswith(OVERLOADED_PREFIX) for r in reasons)
    assert len(sink.of_type("query_shed")) == 70


def test_register_shard_precreates_zeroed_metrics(registry):
    adm = AdmissionController(max_inflight=4)
    adm.register_shard(0)
    snap = registry.snapshot()
    assert snap['net.inflight{shard="0"}']["value"] == 0
    assert snap['net.shed{shard="0"}']["value"] == 0


def test_shed_counter_and_inflight_gauge_track(registry):
    adm = AdmissionController(max_inflight=1)
    adm.register_shard(0)
    adm.try_acquire(0)
    adm.try_acquire(0)  # shed
    snap = registry.snapshot()
    assert snap['net.inflight{shard="0"}']["value"] == 1
    assert snap['net.shed{shard="0"}']["value"] == 1


def test_snapshot_is_json_ready():
    adm = AdmissionController(max_inflight=2)
    adm.try_acquire(0)
    adm.try_acquire(0, 2)  # shed
    adm.release(0, 1)
    snap = adm.snapshot()
    assert snap["max_inflight"] == 2
    assert snap["admitted"] == 1 and snap["shed"] == 2
    assert snap["inflight"] == {"0": 0}


def test_record_unavailable_counts_separately_and_skips_breaker(registry):
    adm = AdmissionController(max_inflight=4)
    adm.record_unavailable(0, 3, "unavailable: shard 0 is dead")
    assert adm.unavailable == 3 and adm.shed == 0
    # unavailability takes no tokens
    assert adm.try_acquire(0) is None
    snap = registry.snapshot()
    assert snap['net.unavailable{shard="0"}']["value"] == 3
    assert adm.snapshot()["unavailable"] == 3


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=-1)
