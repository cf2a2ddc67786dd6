"""Unit tests for the deterministic fault-injection harness."""

import math

import pytest

from repro.core.controller import ControllerConfig, DeltaDecision, SetpointController
from repro.resilience import (
    FAULT_KINDS,
    DivergentController,
    FaultPlan,
    FaultSpec,
    apply_fault,
)


class TestFaultPlan:
    def test_decide_is_deterministic(self):
        a = FaultPlan(rate=0.5, seed=42)
        b = FaultPlan(rate=0.5, seed=42)
        assert [a.decide(i) for i in range(50)] == [b.decide(i) for i in range(50)]

    def test_decide_is_index_local(self):
        """Calling decide out of order changes nothing — no hidden RNG state."""
        plan = FaultPlan(rate=0.5, seed=7)
        forward = [plan.decide(i) for i in range(20)]
        backward = [plan.decide(i) for i in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_seed_changes_the_schedule(self):
        a = FaultPlan(rate=0.5, seed=1)
        b = FaultPlan(rate=0.5, seed=2)
        assert [a.decide(i) for i in range(50)] != [b.decide(i) for i in range(50)]

    def test_rate_extremes(self):
        assert FaultPlan(rate=0.0).count(100) == 0
        assert FaultPlan(rate=1.0).count(100) == 100

    def test_count_roughly_tracks_rate(self):
        assert 10 <= FaultPlan(rate=0.3, seed=0).count(100) <= 50

    def test_kinds_drawn_from_pool(self):
        plan = FaultPlan(rate=1.0, kinds=("hang",))
        assert all(plan.decide(i).kind == "hang" for i in range(10))

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(rate=rate)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(rate=0.5, kinds=("segfault",))

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError, match="kinds"):
            FaultPlan(rate=0.5, kinds=())

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultSpec(kind="hang", hang_seconds=-1.0)


class TestApplyFault:
    def test_none_runs_clean(self):
        assert apply_fault(None, lambda: 41 + 1) == 42

    def test_hang_delays_then_runs(self):
        out = apply_fault(FaultSpec("hang", hang_seconds=0.0), lambda: "done")
        assert out == "done"


_PLAN_KW = dict(
    window_lower=0.0,
    window_split=1.0,
    far_total=100,
    far_partition_size=10,
    far_partition_upper=2.0,
)


class TestDivergentController:
    def _controller(self):
        return SetpointController(
            ControllerConfig(setpoint=100.0), 1.0, initial_d=4.0
        )

    def test_sane_until_after(self):
        inner = self._controller()
        proxy = DivergentController(inner, after=2)
        for k in range(2):
            proxy.begin_iteration(10)
            proxy.observe_advance(10, 40)
            decision = proxy.plan(10, **_PLAN_KW)
            assert math.isfinite(decision.delta)

    def test_poisons_after_n_decisions(self):
        proxy = DivergentController(self._controller(), after=1)
        proxy.begin_iteration(10)
        proxy.observe_advance(10, 40)
        assert math.isfinite(proxy.plan(10, **_PLAN_KW).delta)
        poisoned = proxy.plan(10, **_PLAN_KW)
        assert isinstance(poisoned, DeltaDecision)
        assert math.isnan(poisoned.delta)

    def test_custom_schedule(self):
        import itertools

        proxy = DivergentController(
            self._controller(), after=0, schedule=itertools.cycle([1e-12, 1e12])
        )
        assert proxy.plan(10, **_PLAN_KW).delta == 1e-12
        assert proxy.plan(10, **_PLAN_KW).delta == 1e12

    def test_delegates_everything_else(self):
        inner = self._controller()
        proxy = DivergentController(inner, after=3)
        assert proxy.setpoint == inner.setpoint
        assert proxy.delta == inner.delta


class TestNetFaultKinds:
    def test_net_kinds_are_registered_but_distinct(self):
        from repro.resilience import (
            ALL_FAULT_KINDS,
            NET_FAULT_KINDS,
            WORKER_FAULT_KINDS,
        )

        assert set(NET_FAULT_KINDS) == {
            "shard_crash", "slow_shard", "conn_drop",
            "worker_kill", "worker_oom", "frame_corrupt",
        }
        assert set(WORKER_FAULT_KINDS) == {
            "worker_kill", "worker_oom", "frame_corrupt",
        }
        assert set(WORKER_FAULT_KINDS) <= set(NET_FAULT_KINDS)
        assert set(NET_FAULT_KINDS) <= set(ALL_FAULT_KINDS)
        assert not set(NET_FAULT_KINDS) & set(FAULT_KINDS)

    def test_spec_accepts_net_kinds(self):
        spec = FaultSpec(kind="shard_crash")
        assert spec.kind == "shard_crash"

    def test_apply_fault_rejects_net_kinds(self):
        """Pool tasks never execute a network-tier fault."""
        for kind in ("shard_crash", "slow_shard",
                     "conn_drop", "worker_kill", "worker_oom",
                     "frame_corrupt"):
            with pytest.raises(ValueError, match="network-tier"):
                apply_fault(FaultSpec(kind=kind), lambda: 1)

    def test_injected_shard_crash_escapes_except_exception(self):
        from repro.resilience import InjectedShardCrash

        assert issubclass(InjectedShardCrash, BaseException)
        assert not issubclass(InjectedShardCrash, Exception)


class TestVerifyAnswers:
    """verify_answers: the Dijkstra check both chaos drills share."""

    def test_counts_and_samples_a_wrong_answer(self, small_path):
        from repro.resilience import verify_answers
        from repro.service import GraphCatalog
        from repro.sssp import dijkstra

        catalog = GraphCatalog()
        catalog.register("path", small_path)
        finite = dijkstra(small_path, 0).finite_distances()
        right = {
            "graph": "path",
            "source": 0,
            "reached": int(finite.size),
            "max_dist": float(finite.max()),
            "mean_dist": float(finite.mean()),
        }
        wrong = dict(right, max_dist=right["max_dist"] + 1.0)
        report = verify_answers(catalog, [right, wrong])
        assert report["checked"] == 2
        assert report["unique_sources"] == 1
        assert report["mismatches"] == 1
        (sample,) = report["mismatch_samples"]
        assert sample["got"] == wrong
        assert sample["want"]["max_dist"] == right["max_dist"]


class TestScheduledFaultPlan:
    def _plan(self, **kw):
        from repro.resilience import ScheduledFaultPlan

        return ScheduledFaultPlan(**kw)

    def test_fires_exactly_at_scheduled_indices(self):
        plan = self._plan(at=(2, 5), kind="shard_crash")
        decisions = [plan.decide(i) for i in range(8)]
        hits = [i for i, d in enumerate(decisions) if d is not None]
        assert hits == [2, 5]
        assert all(decisions[i].kind == "shard_crash" for i in hits)

    def test_count_honours_task_bound(self):
        plan = self._plan(at=(1, 3, 99))
        assert plan.count(4) == 2
        assert plan.count(100) == 3

    def test_carries_tuning_knobs(self):
        plan = self._plan(
            at=(0,), kind="hang", hang_seconds=1.5,
        )
        spec = plan.decide(0)
        assert spec.hang_seconds == 1.5
        slow = self._plan(at=(0,), kind="slow_shard", slow_seconds=0.4)
        assert slow.decide(0).slow_seconds == 0.4

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            self._plan(at=(0,), kind="segfault")
        with pytest.raises(ValueError):
            self._plan(at=(-1,))


class TestPlanWireFormat:
    """plan_to_wire / plan_from_wire: fault plans over the frame socket."""

    def test_scheduled_plan_round_trips(self):
        from repro.resilience import (
            ScheduledFaultPlan,
            plan_from_wire,
            plan_to_wire,
        )

        plan = ScheduledFaultPlan(
            at=(2, 5), kind="worker_kill", hang_seconds=1.5, slow_seconds=0.2
        )
        wire = plan_to_wire(plan)
        assert wire["type"] == "scheduled"
        import json

        json.dumps(wire)  # must be JSON-safe as-is
        assert plan_from_wire(wire) == plan

    def test_seeded_plan_round_trips(self):
        from repro.resilience import FaultPlan, plan_from_wire, plan_to_wire

        plan = FaultPlan(rate=0.25, seed=11, kinds=("hang",))
        wire = plan_to_wire(plan)
        assert wire["type"] == "seeded"
        assert plan_from_wire(wire) == plan

    def test_none_round_trips(self):
        from repro.resilience import plan_from_wire, plan_to_wire

        assert plan_to_wire(None) is None
        assert plan_from_wire(None) is None

    def test_unknown_shapes_rejected(self):
        from repro.resilience import plan_from_wire, plan_to_wire

        with pytest.raises(TypeError):
            plan_to_wire(object())
        with pytest.raises(ValueError):
            plan_from_wire({"type": "astral"})
