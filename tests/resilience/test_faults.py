"""Unit tests for the chaos-drill helpers: the injected crash, the answer check."""

import math

from repro.core.controller import DeltaDecision, SetpointController
from repro.resilience import DivergentController


_PLAN_KW = dict(
    window_lower=0.0,
    window_split=1.0,
    far_total=100,
    far_partition_size=10,
    far_partition_upper=2.0,
)


class TestDivergentController:
    def _controller(self):
        return SetpointController(100.0, 1.0, initial_d=4.0)

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
    """The drill's two kinds kill real shards; one needs an exception class."""

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
