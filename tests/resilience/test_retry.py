"""Unit tests for the restart policy and result validation."""

import numpy as np
import pytest

from repro.resilience import CorruptResultError, RestartPolicy, validate_result
from repro.sssp.result import SSSPResult


def _result(dist, source=0):
    return SSSPResult(
        dist=np.asarray(dist, dtype=float),
        source=source,
        iterations=1,
        relaxations=1,
        algorithm="dijkstra",
    )


class TestValidateResult:
    def test_good_result_passes(self):
        validate_result(_result([0.0, 1.0, np.inf]), num_nodes=3, source=0)

    def test_not_a_result(self):
        with pytest.raises(CorruptResultError, match="not an SSSP result"):
            validate_result("garbage", num_nodes=3, source=0)

    def test_wrong_shape(self):
        with pytest.raises(CorruptResultError, match="shape"):
            validate_result(_result([0.0, 1.0]), num_nodes=3, source=0)

    def test_nonzero_source_distance(self):
        with pytest.raises(CorruptResultError, match="source"):
            validate_result(_result([0.5, 1.0, 2.0]), num_nodes=3, source=0)

    def test_negative_distance(self):
        with pytest.raises(CorruptResultError, match="negative"):
            validate_result(_result([0.0, -1.0, 2.0]), num_nodes=3, source=0)

    def test_nan_distance(self):
        with pytest.raises(CorruptResultError, match="NaN"):
            validate_result(_result([0.0, np.nan, 2.0]), num_nodes=3, source=0)


class TestRestartPolicy:
    def test_delay_schedule_matches_retry_backoff(self):
        policy = RestartPolicy(
            budget=4, base_delay=0.1, max_delay=10.0, multiplier=2.0,
            jitter=0.0,
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_delay_caps_at_max_delay(self):
        policy = RestartPolicy(budget=3, base_delay=10.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(2.0)  # default max_delay

    def test_budget_exhaustion(self):
        policy = RestartPolicy(budget=2)
        assert not policy.exhausted(0)
        assert not policy.exhausted(1)
        assert policy.exhausted(2)
        zero = RestartPolicy(budget=0)
        assert zero.exhausted(0)

    def test_max_recovery_bounds_the_whole_schedule(self):
        policy = RestartPolicy(
            budget=3, base_delay=0.1, max_delay=1.0, multiplier=2.0,
            jitter=0.0,
        )
        # 0.1 + 0.2 + 0.4, no jitter slack
        assert policy.max_recovery_seconds() == pytest.approx(0.7)
        jittered = RestartPolicy(
            budget=3, base_delay=0.1, max_delay=1.0, multiplier=2.0,
            jitter=0.5,
        )
        assert jittered.max_recovery_seconds() == pytest.approx(0.7 * 1.5)
        for restart in (1, 2, 3):
            assert jittered.delay(restart, key="shard:0") <= (
                jittered.max_recovery_seconds()
            )

    def test_deterministic_jitter_per_key(self):
        a = RestartPolicy(budget=3, jitter=0.3, seed=5)
        b = RestartPolicy(budget=3, jitter=0.3, seed=5)
        assert a.delay(1, key="shard:0") == b.delay(1, key="shard:0")
        assert a.delay(1, key="shard:0") != a.delay(1, key="shard:1")

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            RestartPolicy(budget=-1)

    def test_jitter_bounded_and_deterministic(self):
        policy = RestartPolicy(base_delay=0.1, jitter=0.25, seed=3)
        d1 = policy.delay(1, key="q")
        assert 0.075 <= d1 <= 0.125
        # same (seed, key, restart) => same delay, on any run or host
        assert RestartPolicy(base_delay=0.1, jitter=0.25, seed=3).delay(1, key="q") == d1

    def test_distinct_keys_desynchronise(self):
        policy = RestartPolicy(base_delay=0.1, jitter=0.25, seed=0)
        assert policy.delay(1, key="a") != policy.delay(1, key="b")

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="restart"):
            RestartPolicy().delay(0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"base_delay": -1.0}, {"multiplier": 0.5}, {"jitter": 1.0}],
        ids=["base-delay", "multiplier", "jitter"],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            RestartPolicy(**kwargs)
