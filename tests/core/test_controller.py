"""Unit tests for the set-point controller (Eq. 6 + Eq. 8 bootstrap)."""

import math

import pytest

from repro.core.bisect_model import BOOTSTRAP_UPDATES
from repro.core.controller import DELTA_MIN, MAX_STEP_FRACTION, SetpointController


def _controller(setpoint=1000.0, initial_delta=1.0, **kw):
    return SetpointController(setpoint, initial_delta, **kw)


def _plan(ctrl, x4, lower=0.0, split=None, far_total=10_000,
          part_size=500, part_upper=100.0):
    return ctrl.plan(
        x4,
        window_lower=lower,
        window_split=split if split is not None else lower + ctrl.delta,
        far_total=far_total,
        far_partition_size=part_size,
        far_partition_upper=part_upper,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(setpoint=0.0),
            dict(setpoint=-1.0),
            dict(setpoint=-math.inf),
            dict(setpoint=10.0, sgd_mode="newton"),
            dict(setpoint=10.0, initial_delta=-1.0),
        ],
    )
    def test_rejected(self, kw):
        with pytest.raises(ValueError):
            _controller(**kw)

    def test_bad_initial_delta(self):
        with pytest.raises(ValueError):
            SetpointController(1.0, initial_delta=0.0)

    def test_tuning_constants(self):
        """The paper's update with a slew limit, a floor and its ~5-step bootstrap."""
        assert (DELTA_MIN, MAX_STEP_FRACTION, BOOTSTRAP_UPDATES) == (1e-9, 4.0, 5)


class TestDeltaDirection:
    def test_grows_when_under_target(self):
        ctrl = _controller(setpoint=1000.0, initial_delta=1.0)
        # d starts near 1 -> target frontier ~1000; x4 = 10 is far below
        decision = _plan(ctrl, x4=10)
        assert decision.delta_change > 0
        assert ctrl.delta > 1.0

    def test_shrinks_when_over_target(self):
        ctrl = _controller(setpoint=100.0, initial_delta=1.0)
        decision = _plan(ctrl, x4=100_000)
        assert decision.delta_change < 0
        assert ctrl.delta < 1.0

    def test_holds_when_far_queue_empty_and_under_target(self):
        ctrl = _controller(setpoint=1000.0, initial_delta=1.0)
        decision = _plan(ctrl, x4=10, far_total=0)
        assert decision.delta_change == 0.0
        assert ctrl.delta == 1.0

    def test_still_shrinks_with_empty_far_queue(self):
        # over target: postponing to far is always possible
        ctrl = _controller(setpoint=100.0, initial_delta=1.0)
        decision = _plan(ctrl, x4=100_000, far_total=0)
        assert decision.delta_change < 0


class TestSlewLimits:
    def test_growth_bounded_multiplicatively(self):
        ctrl = _controller(setpoint=1e9, initial_delta=1.0)
        _plan(ctrl, x4=0, part_size=1, part_upper=1e12)
        assert ctrl.delta <= 1.0 + MAX_STEP_FRACTION == 5.0

    def test_shrink_bounded_multiplicatively(self):
        ctrl = _controller(setpoint=1.0, initial_delta=1.0)
        _plan(ctrl, x4=10**9)
        assert ctrl.delta >= 1.0 / (1.0 + MAX_STEP_FRACTION) == 1.0 / 5.0

    def test_delta_never_nonpositive(self):
        ctrl = _controller(setpoint=1.0, initial_delta=1.0)
        for _ in range(200):
            _plan(ctrl, x4=10**9)
        assert ctrl.delta >= DELTA_MIN > 0


class TestBootstrap:
    def test_bootstrap_used_before_convergence(self):
        ctrl = _controller()
        decision = _plan(ctrl, x4=10)
        assert decision.bootstrapped

    def test_learned_alpha_used_after_convergence(self):
        ctrl = _controller()
        # feed the bisect model one label short of convergence...
        for i in range(BOOTSTRAP_UPDATES):
            ctrl.begin_iteration(x1=100 + i)
            assert _plan(ctrl, x4=100).bootstrapped
        assert not ctrl.bisect_model.converged
        # ...then the last one
        ctrl.begin_iteration(x1=100 + BOOTSTRAP_UPDATES)
        assert ctrl.bisect_model.converged
        decision = _plan(ctrl, x4=10)
        assert not decision.bootstrapped

    def test_bootstrap_ablation_trusts_the_model_at_once(self):
        ctrl = _controller(use_bootstrap=False)
        assert not _plan(ctrl, x4=10).bootstrapped

    def test_bootstrap_shrink_case_eq8(self):
        """x4 >= target: alpha = x4 / window width."""
        ctrl = _controller(setpoint=10.0, initial_delta=2.0)
        decision = _plan(ctrl, x4=1000, lower=0.0, split=2.0)
        assert decision.alpha_used == pytest.approx(1000 / 2.0)

    def test_bootstrap_grow_case_eq8(self):
        """x4 < target: alpha = S_i / (B_i - split)."""
        ctrl = _controller(setpoint=100_000.0, initial_delta=2.0)
        decision = _plan(
            ctrl, x4=1, lower=0.0, split=2.0, part_size=60, part_upper=5.0
        )
        assert decision.alpha_used == pytest.approx(60 / 3.0)

    def test_bootstrap_grow_case_infinite_partition(self):
        ctrl = _controller(setpoint=100_000.0, initial_delta=2.0)
        decision = _plan(
            ctrl, x4=4, part_size=60, part_upper=math.inf
        )
        assert decision.alpha_used > 0  # falls back, never divides by inf


class TestModelFeeding:
    def test_pending_observation_flow(self):
        ctrl = _controller()
        _plan(ctrl, x4=100)  # creates a pending (x4, dchange) sample
        before = ctrl.bisect_model.updates
        ctrl.begin_iteration(x1=150)  # delivers the label
        assert ctrl.bisect_model.updates == before + 1

    def test_invalidate_pending(self):
        ctrl = _controller()
        _plan(ctrl, x4=100)
        ctrl.invalidate_pending()
        before = ctrl.bisect_model.updates
        ctrl.begin_iteration(x1=150)
        assert ctrl.bisect_model.updates == before

    def test_advance_model_observes(self):
        ctrl = _controller()
        ctrl.observe_advance(10, 70)
        assert ctrl.advance_model.updates == 1

    def test_overhead_clock_increases(self):
        ctrl = _controller()
        ctrl.begin_iteration(1)
        ctrl.observe_advance(1, 5)
        _plan(ctrl, x4=1)
        assert ctrl.seconds > 0
        assert ctrl.decisions == 1


class TestEq6:
    def test_step_is_eq6_verbatim(self):
        """Inside the slew limit, Δδ = (P/d − X^(4)) / α exactly."""
        ctrl = _controller(setpoint=1_000.0, initial_delta=1.0)
        decision = _plan(ctrl, x4=990, part_size=500, part_upper=100.0)
        target = ctrl.advance_model.target_frontier(1_000.0)
        assert decision.target_frontier == target
        assert 0 < decision.delta_change < MAX_STEP_FRACTION
        assert decision.delta == ctrl.delta == 1.0 + (target - 990) / decision.alpha_used
