"""Unit tests for Algorithm 1 (adaptive-learning-rate SGD)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sgd import EPSILON, MAX_RELATIVE_STEP, STEP_FLOOR, AdaptiveSGD


def _fit_linear(target_slope: float, xs, start: float = 0.0) -> AdaptiveSGD:
    """Fit y = d*x with Algorithm 1 on noiseless observations."""
    sgd = AdaptiveSGD(value=start)
    for x in xs:
        y = target_slope * x
        grad = -2.0 * (y - sgd.value * x) * x
        hess = 2.0 * x * x
        sgd.update(grad, hess)
    return sgd


class TestInitialisation:
    def test_paper_init(self):
        sgd = AdaptiveSGD(value=1.0)
        assert EPSILON == 1e-8
        assert sgd.g_bar == 0.0
        assert sgd.h_bar == 1.0
        assert sgd.v_bar == 1e-8
        assert sgd.tau == pytest.approx((1 + 1e-8) * 2)
        assert sgd.updates == 0


class TestConvergence:
    def test_converges_to_slope(self):
        sgd = _fit_linear(3.5, xs=[1.0, 2.0, 1.5] * 20, start=1.0)
        assert sgd.value == pytest.approx(3.5, rel=0.05)

    def test_converges_from_far_away(self):
        sgd = _fit_linear(100.0, xs=[5.0, 2.0, 8.0] * 40, start=0.001)
        assert sgd.value == pytest.approx(100.0, rel=0.1)

    def test_converges_with_huge_counters(self):
        # frontier-sized observations: x up to 1e6
        sgd = _fit_linear(12.0, xs=[1e5, 5e5, 1e6] * 20, start=1.0)
        assert sgd.value == pytest.approx(12.0, rel=0.05)

    def test_noisy_convergence(self):
        rng = np.random.default_rng(0)
        sgd = AdaptiveSGD(value=0.5)
        d_true = 4.0
        for _ in range(400):
            x = rng.uniform(1, 100)
            y = d_true * x * rng.uniform(0.9, 1.1)
            grad = -2.0 * (y - sgd.value * x) * x
            sgd.update(grad, 2.0 * x * x)
        assert sgd.value == pytest.approx(d_true, rel=0.2)

    def test_adapts_to_changing_slope(self):
        """The paper's reason for online learning: the plant drifts."""
        sgd = _fit_linear(2.0, xs=[1.0, 3.0] * 25, start=1.0)
        assert sgd.value == pytest.approx(2.0, rel=0.1)
        # the true slope jumps
        for x in [1.0, 3.0] * 60:
            y = 9.0 * x
            sgd.update(-2.0 * (y - sgd.value * x) * x, 2.0 * x * x)
        assert sgd.value == pytest.approx(9.0, rel=0.15)


class TestRobustness:
    def test_zero_gradient_is_noop_on_value(self):
        sgd = AdaptiveSGD(value=2.0)
        sgd.update(0.0, 1.0)
        assert sgd.value == 2.0

    def test_step_clamp(self):
        sgd = AdaptiveSGD(value=1.0)
        # adversarially huge gradient: step must stay within 10x |value|
        sgd.update(grad=1e30, hess=1e-12)
        assert MAX_RELATIVE_STEP == 10.0
        assert sgd.value == 1.0 - MAX_RELATIVE_STEP

    def test_rejects_negative_hessian(self):
        sgd = AdaptiveSGD(value=1.0)
        with pytest.raises(ValueError):
            sgd.update(1.0, -1.0)

    def test_rejects_nan_hessian(self):
        sgd = AdaptiveSGD(value=1.0)
        with pytest.raises(ValueError):
            sgd.update(1.0, float("nan"))

    def test_tau_stays_at_least_one(self):
        sgd = AdaptiveSGD(value=1.0)
        for _ in range(50):
            sgd.update(1.0, 1.0)
            assert sgd.tau >= 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e12, max_value=1e12),
                st.floats(min_value=0, max_value=1e12),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_never_produces_nonfinite_value(self, observations):
        """Whatever (finite) gradients arrive, theta stays finite."""
        sgd = AdaptiveSGD(value=1.0)
        for grad, hess in observations:
            sgd.update(grad, hess)
            assert np.isfinite(sgd.value)
            assert np.isfinite(sgd.tau)

    def test_learning_rate_shrinks_under_noise(self):
        """vSGD property: conflicting gradients => small steps."""
        sgd = AdaptiveSGD(value=1.0)
        for i in range(100):
            sgd.update(1e6 if i % 2 == 0 else -1e6, 1.0)
        # alternating sign gradients keep g_bar ~ 0 => mu ~ 0
        assert sgd.last_mu < 1e-3


def _reference_update(sgd: AdaptiveSGD, grad: float, hess: float) -> float:
    """Algorithm 1 written line for line, with ``max``/``min`` calls.

    Kept as the executable reference for :meth:`AdaptiveSGD.update`,
    which reads each field once and spells ``max``/``min`` as
    conditionals: every field must come out bit-identical.
    """
    if not (hess >= 0):
        raise ValueError(f"second derivative must be >= 0, got {hess}")
    tinv = 1.0 / max(sgd.tau, 1.0)
    sgd.g_bar = (1.0 - tinv) * sgd.g_bar + tinv * grad
    sgd.v_bar = (1.0 - tinv) * sgd.v_bar + tinv * grad * grad
    sgd.h_bar = (1.0 - tinv) * sgd.h_bar + tinv * hess
    v = max(sgd.v_bar, EPSILON)
    h = max(sgd.h_bar, EPSILON)
    mu = (sgd.g_bar * sgd.g_bar) / (h * v)
    sgd.last_mu = mu
    ratio = min(1.0, (sgd.g_bar * sgd.g_bar) / v)
    sgd.tau = (1.0 - ratio) * sgd.tau + 1.0
    step = mu * grad
    cap = MAX_RELATIVE_STEP * max(abs(sgd.value), STEP_FLOOR)
    if step > cap:
        step = cap
    elif step < -cap:
        step = -cap
    sgd.value -= step
    sgd.updates += 1
    return sgd.value


_EDGE = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, float("inf"), float("-inf"), float("nan")])
_NUMBER = st.one_of(_EDGE, st.floats(allow_nan=False, allow_infinity=False))


class TestMatchesReference:
    @given(
        start=_NUMBER,
        steps=st.lists(st.tuples(_NUMBER, _NUMBER.map(abs)), min_size=1, max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_update_is_bit_identical(self, start, steps):
        fields = ("value", "g_bar", "v_bar", "h_bar", "tau", "last_mu")
        sgd, ref = AdaptiveSGD(value=start), AdaptiveSGD(value=start)
        for grad, hess in steps:
            try:
                want = _reference_update(ref, grad, hess)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    sgd.update(grad, hess)
                return
            assert float(sgd.update(grad, hess)).hex() == float(want).hex()
            for name in fields:
                assert float(getattr(sgd, name)).hex() == float(getattr(ref, name)).hex(), name
            assert sgd.updates == ref.updates
