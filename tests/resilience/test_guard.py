"""Unit tests for the controller divergence watchdog."""

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import DivergenceGuard, GuardConfig


def _guard(initial=1.0, **kw):
    return DivergenceGuard(initial, GuardConfig(**kw)) if kw else DivergenceGuard(initial)


class TestTripConditions:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_delta(self, bad):
        guard = _guard()
        assert guard.observe(bad, 100.0)
        assert guard.diverged
        assert "non-finite" in guard.reason

    def test_runaway_high(self):
        guard = _guard(initial=1.0)
        assert guard.observe(2e9, 100.0)
        assert "runaway" in guard.reason

    def test_runaway_low(self):
        guard = _guard(initial=1.0)
        assert guard.observe(1e-10, 100.0)
        assert "runaway" in guard.reason

    def test_violent_delta_oscillation(self):
        guard = _guard(window=8)
        trips = [guard.observe(d, 100.0) for d in [0.1, 10.0] * 4]
        assert trips[:-1] == [False] * 7
        assert trips[-1] is True
        assert "oscillating delta" in guard.reason

    def test_violent_x2_oscillation(self):
        guard = _guard(window=8)
        # delta perfectly steady, workload slamming between extremes
        trips = [guard.observe(1.0, x2) for x2 in [1.0, 1000.0] * 4]
        assert trips[-1] is True
        assert "X^(2)" in guard.reason


class TestNoFalsePositives:
    def test_settling_controller_is_tolerated(self):
        """Damped alternation — the healthy convergence shape — must pass."""
        guard = _guard(window=8)
        delta, deltas = 2.0, []
        for k in range(12):
            deltas.append(delta)
            delta = 1.3 + (delta - 1.3) * -0.5  # damped ringing around 1.3
        for d in deltas:
            assert not guard.observe(d, 100.0)
        assert not guard.diverged

    def test_steady_growth_is_tolerated(self):
        guard = _guard(window=8)
        for k in range(20):
            assert not guard.observe(1.0 + 0.1 * k, 100.0 + k)

    def test_constant_delta_is_tolerated(self):
        guard = _guard(window=8)
        for _ in range(20):
            assert not guard.observe(1.0, 100.0)


class TestLatching:
    def test_latches_and_freezes_last_good(self):
        guard = _guard()
        assert not guard.observe(1.5, 10.0)
        assert not guard.observe(2.0, 10.0)
        assert guard.observe(math.nan, 10.0)
        assert guard.last_good_delta == 2.0
        # latched: sane observations afterwards change nothing
        assert guard.observe(1.0, 10.0)
        assert guard.last_good_delta == 2.0

    def test_last_good_defaults_to_initial(self):
        guard = _guard(initial=3.0)
        assert guard.observe(math.nan, 10.0)
        assert guard.last_good_delta == 3.0


class TestValidation:
    def test_initial_delta_must_be_finite_positive(self):
        with pytest.raises(ValueError, match="initial_delta"):
            DivergenceGuard(0.0)
        with pytest.raises(ValueError, match="initial_delta"):
            DivergenceGuard(math.nan)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 2},
            {"max_ratio": 1.0},
            {"oscillation_ratio": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)


def _alternating_and_violent(values, ratio: float) -> bool:
    """Every consecutive diff flips sign and mean |diff| > ratio*mean|v|."""
    seq = list(values)
    diffs = [b - a for a, b in zip(seq, seq[1:])]
    if len(diffs) < 2 or any(d == 0.0 for d in diffs):
        return False
    if any((a > 0) == (b > 0) for a, b in zip(diffs, diffs[1:])):
        return False
    mean_level = sum(abs(v) for v in seq) / len(seq)
    if mean_level <= 0:
        return False
    mean_swing = sum(abs(d) for d in diffs) / len(diffs)
    return mean_swing > ratio * mean_level


class ReferenceGuard:
    """The watchdog with its window rebuilt into lists at every check.

    Kept as the executable reference for :class:`DivergenceGuard`,
    whose incremental sign test must trip at the same observation, for
    the same reason, with the same last good delta.
    """

    def __init__(self, initial_delta: float, config: GuardConfig):
        self.config = config
        self.initial_delta = initial_delta
        self.last_good_delta = initial_delta
        self.reason = None
        self.deltas = deque(maxlen=config.window)
        self.x2s = deque(maxlen=config.window)

    def observe(self, delta: float, x2: float) -> bool:
        cfg = self.config
        if self.reason is None:
            if not (math.isfinite(delta) and delta > 0):
                self.reason = f"non-finite delta {delta!r}"
            elif delta > self.initial_delta * cfg.max_ratio or (
                delta < self.initial_delta / cfg.max_ratio
            ):
                self.reason = (
                    f"runaway delta {delta:.3g} "
                    f"(initial {self.initial_delta:.3g}, ratio limit {cfg.max_ratio:g})"
                )
            else:
                self.deltas.append(float(delta))
                self.x2s.append(float(x2))
                if len(self.deltas) == cfg.window:
                    if _alternating_and_violent(self.deltas, cfg.oscillation_ratio):
                        self.reason = "oscillating delta (alternating slew-limit steps)"
                    elif _alternating_and_violent(self.x2s, cfg.oscillation_ratio):
                        self.reason = "oscillating advance workload X^(2)"
                if self.reason is None:
                    self.last_good_delta = float(delta)
        return self.reason is not None


# levels that repeat (zero diffs), alternate exactly, or swing at the
# threshold: 1 and 7 alternating over an even window give mean |diff| 6
# = 1.5 x mean level 4, and the neighbours of 7 land either side of it
_LEVELS = [1.0, 7.0, math.nextafter(7.0, math.inf), math.nextafter(7.0, 0.0), 0.5, 2.0, 1e3]
_level = st.sampled_from(_LEVELS)
_delta = st.one_of(
    _level,
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([math.nan, math.inf, 0.0, -1.0, 1e12, 1e-12]),
)
_x2 = st.one_of(_level, st.integers(min_value=0, max_value=2000).map(float))
_alternation = st.tuples(_level, _level, _level, _level, st.integers(2, 8)).map(
    lambda t: [(t[0], t[2]), (t[1], t[3])] * t[4]
)
# level walks whose values may repeat: zero diffs inside a zigzag
_zigzag = st.lists(st.tuples(_level, _level, st.integers(1, 2)), max_size=16).map(
    lambda steps: [(d, x2) for d, x2, n in steps for _ in range(n)]
)
_sequence = st.lists(
    st.one_of(st.tuples(_delta, _x2).map(lambda pair: [pair]), _alternation, _zigzag),
    max_size=8,
).map(lambda parts: [obs for part in parts for obs in part])


class TestMatchesListReference:
    @given(
        window=st.integers(min_value=3, max_value=12),
        ratio=st.sampled_from([1.5, 0.5, 3.0]),
        observations=_sequence,
    )
    @settings(max_examples=300, deadline=None)
    def test_trips_at_the_same_observation(self, window, ratio, observations):
        config = GuardConfig(window=window, oscillation_ratio=ratio)
        guard, ref = DivergenceGuard(1.0, config), ReferenceGuard(1.0, config)
        for delta, x2 in observations:
            assert guard.observe(delta, x2) == ref.observe(delta, x2)
            assert guard.reason == ref.reason
            assert guard.last_good_delta == ref.last_good_delta
        assert guard.diverged == (ref.reason is not None)

    def test_threshold_swing_is_not_a_trip(self):
        config = GuardConfig(window=8)
        over = math.nextafter(7.0, math.inf)
        at, above = DivergenceGuard(1.0, config), DivergenceGuard(1.0, config)
        assert not any(at.observe(d, 100.0) for d in [1.0, 7.0] * 4)
        assert [above.observe(d, 100.0) for d in [1.0, over] * 4][-1]
