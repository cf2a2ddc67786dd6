"""Unit tests for the BISECT-MODEL."""

import numpy as np
import pytest

from repro.core.bisect_model import ALPHA_MIN, BOOTSTRAP_UPDATES, INITIAL_ALPHA, BisectModel


class TestLearning:
    def test_learns_linear_response(self):
        """Plant: widening delta by x pulls 50x vertices into the frontier."""
        model = BisectModel()
        rng = np.random.default_rng(0)
        for _ in range(400):
            x4 = int(rng.integers(10, 1000))
            dchange = float(rng.uniform(-5, 5))
            x1_next = max(0, int(x4 + 50.0 * dchange))
            model.observe(x4, dchange, x1_next)
        assert model.alpha == pytest.approx(50.0, rel=0.15)

    def test_zero_delta_change_skipped(self):
        model = BisectModel()
        model.observe(100, 0.0, 100)
        assert model.updates == 0

    def test_convergence_flag_after_five_updates(self):
        model = BisectModel()
        assert BOOTSTRAP_UPDATES == 5
        for i in range(5):
            assert not model.converged
            model.observe(10, 1.0, 12)
        assert model.converged

    def test_noisy_plant(self):
        model = BisectModel()
        rng = np.random.default_rng(3)
        for _ in range(300):
            x4 = int(rng.integers(100, 5000))
            dchange = float(rng.uniform(-10, 10))
            noise = rng.normal(0, 5)
            model.observe(x4, dchange, max(0, int(x4 + 8.0 * dchange + noise)))
        assert model.alpha == pytest.approx(8.0, rel=0.25)


class TestPredictionsAndGuards:
    def test_predict_eq4(self):
        model = BisectModel()
        assert INITIAL_ALPHA == 1.0
        assert model.predict(100, 10.0) == pytest.approx(110.0)
        model.observe(100, 10.0, 130)  # one step toward α = 3
        assert model.predict(100, 10.0) == pytest.approx(100.0 + model.alpha * 10.0)

    def test_alpha_floor(self):
        model = BisectModel()
        # plant that never responds drives alpha to the floor, not below
        for _ in range(100):
            model.observe(100, 10.0, 100)
        assert model.alpha >= ALPHA_MIN == 1e-6

    def test_rejects_negative_counters(self):
        model = BisectModel()
        with pytest.raises(ValueError):
            model.observe(-1, 1.0, 5)
        with pytest.raises(ValueError):
            model.observe(5, 1.0, -1)
