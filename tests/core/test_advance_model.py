"""Unit tests for the ADVANCE-MODEL."""

import numpy as np
import pytest

from repro.core.advance_model import D_MIN, AdvanceModel


class TestLearning:
    def test_learns_constant_degree(self):
        model = AdvanceModel(initial_d=1.0)
        for _ in range(50):
            model.observe(x1=100, x2=700)  # degree 7 plant
        assert model.d == pytest.approx(7.0, rel=0.05)

    def test_learns_from_varying_frontiers(self):
        rng = np.random.default_rng(1)
        model = AdvanceModel(initial_d=1.0)
        for _ in range(200):
            x1 = int(rng.integers(1, 10_000))
            model.observe(x1, int(3.2 * x1))
        assert model.d == pytest.approx(3.2, rel=0.05)

    def test_tracks_degree_drift(self):
        """Frontier degree changes over a run (hubs first, leaves later)."""
        model = AdvanceModel(initial_d=1.0)
        for _ in range(60):
            model.observe(50, 50 * 20)  # hub phase: degree 20
        assert model.d == pytest.approx(20, rel=0.1)
        for _ in range(120):
            model.observe(50, 50 * 2)  # tail phase: degree 2
        assert model.d == pytest.approx(2, rel=0.25)

    def test_empty_frontier_skipped(self):
        model = AdvanceModel(initial_d=5.0)
        model.observe(0, 0)
        assert model.updates == 0
        assert model.d == 5.0


class TestPredictions:
    def test_predict(self):
        model = AdvanceModel(initial_d=2.0)
        assert model.predict(10) == pytest.approx(20.0)

    def test_target_frontier_eq3(self):
        model = AdvanceModel(initial_d=4.0)
        assert model.target_frontier(1000.0) == pytest.approx(250.0)

    def test_target_frontier_rejects_bad_setpoint(self):
        model = AdvanceModel()
        with pytest.raises(ValueError):
            model.target_frontier(0.0)


class TestGuards:
    def test_d_floor(self):
        model = AdvanceModel(initial_d=1.0)
        # adversarial observations pushing d towards 0
        for _ in range(100):
            model.observe(1000, 0)
        assert model.d >= D_MIN == 1e-3

    def test_rejects_negative_counters(self):
        model = AdvanceModel()
        with pytest.raises(ValueError):
            model.observe(-1, 5)
        with pytest.raises(ValueError):
            model.observe(5, -1)

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            AdvanceModel(initial_d=0.0)
