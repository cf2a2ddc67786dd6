"""Tests for trace serialisation."""

import json

import numpy as np
import pytest

from repro.core import AdaptiveParams, adaptive_sssp
from repro.gpusim.device import JETSON_TK1
from repro.gpusim.dvfs import FixedDVFS
from repro.gpusim.executor import simulate_run
from repro.instrument.serialize import (
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.instrument.trace import IterationRecord, RunTrace
from repro.sssp.nearfar import nearfar_sssp


class TestRoundTrip:
    def test_baseline_trace(self, small_grid, tmp_path):
        _, trace = nearfar_sssp(small_grid, 0)
        path = save_trace(trace, tmp_path / "t.json")
        back = load_trace(path)
        assert back.algorithm == trace.algorithm
        assert back.graph_name == trace.graph_name
        assert len(back) == len(trace)
        assert np.array_equal(back.parallelism, trace.parallelism)
        assert np.array_equal(back.deltas, trace.deltas)

    def test_adaptive_trace_with_controller_columns(self, small_grid, tmp_path):
        _, trace, _ = adaptive_sssp(small_grid, 0, AdaptiveParams(setpoint=200.0))
        back = load_trace(save_trace(trace, tmp_path / "t.json"))
        assert np.allclose(back.column("d_estimate"), trace.column("d_estimate"))
        assert np.allclose(
            back.column("alpha_estimate"), trace.column("alpha_estimate")
        )

    def test_nan_columns_survive(self, tmp_path):
        trace = RunTrace(algorithm="x", graph_name="g", source=0)
        trace.append(
            IterationRecord(
                k=0, x1=1, x2=2, x3=1, x4=1, delta=1.0, split=1.0, far_size=0
            )
        )
        back = load_trace(save_trace(trace, tmp_path / "t.json"))
        assert np.isnan(back.records[0].d_estimate)

    def test_replay_identical_simulation(self, small_grid, tmp_path):
        """The whole point: a reloaded trace costs identically."""
        _, trace = nearfar_sssp(small_grid, 0)
        back = load_trace(save_trace(trace, tmp_path / "t.json"))
        policy = FixedDVFS.max_performance(JETSON_TK1)
        a = simulate_run(trace, JETSON_TK1, policy)
        b = simulate_run(back, JETSON_TK1, policy)
        assert a.total_seconds == pytest.approx(b.total_seconds)
        assert a.total_energy_j == pytest.approx(b.total_energy_j)

    def test_file_is_plain_json(self, small_grid, tmp_path):
        _, trace = nearfar_sssp(small_grid, 0)
        path = save_trace(trace, tmp_path / "t.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == 2
        assert isinstance(payload["records"], list)

    def test_explicit_nan_controller_fields(self, tmp_path):
        """NaN d/alpha estimates survive the JSON round trip as NaN."""
        trace = RunTrace(algorithm="x", graph_name="g", source=0)
        trace.append(
            IterationRecord(
                k=0,
                x1=1,
                x2=2,
                x3=1,
                x4=1,
                delta=1.0,
                split=1.0,
                far_size=0,
                d_estimate=float("nan"),
                alpha_estimate=float("nan"),
            )
        )
        path = save_trace(trace, tmp_path / "t.json")
        # NaN is not valid JSON: it must be encoded as null on disk
        assert "NaN" not in path.read_text()
        back = load_trace(path)
        assert np.isnan(back.records[0].d_estimate)
        assert np.isnan(back.records[0].alpha_estimate)

    def test_mixed_nan_and_finite_columns(self, tmp_path):
        trace = RunTrace(algorithm="x", graph_name="g", source=0)
        for k, d in enumerate([float("nan"), 2.5, float("nan")]):
            trace.append(
                IterationRecord(
                    k=k,
                    x1=1,
                    x2=2,
                    x3=1,
                    x4=1,
                    delta=1.0,
                    split=1.0,
                    far_size=0,
                    d_estimate=d,
                    alpha_estimate=d,
                )
            )
        back = trace_from_dict(trace_to_dict(trace))
        col = back.column("d_estimate")
        assert np.isnan(col[0]) and np.isnan(col[2])
        assert col[1] == 2.5

    def test_meta_round_trip(self, small_grid, tmp_path):
        from repro.core import AdaptiveParams, adaptive_sssp

        _, trace, _ = adaptive_sssp(small_grid, 0, AdaptiveParams(setpoint=200.0))
        back = load_trace(save_trace(trace, tmp_path / "t.json"))
        assert back.meta["setpoint"] == 200.0
        assert back.meta["initial_delta"] == trace.meta["initial_delta"]

    def test_v1_payload_still_loads(self, small_grid):
        """Pre-meta traces (schema 1) load with an empty meta dict."""
        _, trace = nearfar_sssp(small_grid, 0)
        payload = trace_to_dict(trace)
        payload["schema"] = 1
        del payload["meta"]
        back = trace_from_dict(payload)
        assert back.meta == {}
        assert len(back) == len(trace)


class TestControllerWallClock:
    def test_file_keeps_the_run_total_not_the_rows(self, small_grid, tmp_path):
        _, trace, _ = adaptive_sssp(small_grid, 0, AdaptiveParams(setpoint=200.0))
        assert trace.controller_seconds > 0
        payload = json.loads(save_trace(trace, tmp_path / "t.json").read_text())
        assert {rec["controller_seconds"] for rec in payload["records"]} == {0.0}
        assert payload["meta"]["controller_seconds"] == trace.controller_seconds
        back = load_trace(tmp_path / "t.json")
        assert back.controller_seconds == trace.controller_seconds
        # a reloaded trace saves to the same bytes
        again = save_trace(back, tmp_path / "again.json")
        assert again.read_bytes() == (tmp_path / "t.json").read_bytes()

    def test_file_with_per_record_seconds_still_loads(self, small_grid):
        _, trace, _ = adaptive_sssp(small_grid, 0, AdaptiveParams(setpoint=200.0))
        payload = trace_to_dict(trace)
        del payload["meta"]["controller_seconds"]
        for rec, row in zip(payload["records"], trace.rows):
            rec["controller_seconds"] = row[-1]
        back = trace_from_dict(payload)
        assert back.controller_seconds == pytest.approx(trace.controller_seconds)

    def test_fixed_delta_file_has_no_total(self, small_grid):
        _, trace = nearfar_sssp(small_grid, 0)
        assert "controller_seconds" not in trace_to_dict(trace)["meta"]


class TestValidation:
    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            trace_from_dict({"schema": 99})

    def test_unknown_fields_rejected(self, small_grid):
        _, trace = nearfar_sssp(small_grid, 0)
        payload = trace_to_dict(trace)
        payload["records"][0]["bogus"] = 1
        with pytest.raises(ValueError, match="unknown record fields"):
            trace_from_dict(payload)
