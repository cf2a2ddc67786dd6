"""Unit tests for the iteration-stepped adaptive SSSP driver."""

import numpy as np
import pytest

from repro.core import AdaptiveParams, adaptive_sssp
from repro.core.stepwise import AdaptiveNearFarStepper
from repro.sssp.dijkstra import dijkstra
from repro.sssp.result import assert_distances_close


def _params(**kw):
    kw.setdefault("setpoint", 300.0)
    return AdaptiveParams(**kw)


class TestStepping:
    def test_step_until_done(self, small_grid):
        stepper = AdaptiveNearFarStepper(small_grid, 0, _params())
        records = []
        while not stepper.done:
            rec = stepper.step()
            assert rec is not None
            records.append(rec)
        assert stepper.step() is None  # idempotent once done
        assert len(records) == stepper.iterations
        assert [r.k for r in records] == list(range(len(records)))

    def test_stepwise_matches_one_shot(self, small_grid):
        stepper = AdaptiveNearFarStepper(small_grid, 0, _params())
        while not stepper.done:
            stepper.step()
        one_shot, _, _ = adaptive_sssp(small_grid, 0, _params())
        assert_distances_close(stepper.result(), one_shot)
        assert stepper.result().iterations == one_shot.iterations

    def test_exactness(self, small_rmat):
        stepper = AdaptiveNearFarStepper(small_rmat, 0, _params())
        result = stepper.run()
        assert_distances_close(dijkstra(small_rmat, 0), result)

    def test_run_appends_to_trace(self, small_grid):
        from repro.instrument.trace import RunTrace

        stepper = AdaptiveNearFarStepper(small_grid, 0, _params())
        trace = RunTrace(algorithm="x", graph_name="g", source=0)
        stepper.run(trace)
        assert len(trace) == stepper.iterations

    def test_partial_result_is_inspectable(self, small_grid):
        stepper = AdaptiveNearFarStepper(small_grid, 0, _params())
        stepper.step()
        partial = stepper.result()
        assert partial.iterations == 1
        assert partial.dist[0] == 0.0


class TestRetargeting:
    def test_setpoint_mutable_mid_run(self, small_grid):
        stepper = AdaptiveNearFarStepper(small_grid, 0, _params(setpoint=100.0))
        stepper.step()
        stepper.setpoint = 900.0
        assert stepper.controller.setpoint == 900.0
        result = stepper.run()
        assert_distances_close(dijkstra(small_grid, 0), result)
        assert result.extra["final_setpoint"] == 900.0

    def test_setpoint_rejects_nonpositive(self, small_grid):
        stepper = AdaptiveNearFarStepper(small_grid, 0, _params())
        with pytest.raises(ValueError):
            stepper.setpoint = 0.0

    def test_retargeting_changes_parallelism(self):
        """Raise P mid-run: the back half runs with more parallelism
        than the same back half at the original P."""
        from repro.graph.generators import grid_road_network

        g = grid_road_network(60, 60, seed=8)

        def run(switch_to=None):
            stepper = AdaptiveNearFarStepper(g, 0, _params(setpoint=150.0))
            pars = []
            while not stepper.done:
                if switch_to and stepper.iterations == 40:
                    stepper.setpoint = switch_to
                rec = stepper.step()
                pars.append(rec.x2)
            return np.asarray(pars, dtype=float)

        steady = run(switch_to=None)
        boosted = run(switch_to=1500.0)
        assert boosted[60:120].mean() > 2.0 * steady[60:120].mean()


class TestZeroWeights:
    @pytest.mark.parametrize("use_partitions", [True, False])
    def test_all_zero_weights(self, small_grid, use_partitions):
        """An all-zero graph has average weight 0: the far queue's first
        boundary is floored like :func:`suggest_delta`, not rejected."""
        graph = small_grid.with_weights(np.zeros_like(small_grid.weights))
        result, _, _ = adaptive_sssp(
            graph, 0, _params(use_partitions=use_partitions)
        )
        assert_distances_close(dijkstra(graph, 0), result)


class TestFlatQueue:
    def test_flat_queue_is_one_unrefreshed_partition(self, small_grid):
        """``use_partitions=False`` runs on one partition covering [0, inf)
        and books no Eq. 7 refresh; the partitioned queue refreshes."""
        from repro import obs
        from repro.core.partitions import FarQueuePartitions

        refreshes = {}
        for use_partitions in (True, False):
            reg = obs.MetricsRegistry()
            with obs.use(registry=reg):
                stepper = AdaptiveNearFarStepper(
                    small_grid, 0, _params(use_partitions=use_partitions)
                )
                result = stepper.run()
            assert type(stepper.partitions) is FarQueuePartitions
            assert_distances_close(dijkstra(small_grid, 0), result)
            snap = reg.snapshot()
            assert snap["farq.inserted"]["value"] > 0
            refreshes[use_partitions] = snap["farq.refreshes"]["value"]
            if not use_partitions:
                assert stepper.partitions.boundaries == [np.inf, np.inf]
        assert refreshes[False] == 0 < refreshes[True]


class TestValidation:
    def test_bad_source(self, small_grid):
        with pytest.raises(ValueError, match="out of range"):
            AdaptiveNearFarStepper(small_grid, -1, _params())

    def test_negative_weights(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(2, [0], [1], [-1.0])
        with pytest.raises(ValueError, match="non-negative"):
            AdaptiveNearFarStepper(g, 0, _params())
