"""Unit tests for the executor pool."""

import time

import pytest

from repro import obs
from repro.graph.generators import grid_road_network, path_graph
from repro.resilience import FaultPlan
from repro.service.pool import ExecutorPool, PoolTimeoutError
from repro.sssp.dijkstra import dijkstra


def _reached(graph, source):
    return dijkstra(graph, source).num_reached


def _sleep_then(graph, source, seconds):
    time.sleep(seconds)
    return source


def plan_with_pattern(kinds, pattern, rate=0.5):
    """The first seed whose fault schedule matches ``pattern`` exactly.

    Deterministic (FaultPlan.decide is a pure function of seed and
    index), so tests get e.g. "task 0 faulted, task 1 clean" without
    hard-coding magic seeds that silently rot.
    """
    for seed in range(10_000):
        plan = FaultPlan(rate=rate, seed=seed, kinds=kinds)
        if [plan.decide(i) is not None for i in range(len(pattern))] == pattern:
            return plan
    raise AssertionError(f"no seed matches pattern {pattern}")


class TestConstruction:
    def test_rejects_bad_mode(self):
        # threads are the only kind: there is no mode keyword to set
        with pytest.raises(TypeError, match="mode"):
            ExecutorPool({}, mode="coroutine")
        assert ExecutorPool({}).mode == "thread"

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExecutorPool({}, max_workers=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            ExecutorPool({}, timeout=0)

    def test_graph_ids_sorted(self):
        pool = ExecutorPool({"b": path_graph(3), "a": path_graph(4)})
        assert pool.graph_ids == ["a", "b"]


class TestThreadMode:
    @pytest.fixture
    def pool(self):
        with ExecutorPool(
            {"grid": grid_road_network(8, 8, seed=1)}, max_workers=3
        ) as p:
            yield p

    def test_run_executes_on_named_graph(self, pool):
        n = pool.graph("grid").num_nodes
        assert pool.run("grid", _reached, 0) <= n

    def test_closures_allowed(self, pool):
        seen = []
        pool.run("grid", lambda g, s: seen.append((g.num_nodes, s)), 7)
        assert seen == [(pool.graph("grid").num_nodes, 7)]

    def test_unknown_graph_rejected(self, pool):
        with pytest.raises(KeyError, match="unknown graph"):
            pool.submit("nope", _reached, 0)

    def test_map_ordered_preserves_input_order(self, pool):
        # delays are inversely ordered: later tasks finish first
        args = [(i, 0.03 - 0.01 * i) for i in range(3)]
        assert pool.map_ordered("grid", _sleep_then, args) == [0, 1, 2]

    def test_timeout_raises(self):
        with ExecutorPool(
            {"p": path_graph(3)}, max_workers=1, timeout=0.05
        ) as pool:
            with pytest.raises(PoolTimeoutError, match="exceeded"):
                pool.run("p", _sleep_then, 0, 0.5)

    def test_closed_pool_rejects_submission(self):
        pool = ExecutorPool({"p": path_graph(3)})
        pool.run("p", _reached, 0)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit("p", _reached, 0)

    def test_pending_drains_to_zero(self, pool):
        pool.map_ordered("grid", _reached, [(0,), (1,), (2,)])
        assert pool.pending == 0


class TestAbandonAndLostWorkers:
    def test_timeout_accounts_the_lost_thread_slot(self):
        """The satellite fix: a timed-out thread task cannot be killed,
        so its slot is counted lost until the straggler finishes."""
        registry = obs.MetricsRegistry()
        with obs.use(registry=registry):
            pool = ExecutorPool({"p": path_graph(3)}, max_workers=1, timeout=0.05)
        with pool:
            with pytest.raises(PoolTimeoutError):
                pool.run("p", _sleep_then, 0, 0.4)
            assert pool.lost_workers == 1
            assert registry.gauge("service.pool.lost_workers").value == 1
            deadline = time.time() + 2.0
            while pool.lost_workers and time.time() < deadline:
                time.sleep(0.05)
            # the straggler returned on its own: slot reclaimed
            assert pool.lost_workers == 0
            assert registry.gauge("service.pool.lost_workers").value == 0

    def test_abandon_cancels_queued_work_without_accounting(self):
        with ExecutorPool({"p": path_graph(3)}, max_workers=1) as pool:
            blocker = pool.submit("p", _sleep_then, 0, 0.2)
            queued = pool.submit("p", _sleep_then, 1, 0.0)
            assert pool.abandon(queued) is True  # cancelled before starting
            assert pool.lost_workers == 0
            assert blocker.result() == 0


class TestFaultInjection:
    def test_planned_fault_raises_in_thread_mode(self):
        plan = FaultPlan(rate=1.0, kinds=("hang",))
        with ExecutorPool(
            {"p": path_graph(3)}, fault_plan=plan, timeout=0.1
        ) as pool:
            with pytest.raises(PoolTimeoutError):
                pool.run("p", _reached, 0)

    def test_clean_indices_run_clean(self):
        plan = plan_with_pattern(("hang",), [False, True])
        with ExecutorPool(
            {"p": path_graph(3)}, fault_plan=plan, timeout=0.1
        ) as pool:
            assert pool.run("p", _reached, 0) == 3  # index 0 is clean
            with pytest.raises(PoolTimeoutError):
                pool.run("p", _reached, 0)  # index 1 is not


class TestMetrics:
    def test_task_counter_and_queue_gauge(self):
        registry = obs.MetricsRegistry()
        with obs.use(registry=registry):
            pool = ExecutorPool({"p": path_graph(5)}, max_workers=1)
        with pool:
            pool.map_ordered("p", _reached, [(0,), (1,)])
        assert registry.counter("service.pool.tasks").value == 2
        assert registry.gauge("service.pool.queue_depth").value == 0
