"""Unit tests for the executor pool."""

import pytest

from repro import obs
from repro.graph.generators import grid_road_network, path_graph
from repro.service.pool import ExecutorPool
from repro.service.runners import run_algorithm
from repro.sssp.deadline import DeadlineExceeded
from repro.sssp.dijkstra import dijkstra


def _reached(graph, source):
    return dijkstra(graph, source).num_reached


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
        # the pool cuts no task short: kernels stop at their own deadline
        with pytest.raises(TypeError, match="timeout"):
            ExecutorPool({}, timeout=1.0)

    def test_graph_ids_sorted(self):
        pool = ExecutorPool({"b": path_graph(3), "a": path_graph(4)})
        assert pool.graph_ids == ["a", "b"]


class TestThreadMode:
    GRID = grid_road_network(8, 8, seed=1)

    @pytest.fixture
    def pool(self):
        pool = ExecutorPool({"grid": self.GRID}, max_workers=3)
        yield pool
        pool.close()

    def test_run_executes_on_named_graph(self, pool):
        assert pool.submit("grid", _reached, 0).result() <= self.GRID.num_nodes

    def test_closures_allowed(self, pool):
        seen = []
        pool.submit("grid", lambda g, s: seen.append((g, s)), 7).result()
        [(graph, source)] = seen
        assert graph is self.GRID and source == 7

    def test_unknown_graph_rejected(self, pool):
        with pytest.raises(KeyError, match="unknown graph"):
            pool.submit("nope", _reached, 0)

    def test_timeout_raises(self):
        """A task's kernel raises at its own deadline; the pool only waits."""
        # bellman-ford relaxes one hop of the path per round: seconds
        pool = ExecutorPool({"p": path_graph(20_000)}, max_workers=1)
        future = pool.submit("p", run_algorithm, 0, "bellman-ford", {}, 0.05)
        with pytest.raises(DeadlineExceeded, match="bellman-ford passed its deadline"):
            future.result(timeout=30.0)
        # the thread is free at once: the next task runs
        assert pool.submit("p", _reached, 19_999).result(timeout=30.0) == 1
        pool.close()

    def test_closed_pool_rejects_submission(self):
        pool = ExecutorPool({"p": path_graph(3)})
        pool.submit("p", _reached, 0).result()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit("p", _reached, 0)

    def test_pending_drains_to_zero(self, pool):
        futures = [pool.submit("grid", _reached, s) for s in (0, 1, 2)]
        pool.close()  # joins the threads, so every done-callback has run
        assert all(f.result() > 0 for f in futures)
        assert pool.pending == 0


class TestMetrics:
    def test_task_counter_and_queue_gauge(self):
        registry = obs.MetricsRegistry()
        with obs.use(registry=registry):
            pool = ExecutorPool({"p": path_graph(5)}, max_workers=1)
        for source in (0, 1):
            pool.submit("p", _reached, source).result()
        pool.close()
        assert registry.counter("service.pool.tasks").value == 2
        assert registry.gauge("service.pool.queue_depth").value == 0
