"""Integration tests for the query engine: cache, dedup, obs, errors."""

import re
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.graph.generators import path_graph
from repro.service import GraphCatalog, QueryEngine, SSSPQuery
from repro.service import engine as engine_module
from repro.sssp.dijkstra import dijkstra


class TestBasicQueries:
    def test_all_algorithms_answer(self, catalog):
        with QueryEngine(catalog) as engine:
            for algorithm, params in [
                ("dijkstra", {}),
                ("bellman-ford", {}),
                ("delta-stepping", {"delta": 2.0}),
                ("nearfar", {}),
                ("adaptive", {"setpoint": 100.0}),
                ("kla", {"k": 2}),
            ]:
                response = engine.run(
                    SSSPQuery("grid", 0, algorithm, params)
                )
                assert response.ok, response.error
                assert response.reached > 1

    def test_summary_matches_direct_run(self, catalog, grid):
        direct = dijkstra(grid, 3)
        with QueryEngine(catalog) as engine:
            response = engine.run(SSSPQuery("grid", 3, "dijkstra"))
        assert response.reached == direct.num_reached
        assert response.relaxations == direct.relaxations
        finite = direct.finite_distances()
        assert response.max_dist == pytest.approx(float(finite.max()))
        assert response.fingerprint == grid.fingerprint()


class TestCaching:
    def test_repeat_is_a_hit(self, catalog):
        with QueryEngine(catalog) as engine:
            first = engine.run(SSSPQuery("grid", 0, "dijkstra"))
            second = engine.run(SSSPQuery("grid", 0, "dijkstra"))
        assert first.cache == "miss"
        assert second.cache == "hit"
        assert second.reached == first.reached

    def test_different_params_miss(self, catalog):
        with QueryEngine(catalog) as engine:
            a = engine.run(SSSPQuery("grid", 0, "nearfar", {"delta": 1.0}))
            b = engine.run(SSSPQuery("grid", 0, "nearfar", {"delta": 2.0}))
        assert a.cache == "miss" and b.cache == "miss"

    def test_changed_weights_never_hit(self, grid):
        """The satellite guarantee: new weights => new fingerprint => miss."""
        catalog = GraphCatalog()
        catalog.register("g", grid)
        with QueryEngine(catalog) as engine:
            first = engine.run(SSSPQuery("g", 0, "dijkstra"))
            assert first.cache == "miss"

        doubled = grid.with_weights(grid.weights * 2.0)
        catalog2 = GraphCatalog()
        catalog2.register("g", doubled)
        with QueryEngine(catalog2, cache_size=128) as engine2:
            # splice the old engine's cache in, simulating a long-lived
            # service whose graph data was re-registered
            engine2.cache = engine.cache
            response = engine2.run(SSSPQuery("g", 0, "dijkstra"))
        assert response.cache == "miss"
        assert response.fingerprint != first.fingerprint
        assert response.max_dist == pytest.approx(2.0 * first.max_dist)

    def test_cache_disabled(self, catalog):
        with QueryEngine(catalog, cache_size=0) as engine:
            engine.run(SSSPQuery("grid", 0, "dijkstra"))
            again = engine.run(SSSPQuery("grid", 0, "dijkstra"))
        assert again.cache == "miss"

    def test_eviction_under_pressure(self, catalog):
        with QueryEngine(catalog, cache_size=2) as engine:
            for source in (0, 1, 2, 3):
                engine.run(SSSPQuery("grid", source, "dijkstra"))
            stats = engine.cache.stats()
        assert stats["evictions"] == 2
        assert stats["size"] == 2


class TestDedup:
    def test_identical_in_flight_coalesce(self, catalog):
        queries = [
            SSSPQuery("grid", 5, "dijkstra"),
            SSSPQuery("grid", 5, "dijkstra"),
            SSSPQuery("grid", 5, "dijkstra"),
            SSSPQuery("grid", 6, "dijkstra"),
        ]
        with QueryEngine(catalog, max_workers=2) as engine:
            responses = engine.run_many(queries)
        assert [r.cache for r in responses] == [
            "miss",
            "coalesced",
            "coalesced",
            "miss",
        ]
        assert responses[0].reached == responses[1].reached
        # the duplicate never executed: one cache insert per distinct key
        assert engine.cache.stats()["misses"] == 4  # one probe per query

    def test_responses_in_request_order(self, catalog):
        queries = [SSSPQuery("grid", s, "dijkstra") for s in (9, 1, 5)]
        with QueryEngine(catalog, max_workers=3) as engine:
            responses = engine.run_many(queries)
        assert [r.query.source for r in responses] == [9, 1, 5]


class TestErrors:
    def test_unknown_graph(self, catalog):
        with QueryEngine(catalog) as engine:
            response = engine.run(SSSPQuery("nope", 0))
        assert not response.ok
        assert "unknown graph" in response.error

    def test_unknown_algorithm(self, catalog):
        with QueryEngine(catalog) as engine:
            response = engine.run(SSSPQuery("grid", 0, "a-star"))
        assert not response.ok
        assert "unknown algorithm" in response.error

    def test_bad_params(self, catalog):
        with QueryEngine(catalog) as engine:
            response = engine.run(SSSPQuery("grid", 0, "dijkstra", {"delta": 1}))
        assert not response.ok
        assert "does not accept" in response.error

    def test_unknown_backend_param_rejected_per_query(self, catalog):
        """A nearfar ``backend`` param is an unknown key, answered in band."""
        with QueryEngine(catalog) as engine:
            response = engine.run(
                SSSPQuery("grid", 0, "nearfar", {"backend": "numpy"})
            )
        assert not response.ok
        assert "does not accept ['backend']" in response.error
        assert "accepted: ['delta']" in response.error

    def test_source_out_of_range(self, catalog):
        with QueryEngine(catalog) as engine:
            response = engine.run(SSSPQuery("grid", 10**6))
        assert not response.ok
        assert "out of range" in response.error

    def test_errors_do_not_poison_cache(self, catalog):
        with QueryEngine(catalog) as engine:
            engine.run(SSSPQuery("nope", 0))
            ok = engine.run(SSSPQuery("grid", 0, "dijkstra"))
        assert ok.ok and ok.cache == "miss"


class TestObservability:
    def test_counters_and_events_under_use(self, catalog):
        registry = obs.MetricsRegistry()
        sink = obs.ListSink()
        with obs.use(registry=registry, events=sink):
            engine = QueryEngine(catalog)
            with engine:
                engine.run(SSSPQuery("grid", 0, "dijkstra"))
                engine.run(SSSPQuery("grid", 0, "dijkstra"))  # hit
                engine.run(SSSPQuery("nope", 0))  # error

        assert registry.counter("service.queries").value == 3
        assert registry.counter("service.errors").value == 1
        assert registry.counter("service.cache.hits").value == 1
        assert registry.counter("service.cache.misses").value == 1
        assert registry.timer("service.query_seconds").count == 2

        starts = sink.of_type("query_start")
        ends = sink.of_type("query_end")
        assert len(starts) == len(ends) == 3
        assert [e["cache"] for e in ends] == ["miss", "hit", None]
        assert [e["ok"] for e in ends] == [True, True, False]
        qids = [e["qid"] for e in starts]
        assert qids == sorted(qids)

    def test_stats_shape(self, catalog):
        with QueryEngine(catalog, max_workers=2) as engine:
            engine.run(SSSPQuery("grid", 0, "dijkstra"))
            stats = engine.stats()
        assert stats["graphs"] == ["grid"]
        assert stats["queries"] == 1
        assert stats["pool"]["max_workers"] == 2
        assert stats["cache"]["misses"] == 1


class TestResilience:
    def test_health_shape(self, catalog):
        with QueryEngine(catalog, max_workers=2) as engine:
            engine.run(SSSPQuery("grid", 0, "dijkstra"))
            health = engine.health()
        assert health["pool"]["alive"] is True
        assert health["pool"]["max_workers"] == 2
        # a timed-out kernel stops at its deadline: no thread is ever lost
        assert set(health["pool"]) == {"mode", "max_workers", "pending", "alive"}

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_rejects_non_positive_timeout(self, catalog, timeout):
        with pytest.raises(ValueError, match="timeout must be positive"):
            QueryEngine(catalog, timeout=timeout)


# bellman-ford relaxes one hop of this path per round: a run from
# source 0 takes ~3 s here (20k rounds of ~150 µs), 30x the timeout
SLOW_PATH_NODES = 20_000
SLOW_TIMEOUT = 0.1


class TestTimeoutStopsTheKernel:
    """``timeout`` ends the kernel itself, so a timed-out task frees its thread."""

    @pytest.fixture
    def slow_catalog(self, grid):
        cat = GraphCatalog()
        cat.register("path", path_graph(SLOW_PATH_NODES))
        cat.register("grid", grid)
        return cat

    def _timed_out_pair(self, engine):
        responses = engine.run_many(
            [SSSPQuery("path", s, "bellman-ford") for s in (0, 1)]
        )
        assert [r.error for r in responses] == [f"timeout after {SLOW_TIMEOUT}s"] * 2
        assert not any(r.ok for r in responses)

    def test_close_returns_at_once_after_timeouts(self, slow_catalog):
        engine = QueryEngine(
            slow_catalog, max_workers=2, timeout=SLOW_TIMEOUT, cache_size=0
        )
        try:
            self._timed_out_pair(engine)
            answered = time.monotonic()
        finally:
            engine.close()
        # both kernels stopped at their deadline: close() waits on nothing
        assert time.monotonic() - answered < 0.5

    def test_next_query_finds_a_free_thread(self, slow_catalog, grid):
        with QueryEngine(
            slow_catalog, max_workers=2, timeout=SLOW_TIMEOUT, cache_size=0
        ) as engine:
            self._timed_out_pair(engine)
            after = engine.run(SSSPQuery("grid", 0, "dijkstra"))
        assert after.ok, after.error
        assert after.reached == dijkstra(grid, 0).num_reached


# shape -> the validator's message for a corrupted result of that shape
CORRUPT_ERRORS = {
    "single-dijkstra": (
        r"CorruptResultError: distance to source is .*-1\.0.*, expected 0"
    ),
    "nearfar-batch": (
        r"CorruptResultError: batch task returned str, expected 2 results"
    ),
}

# shape -> the queries one run_many call submits (max_batch=8)
FAILURE_SHAPES = {
    "single-dijkstra": [(0, "dijkstra")],
    "nearfar-batch": [(0, "nearfar"), (5, "nearfar")],
}

OUT_OF_MEMORY = "cannot allocate the distance vector"

# the engine timeout of a "hang" cell: the real kernel's deadline has
# passed by its first check (>= 26 µs of setup precede that check)
HANG_TIMEOUT = 1e-6


def _negated(result):
    """``result`` with every finite distance negated and shifted by -1."""
    dist = np.where(np.isfinite(result.dist), -(result.dist + 1.0), result.dist)
    return replace(result, dist=dist)


class _Runners:
    """Stand-ins for the engine's two runners that count kernel runs.

    ``fault`` makes every run raise ``MemoryError`` (``"oom"``) or
    return a corrupt result; a ``"hang"`` run is the real kernel, which
    an engine built with :data:`HANG_TIMEOUT` drives past its deadline.
    """

    def __init__(self, monkeypatch, fault):
        self.calls = 0
        self.fault = fault
        single, batch = engine_module.run_algorithm, engine_module.run_algorithm_batch

        def run_algorithm(*args):
            return self._run(single, args)

        def run_algorithm_batch(*args):
            return self._run(batch, args)

        monkeypatch.setattr(engine_module, "run_algorithm", run_algorithm)
        monkeypatch.setattr(engine_module, "run_algorithm_batch", run_algorithm_batch)

    def _run(self, runner, args):
        self.calls += 1
        if self.fault == "oom":
            raise MemoryError(OUT_OF_MEMORY)
        result = runner(*args)
        if self.fault != "corrupt":
            return result
        if isinstance(result, list):
            return "corrupted-result"
        return _negated(result)


class TestFailureContract:
    """A failed pool task runs once, for a single query and a batch alike.

    Whatever fails the task — a kernel past its deadline, a corrupt
    result, a ``MemoryError`` — the dispatch is one pool task, each
    member answers the error once, and nothing reaches the cache.
    """

    @pytest.mark.parametrize("shape", sorted(FAILURE_SHAPES))
    @pytest.mark.parametrize("scenario", ["hang", "corrupt", "oom"])
    def test_failure_table(self, catalog, monkeypatch, shape, scenario):
        errors = {
            "hang": re.escape(f"timeout after {HANG_TIMEOUT}s"),
            "corrupt": CORRUPT_ERRORS[shape],
            "oom": re.escape(f"MemoryError: {OUT_OF_MEMORY}"),
        }
        runners = _Runners(monkeypatch, scenario)
        queries = [SSSPQuery("grid", s, a) for s, a in FAILURE_SHAPES[shape]]
        registry = obs.MetricsRegistry()
        with obs.use(registry=registry, events=obs.ListSink()):
            with QueryEngine(
                catalog,
                max_workers=2,
                timeout=HANG_TIMEOUT if scenario == "hang" else None,
                max_batch=8,
            ) as engine:
                responses = engine.run_many(queries)
                cache_size = len(engine.cache)

        assert registry.counter("service.pool.tasks").value == 1
        assert runners.calls == 1
        for response in responses:
            assert response.ok is False
            assert re.fullmatch(errors[scenario], response.error), response.error
            assert "attempts" not in response.as_dict()
        assert registry.counter("service.errors").value == len(queries)
        assert cache_size == 0

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize("shape", sorted(CORRUPT_ERRORS))
    def test_corrupt_result_names_the_check(
        self, catalog, monkeypatch, shape, telemetry
    ):
        """The one run reaches result validation itself, telemetry on or off."""
        runners = _Runners(monkeypatch, "corrupt")
        queries = [SSSPQuery("grid", s, a) for s, a in FAILURE_SHAPES[shape]]
        channels = (
            {"registry": obs.MetricsRegistry(), "events": obs.ListSink()}
            if telemetry
            else {}
        )
        with obs.use(**channels):
            with QueryEngine(catalog, max_batch=8) as engine:
                assert engine.telemetry is telemetry
                responses = engine.run_many(queries)
        assert runners.calls == 1
        assert [r.ok for r in responses] == [False] * len(queries)
        for response in responses:
            assert re.fullmatch(CORRUPT_ERRORS[shape], response.error), response.error
        assert len(engine.cache) == 0

    def test_corridor_answers_after_six_failures(self, catalog, grid, monkeypatch):
        """Failures leave no state behind: the next clean query runs."""
        runners = _Runners(monkeypatch, "oom")
        with QueryEngine(catalog) as engine:
            failed = [engine.run(SSSPQuery("grid", s, "dijkstra")) for s in range(6)]
            runners.fault = None
            query = SSSPQuery("grid", 6, "dijkstra")
            response = engine.run(query)
            cached = engine.cache.get(engine._cache_key(query))
        assert response.ok, response.error
        assert response.cache == "miss"
        assert [r.error for r in failed] == [f"MemoryError: {OUT_OF_MEMORY}"] * 6
        want = dijkstra(grid, 6)
        assert response.reached == want.num_reached
        assert cached is not None
        np.testing.assert_array_equal(cached.dist, want.dist)


class TestResponseWireFormat:
    def test_ok_dict(self, catalog):
        with QueryEngine(catalog) as engine:
            d = engine.run(
                SSSPQuery("grid", 0, "dijkstra", request_id="abc")
            ).as_dict()
        assert d["ok"] is True
        assert d["id"] == "abc"
        assert set(d) >= {
            "graph",
            "source",
            "algorithm",
            "fingerprint",
            "cache",
            "reached",
            "iterations",
            "relaxations",
            "max_dist",
            "mean_dist",
            "wall_seconds",
        }

    def test_error_dict_is_minimal(self, catalog):
        with QueryEngine(catalog) as engine:
            d = engine.run(SSSPQuery("nope", 0)).as_dict()
        assert d["ok"] is False
        assert "error" in d and "fingerprint" not in d


class TestBatching:
    """Coalescing concurrent same-corridor queries into one kernel call."""

    def _queries(self, sources, algorithm="nearfar"):
        return [SSSPQuery("grid", s, algorithm) for s in sources]

    def test_batched_results_match_singles(self, catalog, grid):
        with QueryEngine(catalog, max_batch=8) as engine:
            batched = engine.run_many(self._queries([0, 5, 9, 20]))
        with QueryEngine(catalog, max_batch=1) as engine:
            singles = engine.run_many(self._queries([0, 5, 9, 20]))
        for b, s in zip(batched, singles):
            assert b.ok and s.ok
            assert b.reached == s.reached
            assert b.iterations == s.iterations
        oracle = dijkstra(grid, 0)
        assert batched[0].reached == oracle.num_reached

    def test_batch_dispatch_event_and_metrics(self, catalog):
        registry = obs.MetricsRegistry()
        sink = obs.ListSink()
        with obs.use(registry=registry, events=sink):
            with QueryEngine(catalog, max_batch=8) as engine:
                responses = engine.run_many(self._queries([0, 5, 9]))
        assert all(r.ok for r in responses)
        [dispatch] = sink.of_type("batch_dispatch")
        assert dispatch["graph"] == "grid"
        assert dispatch["algorithm"] == "nearfar"
        assert dispatch["batch_size"] == 3
        assert dispatch["sources"] == [0, 5, 9]
        # every member still gets its own lifecycle events
        assert len(sink.of_type("query_start")) == 3
        assert len(sink.of_type("query_end")) == 3
        hist = registry.histogram("service.batch.size")
        assert hist.count == 1 and hist.total == 3.0
        # 3 queries answered by 1 kernel call: 2 pool tasks saved
        assert registry.counter("service.batch.coalesced").value == 2

    def test_duplicate_sources_coalesce_not_batch(self, catalog):
        sink = obs.ListSink()
        with obs.use(events=sink):
            with QueryEngine(catalog, max_batch=8) as engine:
                responses = engine.run_many(self._queries([0, 5, 0]))
        assert all(r.ok for r in responses)
        assert responses[2].cache == "coalesced"
        [dispatch] = sink.of_type("batch_dispatch")
        assert dispatch["batch_size"] == 2  # the duplicate rode along

    def test_each_member_cached_individually(self, catalog):
        with QueryEngine(catalog, max_batch=8) as engine:
            engine.run_many(self._queries([0, 5, 9]))
            assert engine.cache.stats()["size"] == 3
            again = engine.run(SSSPQuery("grid", 5, "nearfar"))
        assert again.cache == "hit"

    def test_max_batch_one_disables(self, catalog):
        sink = obs.ListSink()
        with obs.use(events=sink):
            with QueryEngine(catalog, max_batch=1) as engine:
                responses = engine.run_many(self._queries([0, 5]))
        assert all(r.ok for r in responses)
        assert sink.of_type("batch_dispatch") == []

    def test_unbatchable_algorithm_not_batched(self, catalog):
        sink = obs.ListSink()
        with obs.use(events=sink):
            with QueryEngine(catalog, max_batch=8) as engine:
                responses = engine.run_many(self._queries([0, 5], "dijkstra"))
        assert all(r.ok for r in responses)
        assert sink.of_type("batch_dispatch") == []

    def test_mixed_corridors_split(self, catalog):
        """Different params -> different corridors -> separate dispatches."""
        sink = obs.ListSink()
        queries = [
            SSSPQuery("grid", 0, "nearfar"),
            SSSPQuery("grid", 5, "nearfar", params={"delta": 4.0}),
            SSSPQuery("grid", 9, "nearfar"),
        ]
        with obs.use(events=sink):
            with QueryEngine(catalog, max_batch=8) as engine:
                responses = engine.run_many(queries)
        assert all(r.ok for r in responses)
        [dispatch] = sink.of_type("batch_dispatch")
        assert dispatch["sources"] == [0, 9]  # the delta=4 query went solo

    def test_chunking_respects_max_batch(self, catalog):
        sink = obs.ListSink()
        with obs.use(events=sink):
            with QueryEngine(catalog, max_batch=2) as engine:
                responses = engine.run_many(self._queries([0, 5, 9, 20]))
        assert all(r.ok for r in responses)
        sizes = [e["batch_size"] for e in sink.of_type("batch_dispatch")]
        assert sizes == [2, 2]

    def test_batch_failure_fails_all_members(self, catalog, monkeypatch):
        _Runners(monkeypatch, "oom")
        with QueryEngine(catalog, max_batch=8) as engine:
            responses = engine.run_many(self._queries([0, 5]))
        assert all(not r.ok for r in responses)
        assert len(engine.cache) == 0

    def test_stats_reports_max_batch(self, catalog):
        with QueryEngine(catalog, max_batch=4) as engine:
            assert engine.stats()["max_batch"] == 4

    def test_invalid_max_batch_rejected(self, catalog):
        with pytest.raises(ValueError, match="max_batch"):
            QueryEngine(catalog, max_batch=0)
