"""One per-iteration record, every reader.

The near+far solvers append one row per iteration and book the run's
``sssp.*`` metrics and its ``iterations`` event from the rows when the
run ends.  These properties check that every reader sees the same
numbers: the counters equal the trace's column sums, each histogram
equals one fed the columns sample by sample, and the event's columns
equal the trace's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import AdaptiveParams, adaptive_sssp
from repro.cosim import PowerTargetParams, power_target_sssp
from repro.gpusim.device import JETSON_TK1
from repro.graph.generators import grid_road_network, rmat
from repro.instrument.trace import NEARFAR_WIDTH, ROW_FIELDS
from repro.obs.registry import Histogram
from repro.sssp.nearfar import nearfar_sssp

FEW = settings(max_examples=6, deadline=None)


@st.composite
def cases(draw):
    """A small road lattice or RMAT graph, some with zero weights, and a source."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        graph = grid_road_network(
            draw(st.integers(min_value=2, max_value=9)),
            draw(st.integers(min_value=2, max_value=9)),
            seed=seed,
        )
    else:
        graph = rmat(draw(st.integers(min_value=3, max_value=7)), 4, seed=seed)
    if draw(st.booleans()):
        weights = graph.weights.copy()
        weights[:: draw(st.integers(min_value=1, max_value=4))] = 0.0
        graph = graph.with_weights(weights)
    return graph, draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))


def _observe(run):
    registry, sink = obs.MetricsRegistry(), obs.ListSink()
    with obs.use(registry=registry, events=sink):
        out = run()
    return out, registry, sink


def _counter(registry, name):
    return registry.counter(name).value


def _check_histograms(registry, trace):
    for name, column in (("sssp.frontier", "x1"), ("sssp.parallelism", "x2")):
        reference = Histogram(name)
        for value in trace.column(column):
            reference.observe(int(value))
        assert registry.histogram(name).as_dict() == reference.as_dict()


def _check_event(sink, trace, result, width):
    assert [e["type"] for e in sink.events] == ["run_start", "iterations", "run_end"]
    columns = sink.of_type("iterations")[0]
    assert set(columns) == {"type", *ROW_FIELDS[:width]}
    for name in ROW_FIELDS[:width]:
        assert len(columns[name]) == result.iterations
        assert np.array_equal(columns[name], trace.column(name), equal_nan=True)


@FEW
@given(cases())
def test_nearfar_readers_agree(case):
    graph, source = case
    (result, trace), registry, sink = _observe(lambda: nearfar_sssp(graph, source))
    x1, x2, x3, x4 = (trace.column(f"x{i}").astype(int) for i in (1, 2, 3, 4))
    far_size, drains = trace.column("far_size").astype(int), trace.column("drains")
    drained = np.flatnonzero(drains > 0)
    # a drain scans the far queue as it stood after this iteration's bisect
    far_before = np.concatenate(([0], far_size[:-1]))[drained] + (x3 - x4)[drained]
    # and pulls the next iteration's frontier (none after the last row)
    pulled = x1[drained[drained + 1 < len(trace)] + 1]

    assert len(trace) == result.iterations == _counter(registry, "sssp.iterations")
    assert _counter(registry, "sssp.relaxations") == x2.sum() == result.relaxations
    assert _counter(registry, "sssp.queue.moved_to_far") == (x3 - x4).sum()
    assert _counter(registry, "sssp.queue.far_scanned") == far_before.sum()
    assert _counter(registry, "sssp.queue.moved_from_far") == pulled.sum()
    assert _counter(registry, "sssp.queue.drains") == drains.sum()
    _check_histograms(registry, trace)
    _check_event(sink, trace, result, NEARFAR_WIDTH)


@FEW
@given(cases())
def test_adaptive_readers_agree(case):
    graph, source = case
    params = AdaptiveParams(setpoint=50.0)
    (result, trace, _), registry, sink = _observe(
        lambda: adaptive_sssp(graph, source, params)
    )
    assert len(trace) == result.iterations == _counter(registry, "sssp.iterations")
    assert _counter(registry, "sssp.relaxations") == trace.column("x2").sum()
    for name in ("moved_from_far", "moved_to_far", "far_scanned", "drains"):
        assert _counter(registry, f"sssp.queue.{name}") == trace.column(name).sum()
    _check_histograms(registry, trace)
    _check_event(sink, trace, result, len(ROW_FIELDS))


@pytest.mark.parametrize("solver", ["nearfar", "adaptive"])
def test_max_iterations_stop_books_once(solver):
    graph = grid_road_network(12, 12, seed=4)
    if solver == "nearfar":
        run = lambda: nearfar_sssp(graph, 0, delta=1.0, max_iterations=5)  # noqa: E731
    else:
        run = lambda: adaptive_sssp(graph, 0, AdaptiveParams(setpoint=50.0, max_iterations=5))  # noqa: E731
    (result, trace, *_), registry, sink = _observe(run)
    assert result.iterations == len(trace) == 5
    assert _counter(registry, "sssp.iterations") == 5
    assert registry.histogram("sssp.parallelism").count == 5
    assert [len(e["x2"]) for e in sink.of_type("iterations")] == [5]
    assert len(sink.of_type("run_end")) == 1


def test_power_target_run_books_once():
    """``repro.cosim`` drives the stepper through ``step()`` and ends it
    with ``finish()``: every total lands once, and each step still
    returns its record."""
    graph = grid_road_network(14, 14, seed=2)
    run = lambda: power_target_sssp(  # noqa: E731
        graph, 0, JETSON_TK1, PowerTargetParams(target_watts=5.5, initial_setpoint=50.0)
    )
    res, registry, sink = _observe(run)
    iterations = res.result.iterations
    assert iterations == len(res.trace) > 1
    assert _counter(registry, "sssp.iterations") == iterations
    assert _counter(registry, "sssp.relaxations") == res.result.relaxations
    assert registry.histogram("sssp.frontier").count == iterations
    assert [len(e["x1"]) for e in sink.of_type("iterations")] == [iterations]
    assert len(sink.of_type("run_end")) == 1
    for name in ROW_FIELDS:
        assert np.array_equal(
            sink.of_type("iterations")[0][name], res.trace.column(name), equal_nan=True
        )
