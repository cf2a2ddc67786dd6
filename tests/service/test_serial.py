"""Graph image + engine config wire formats for shard workers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import grid_road_network
from repro.resilience import (
    BreakerConfig,
    FaultPlan,
    RetryPolicy,
    ScheduledFaultPlan,
)
from repro.service.serial import (
    GraphTransferError,
    engine_config_from_wire,
    engine_config_to_wire,
    pack_graph,
    unpack_graph,
)


@pytest.fixture(scope="module")
def graph():
    return grid_road_network(8, 8, seed=11)


def test_pack_unpack_round_trips_graph_exactly(graph):
    blob = pack_graph("g", graph)
    assert isinstance(blob, bytes)
    graph_id, got = unpack_graph(blob)
    assert graph_id == "g"
    assert got.name == graph.name
    assert got.num_nodes == graph.num_nodes
    assert got.num_edges == graph.num_edges
    np.testing.assert_array_equal(got.indptr, graph.indptr)
    np.testing.assert_array_equal(got.indices, graph.indices)
    np.testing.assert_array_equal(got.weights, graph.weights)
    assert got.fingerprint() == graph.fingerprint()


def test_unpack_rejects_bad_magic(graph):
    blob = bytearray(pack_graph("g", graph))
    blob[:4] = b"NOPE"
    with pytest.raises(GraphTransferError):
        unpack_graph(bytes(blob))


def test_unpack_rejects_corrupted_weights(graph):
    blob = bytearray(pack_graph("g", graph))
    blob[-5] ^= 0xFF  # flip a bit inside the weights array
    with pytest.raises(GraphTransferError, match="fingerprint"):
        unpack_graph(bytes(blob))


def test_unpack_rejects_truncated_image(graph):
    blob = pack_graph("g", graph)
    with pytest.raises(GraphTransferError):
        unpack_graph(blob[: len(blob) // 2])


def test_engine_config_round_trips_scalars():
    kwargs = {
        "max_workers": 3,
        "timeout": 2.5,
        "cache_size": 64,
        "max_batch": 4,
    }
    wire = engine_config_to_wire(kwargs)
    assert engine_config_from_wire(wire) == kwargs


def test_engine_config_round_trips_policies():
    kwargs = {
        "retry": RetryPolicy(max_attempts=4, base_delay=0.01),
        "breaker": BreakerConfig(failure_threshold=7),
        "fault_plan": ScheduledFaultPlan(at=(2,), kind="worker_kill"),
    }
    got = engine_config_from_wire(engine_config_to_wire(kwargs))
    assert got["retry"] == kwargs["retry"]
    assert got["breaker"] == kwargs["breaker"]
    assert got["fault_plan"] == kwargs["fault_plan"]


def test_engine_config_round_trips_seeded_fault_plan():
    kwargs = {"fault_plan": FaultPlan(rate=0.5, seed=9, kinds=("crash",))}
    got = engine_config_from_wire(engine_config_to_wire(kwargs))
    assert got["fault_plan"] == kwargs["fault_plan"]


def test_engine_config_drops_labels_keeps_none_scalars():
    # labels are per-process (the worker's registry is never merged);
    # None scalars survive because timeout=None is a real engine value
    wire = engine_config_to_wire(
        {"labels": {"shard": "0"}, "timeout": None, "cache_size": 8}
    )
    assert engine_config_from_wire(wire) == {"timeout": None, "cache_size": 8}


def test_engine_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="wormhole"):
        engine_config_to_wire({"wormhole": True})
