"""Graph image + engine config wire formats for shard workers."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import grid_road_network
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


def _edited_image(graph, edit) -> bytes:
    """``pack_graph``'s image of ``graph`` with its JSON header through ``edit``."""
    packed = pack_graph("g", graph)
    (head_len,) = struct.unpack_from("!I", packed, 4)
    head = json.dumps(edit(json.loads(packed[8 : 8 + head_len]))).encode("utf-8")
    return packed[:4] + struct.pack("!I", len(head)) + head + packed[8 + head_len :]


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: {("num_edgez" if k == "num_edges" else k): v for k, v in h.items()},
        lambda h: list(h.values()),
        lambda h: {**h, "num_nodes": "a"},
        lambda h: {**h, "num_nodes": -1},
        lambda h: {**h, "num_edges": 1.5},
        lambda h: {**h, "graph_id": None},
        lambda h: {**h, "fingerprint": 7},
    ],
    ids=[
        "renamed-key", "list-header", "text-count", "negative-count",
        "float-count", "null-id", "int-fingerprint",
    ],
)
def test_unpack_rejects_malformed_header(graph, edit):
    with pytest.raises(GraphTransferError, match="header"):
        unpack_graph(_edited_image(graph, edit))


def test_unpack_rejects_header_nested_too_deep(graph):
    packed = pack_graph("g", graph)
    (head_len,) = struct.unpack_from("!I", packed, 4)
    head = b"[" * 100_000 + b"]" * 100_000
    blob = packed[:4] + struct.pack("!I", len(head)) + head + packed[8 + head_len :]
    with pytest.raises(GraphTransferError, match="bad graph image header"):
        unpack_graph(blob)


def test_unpack_rejects_inconsistent_arrays(graph):
    blob = bytearray(pack_graph("g", graph))
    (head_len,) = struct.unpack_from("!I", blob, 4)
    struct.pack_into("q", blob, 8 + head_len, 1)  # indptr[0] = 1
    with pytest.raises(GraphTransferError, match="not a valid CSR graph"):
        unpack_graph(bytes(blob))


_SMALL = grid_road_network(3, 3, seed=5)
_SMALL_IMAGE = pack_graph("small", _SMALL)


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(_SMALL_IMAGE) - 1),
    value=st.integers(min_value=0, max_value=255),
)
def test_one_changed_byte_is_rejected_or_harmless(index, value):
    """Any one-byte change raises GraphTransferError or changes nothing
    the fingerprint covers."""
    blob = bytearray(_SMALL_IMAGE)
    blob[index] = value
    try:
        _, got = unpack_graph(bytes(blob))
    except GraphTransferError:
        return
    assert got.fingerprint() == _SMALL.fingerprint()


def test_engine_config_round_trips_scalars():
    kwargs = {
        "max_workers": 3,
        "timeout": 2.5,
        "cache_size": 64,
        "max_batch": 4,
    }
    wire = engine_config_to_wire(kwargs)
    assert engine_config_from_wire(wire) == kwargs


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
