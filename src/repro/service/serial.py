"""Wire serialization for worker-process bootstrap.

Out-of-process shard workers (:mod:`repro.net.worker`) cannot receive
a :class:`~repro.service.catalog.GraphCatalog` directly — the default
catalog registers lambdas, which do not pickle, and re-generating a
graph in the worker would race the fingerprint check.  Instead the
front-end ships each materialised :class:`~repro.graph.csr.CSRGraph`
over the frame protocol:

* :func:`pack_graph` / :func:`unpack_graph` — a compact binary graph
  image (JSON header + raw CSR array bytes) with the content
  fingerprint embedded, verified on unpack so a corrupted or stale
  transfer can never seed a worker with wrong data;
* :func:`engine_config_to_wire` / :func:`engine_config_from_wire` —
  the :class:`~repro.service.engine.QueryEngine` keyword arguments as
  a JSON-safe dict (scalars as they are, fault plans via
  :func:`repro.resilience.faults.plan_to_wire`).
"""

from __future__ import annotations

import json
import struct
from typing import Mapping, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.resilience.faults import plan_from_wire, plan_to_wire

__all__ = [
    "pack_graph",
    "unpack_graph",
    "engine_config_to_wire",
    "engine_config_from_wire",
    "GraphTransferError",
]

_MAGIC = b"RGPH"
_HEADER_LEN = struct.Struct("!I")

# Graph image header field -> the JSON type pack_graph writes there.
_HEADER_FIELDS = {
    "graph_id": str,
    "name": str,
    "num_nodes": int,
    "num_edges": int,
    "fingerprint": str,
}

# Engine kwargs that are already JSON-safe scalars.
_SCALAR_KEYS = ("max_workers", "timeout", "cache_size", "max_batch")


class GraphTransferError(ValueError):
    """A packed graph failed structural or fingerprint validation."""


def pack_graph(graph_id: str, graph: CSRGraph) -> bytes:
    """Serialize one catalog entry for an ADOPT frame.

    Layout: ``b"RGPH"`` · u32 header length · JSON header (graph id,
    name, node/edge counts, fingerprint) · raw ``indptr`` · raw
    ``indices`` · raw ``weights`` bytes.  Array dtypes are fixed by
    :class:`CSRGraph` (int64/int32/float64) so lengths in the header
    fully determine the byte spans.
    """
    header = {
        "graph_id": graph_id,
        "name": graph.name,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "fingerprint": graph.fingerprint(),
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_MAGIC, _HEADER_LEN.pack(len(head)), head]
    for arr in (graph.indptr, graph.indices, graph.weights):
        parts.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(parts)


def unpack_graph(payload: bytes) -> Tuple[str, CSRGraph]:
    """Invert :func:`pack_graph`; verify structure and fingerprint.

    Returns ``(graph_id, graph)``.  Raises :class:`GraphTransferError`
    for every malformed image — bad magic, a truncated or undecodable
    header, a missing or mistyped header field, array spans that do not
    add up, inconsistent CSR arrays — and when the rebuilt graph's
    fingerprint does not match the one the sender embedded: a worker
    never adopts a graph it cannot prove it received intact.
    """
    if len(payload) < len(_MAGIC) + _HEADER_LEN.size:
        raise GraphTransferError("graph image truncated before header")
    if payload[: len(_MAGIC)] != _MAGIC:
        raise GraphTransferError("bad graph image magic")
    (head_len,) = _HEADER_LEN.unpack_from(payload, len(_MAGIC))
    body_at = len(_MAGIC) + _HEADER_LEN.size
    try:
        header = json.loads(payload[body_at : body_at + head_len])
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise GraphTransferError(f"bad graph image header: {exc}") from None
    if not isinstance(header, dict):
        raise GraphTransferError(
            f"graph image header is a {type(header).__name__}, not an object"
        )
    for key, kind in _HEADER_FIELDS.items():
        value = header.get(key)
        if type(value) is not kind or (kind is int and value < 0):
            raise GraphTransferError(
                f"graph image header field {key!r} is {value!r}, "
                f"expected a {'non-negative ' if kind is int else ''}{kind.__name__}"
            )
    graph_id = header["graph_id"]
    num_nodes, num_edges = header["num_nodes"], header["num_edges"]
    spans = (
        ((num_nodes + 1) * 8, np.int64),
        (num_edges * 4, np.int32),
        (num_edges * 8, np.float64),
    )
    offset = body_at + head_len
    if len(payload) != offset + sum(size for size, _ in spans):
        raise GraphTransferError(f"graph image size mismatch for {graph_id!r}")
    arrays = []
    for size, dtype in spans:
        arrays.append(
            np.frombuffer(payload[offset : offset + size], dtype=dtype).copy()
        )
        offset += size
    try:
        graph = CSRGraph(
            indptr=arrays[0],
            indices=arrays[1],
            weights=arrays[2],
            name=header["name"],
        )
    except ValueError as exc:
        raise GraphTransferError(
            f"graph image for {graph_id!r} is not a valid CSR graph: {exc}"
        ) from None
    if graph.fingerprint() != header["fingerprint"]:
        raise GraphTransferError(
            f"fingerprint mismatch unpacking {graph_id!r}: "
            f"got {graph.fingerprint()[:12]}, "
            f"expected {header['fingerprint'][:12]}"
        )
    return graph_id, graph


def engine_config_to_wire(kwargs: Mapping) -> dict:
    """QueryEngine keyword arguments as a JSON-safe dict.

    ``labels`` is intentionally dropped: the worker's registry is
    process-local and never merged, so shard labels only exist on the
    front-end side.  Unknown non-None keys raise — silently losing an
    engine knob across the process boundary would be a config drift
    bug.
    """
    wire: dict = {}
    for key, value in dict(kwargs).items():
        if key in _SCALAR_KEYS:
            wire[key] = value
        elif key == "fault_plan":
            wire[key] = plan_to_wire(value)
        elif key == "labels":
            continue
        elif value is not None:
            raise ValueError(f"cannot serialize engine kwarg {key!r}")
    return wire


def engine_config_from_wire(data: Mapping) -> dict:
    """Invert :func:`engine_config_to_wire`."""
    kwargs: dict = {}
    for key, value in dict(data).items():
        if key in _SCALAR_KEYS:
            kwargs[key] = value
        elif key == "fault_plan":
            kwargs[key] = plan_from_wire(value)
        else:
            raise ValueError(f"unknown engine kwarg {key!r} on the wire")
    return kwargs
