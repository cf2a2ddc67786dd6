"""Trace and result serialisation (JSON).

Reproducibility plumbing: persist a run's per-iteration trace (the
controller's entire observable world) and reload it later to re-replay
on different simulated devices without re-running the algorithm —
exactly how the harness separates the algorithm from the platform.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.instrument.trace import ROW_DEFAULTS, ROW_FIELDS, IterationRecord, RunTrace

__all__ = [
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
]

# v1: algorithm/graph_name/source + records
# v2: adds the run-level ``meta`` dict (setpoint, delta, …); v1 files
#     still load (meta defaults to empty).  A self-tuning run's file
#     carries its controller wall clock as one ``meta`` total, not per
#     record; files written with per-record values still load and sum.
# The *event* stream written by ``repro trace record`` is versioned
# separately: see repro.obs.events.EVENT_SCHEMA_VERSION.
_SCHEMA_VERSION = 2
_READABLE_SCHEMAS = (1, 2)
# the one wall-clock field of a row, and its last: files leave it out
_WALL = ROW_FIELDS.index("controller_seconds")


def _clean(value: Any) -> Any:
    """JSON-safe scalars (numpy ints/floats -> python; NaN kept as None)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if np.isnan(v) else v
    return value


def trace_to_dict(trace: RunTrace) -> dict:
    """A JSON-ready dict with one record object per row, every field named.

    The file holds no per-iteration wall clock, so two recordings of one
    deterministic run diff equal: each record's ``controller_seconds``
    is written as its default and the run's total goes to
    ``meta["controller_seconds"]``, which
    :attr:`~repro.instrument.trace.RunTrace.controller_seconds` reads.
    """
    meta = {k: _clean(v) for k, v in trace.meta.items()}
    wall = trace.controller_seconds
    if wall:
        meta["controller_seconds"] = wall
    return {
        "schema": _SCHEMA_VERSION,
        "algorithm": trace.algorithm,
        "graph_name": trace.graph_name,
        "source": int(trace.source),
        "meta": meta,
        "records": [_record(k, row) for k, row in enumerate(trace.rows)],
    }


def _record(k: int, row: tuple) -> dict:
    """One row as a record object, every field named; the wall-clock
    field keeps its default."""
    head = row[:_WALL]
    return {"k": k, **dict(zip(ROW_FIELDS, map(_clean, head + ROW_DEFAULTS[len(head):])))}


def trace_from_dict(payload: dict) -> RunTrace:
    """Inverse of :func:`trace_to_dict` (validates the schema version)."""
    schema = payload.get("schema")
    if schema not in _READABLE_SCHEMAS:
        raise ValueError(
            f"unsupported trace schema {schema!r} (expected one of "
            f"{_READABLE_SCHEMAS})"
        )
    trace = RunTrace(
        algorithm=payload["algorithm"],
        graph_name=payload["graph_name"],
        source=int(payload["source"]),
        meta=dict(payload.get("meta", {})),
    )
    field_names = {f.name for f in dataclasses.fields(IterationRecord)}
    for raw in payload["records"]:
        unknown = set(raw) - field_names
        if unknown:
            raise ValueError(f"unknown record fields: {sorted(unknown)}")
        kwargs = dict(raw)
        for key in ("d_estimate", "alpha_estimate"):
            if kwargs.get(key) is None:
                kwargs[key] = float("nan")
        trace.append(IterationRecord(**kwargs))
    return trace


def save_trace(trace: RunTrace, path: str | Path) -> Path:
    """Write a trace as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(trace_to_dict(trace)))
    return path


def load_trace(path: str | Path) -> RunTrace:
    """Read a trace written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()))
