"""Golden batched runs: ``batched_nearfar_sssp`` must replay recorded sweeps bit for bit.

The fixture ``data/batched_trajectories.json`` holds, for every run below,
each query's distance sha256, iteration and relaxation counts, the
number of sweeps, and every ``sssp.batch.*`` metric a live
:class:`~repro.obs.MetricsRegistry` holds afterwards (counter values,
histogram count/sum/min/max/quantiles and bucket counts).  Floats are
stored as ``float.hex`` strings so the comparison is exact.  A rewrite of
the batched sweep that moves a key to another sweep, drops a metric
observation or changes a counter fails here even when the distances stay
correct.

Regenerate (only when a change is *meant* to alter trajectories) with::

    PYTHONPATH=src python -m tests.sssp.test_batched_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro import obs
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat
from repro.sssp.batch import sample_sources
from repro.sssp.batch_kernels import batched_nearfar_sssp
from repro.sssp.nearfar import suggest_delta

FIXTURE = Path(__file__).parent / "data" / "batched_trajectories.json"
BATCH_SIZES = (1, 2, 32)
DELTAS = ("default", "mixed")  # one shared delta, or a per-query vector
MIXED = (0.25, 1.0, 4.0)  # per-query multiples of the average weight


def _graphs() -> Dict[str, CSRGraph]:
    grid = grid_road_network(8, 8, seed=3)  # the ``small_grid`` fixture
    weights = grid.weights.copy()
    weights[::3] = 0.0
    return {
        "grid": grid,
        "rmat": rmat(8, edge_factor=8, seed=5),  # the ``small_rmat`` fixture
        "grid-zero": grid.with_weights(weights, name="road-8x8-zero"),
    }


def _sources(graph: CSRGraph, batch: int) -> np.ndarray:
    sources = sample_sources(graph, batch, seed=batch)
    if batch > 2:
        sources[-1] = sources[0]  # a duplicate query rides along
    return sources


def _deltas(graph: CSRGraph, batch: int, mode: str):
    if mode == "default":
        return None
    base = suggest_delta(graph)
    return [base * MIXED[q % len(MIXED)] for q in range(batch)]


def _value(x):
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, dict):
        return {k: _value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_value(v) for v in x]
    return x


def _run(graph: CSRGraph, batch: int, mode: str) -> dict:
    registry = obs.MetricsRegistry()
    events = obs.ListSink()
    with obs.use(registry=registry, events=events):
        results = batched_nearfar_sssp(
            graph, _sources(graph, batch), delta=_deltas(graph, batch, mode)
        )
    [end] = events.of_type("batch_run_end")
    metrics = {
        key: _value(data)
        for key, data in registry.snapshot().items()
        if key.startswith("sssp.batch.")
    }
    return {
        "queries": [
            {
                "dist_sha256": hashlib.sha256(
                    np.ascontiguousarray(r.dist, dtype=np.float64).tobytes()
                ).hexdigest(),
                "iterations": int(r.iterations),
                "relaxations": int(r.relaxations),
            }
            for r in results
        ],
        "sweeps": int(end["sweeps"]),
        "metrics": metrics,
    }


def _cases() -> List[tuple]:
    return [
        (name, batch, mode)
        for name in _graphs()
        for batch in BATCH_SIZES
        for mode in DELTAS
    ]


def _key(name: str, batch: int, mode: str) -> str:
    return f"{name}/B={batch}/{mode}"


@pytest.fixture(scope="module")
def golden() -> Dict[str, dict]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def graphs() -> Dict[str, CSRGraph]:
    return _graphs()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("name,batch,mode", _cases())
def test_batched_run_matches_golden(golden, graphs, name, batch, mode):
    want = golden[_key(name, batch, mode)]
    got = _run(graphs[name], batch, mode)
    assert got["sweeps"] == want["sweeps"]
    assert got["metrics"] == want["metrics"]
    assert got["queries"] == want["queries"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.sssp.test_batched_golden --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    graphs = _graphs()
    runs = {_key(*case): _run(graphs[case[0]], *case[1:]) for case in _cases()}
    FIXTURE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in runs.items()) + "\n}\n"
    )
    print(f"wrote {len(runs)} runs to {FIXTURE}")
