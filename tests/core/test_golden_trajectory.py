"""Golden trajectories: the near+far stages must replay recorded runs bit for bit.

The fixture ``data/golden_trajectories.json`` holds, for every run below,
the sha256 of the distance array, the iteration and relaxation counts and
every :class:`~repro.instrument.trace.IterationRecord` field except the
wall-clock ``controller_seconds``.  Floats are stored as ``float.hex``
strings so the comparison is exact, NaN and infinities included.  A kernel
rewrite that changes any controller decision, queue move or counter fails
here even when the distances stay correct.

Regenerate (only when a change is *meant* to alter trajectories) with::

    PYTHONPATH=src python -m tests.core.test_golden_trajectory --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.core import AdaptiveParams, adaptive_sssp
from repro.core.stepwise import AdaptiveNearFarStepper
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat
from repro.instrument.trace import IterationRecord, RunTrace
from repro.resilience import DivergentController
from repro.sssp.batch import sample_sources
from repro.sssp.nearfar import nearfar_sssp

FIXTURE = Path(__file__).parent / "data" / "golden_trajectories.json"
SETPOINT = 10.0  # small enough that the far queue and rebalancer stay busy
FIELDS = [
    f.name for f in dataclasses.fields(IterationRecord) if f.name != "controller_seconds"
]
CONFIGS = ["adaptive", "adaptive-flat", "adaptive-fallback", "nearfar"]


def _graphs() -> Dict[str, CSRGraph]:
    grid = grid_road_network(8, 8, seed=3)  # the ``small_grid`` fixture
    weights = grid.weights.copy()
    weights[::3] = 0.0
    return {
        # 70-87 iterations per source, with 27-32 far-queue inserts that
        # span several partitions; first, so its keys head the fixture
        "grid24": grid_road_network(24, 24, seed=3),
        "grid": grid,
        "rmat": rmat(8, edge_factor=8, seed=5),  # the ``small_rmat`` fixture
        "grid-zero": grid.with_weights(weights, name="road-8x8-zero"),
    }


def _run(config: str, graph: CSRGraph, source: int):
    params = AdaptiveParams(setpoint=SETPOINT)
    if config == "adaptive":
        result, trace, _ = adaptive_sssp(graph, source, params)
    elif config == "adaptive-flat":
        flat = dataclasses.replace(params, use_partitions=False)
        result, trace, _ = adaptive_sssp(graph, source, flat)
    elif config == "adaptive-fallback":
        # NaN deltas after 3 decisions, as experiments/robustness.py drills
        stepper = AdaptiveNearFarStepper(graph, source, params)
        stepper.controller = DivergentController(stepper.controller, after=3)
        trace = RunTrace(algorithm="adaptive-nearfar", graph_name=graph.name, source=source)
        result = stepper.run(trace)
        assert result.extra["controller_fallback"]
    else:
        result, trace = nearfar_sssp(graph, source)
    return result, trace


def _value(x):
    return float(x).hex() if isinstance(x, float) else int(x)


def _summary(result, trace: RunTrace) -> dict:
    dist = np.ascontiguousarray(result.dist, dtype=np.float64)
    return {
        "dist_sha256": hashlib.sha256(dist.tobytes()).hexdigest(),
        "iterations": int(result.iterations),
        "relaxations": int(result.relaxations),
        "records": {
            name: [_value(getattr(rec, name)) for rec in trace.records] for name in FIELDS
        },
    }


def _cases() -> List[tuple]:
    return [
        (config, name, int(source))
        for name, graph in _graphs().items()
        for source in sample_sources(graph, 2, seed=0)
        for config in CONFIGS
    ]


def _key(config: str, name: str, source: int) -> str:
    return f"{config}/{name}/{source}"


def _record_all() -> Dict[str, dict]:
    graphs = _graphs()
    return {
        _key(config, name, source): _summary(*_run(config, graphs[name], source))
        for config, name, source in _cases()
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, dict]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def graphs() -> Dict[str, CSRGraph]:
    return _graphs()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("config,name,source", _cases())
def test_trajectory_matches_golden(golden, graphs, config, name, source):
    want = golden[_key(config, name, source)]
    got = _summary(*_run(config, graphs[name], source))
    assert got["iterations"] == want["iterations"]
    assert got["relaxations"] == want["relaxations"]
    for field in FIELDS:
        assert got["records"][field] == want["records"][field], field
    assert got["dist_sha256"] == want["dist_sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_golden_trajectory --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    runs = _record_all()
    FIXTURE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in runs.items()) + "\n}\n"
    )
    print(f"wrote {len(runs)} runs to {FIXTURE}")
