"""A served param's value is checked before dispatch.

``validate_params`` runs in the engine's ``_validate``, before the cache
and before coalescing, so a bad value gets one error naming the param
whether its query runs alone, batched with others (``max_batch=8``) or
arrives as a protocol line.  Without the check a list ``delta`` ran as
per-query windows in a batch but failed alone, ``true`` ran as 1.0,
``2.7`` ran as k=2, and strings were accepted.
"""

from __future__ import annotations

import json

import pytest

from repro.service import QueryEngine, SSSPQuery
from repro.service.protocol import ProtocolSession

NUMBER = "a finite positive number"
# (algorithm, params, the error every query carrying them answers)
BAD = [
    ("nearfar", {"delta": [1.0, 2.0]}, f"param delta must be {NUMBER}, got [1.0, 2.0]"),
    ("nearfar", {"delta": True}, f"param delta must be {NUMBER}, got True"),
    ("nearfar", {"delta": None}, f"param delta must be {NUMBER}, got None"),
    ("nearfar", {"delta": 0}, f"param delta must be {NUMBER}, got 0"),
    ("delta-stepping", {"delta": float("nan")}, f"param delta must be {NUMBER}, got nan"),
    ("delta-stepping", {"delta": "0.5"}, f"param delta must be {NUMBER}, got '0.5'"),
    ("adaptive", {"setpoint": "1e3"}, f"param setpoint must be {NUMBER}, got '1e3'"),
    ("adaptive", {"setpoint": float("inf")}, f"param setpoint must be {NUMBER}, got inf"),
    ("adaptive", {"setpoint": -5.0}, f"param setpoint must be {NUMBER}, got -5.0"),
    ("kla", {"k": 2.7}, "param k must be an integer >= 1, got 2.7"),
    ("kla", {"k": "4"}, "param k must be an integer >= 1, got '4'"),
    ("kla", {"k": True}, "param k must be an integer >= 1, got True"),
    ("kla", {"k": 0}, "param k must be an integer >= 1, got 0"),
]
SOURCES = (0, 5)
BAD_IDS = [f"{a}-{name}={value!r}" for a, p, _ in BAD for name, value in p.items()]


@pytest.mark.parametrize("algorithm, params, error", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("max_batch", [1, 8])
def test_engine_answers_one_error_alone_or_batched(catalog, max_batch, algorithm, params, error):
    with QueryEngine(catalog, max_batch=max_batch) as engine:
        together = engine.run_many([SSSPQuery("grid", s, algorithm, params) for s in SOURCES])
        alone = [engine.run(SSSPQuery("grid", s, algorithm, params)) for s in SOURCES]
    for response in together + alone:
        assert (response.ok, response.error) == (False, error)


@pytest.mark.parametrize("algorithm, params, error", BAD, ids=BAD_IDS)
def test_protocol_line_answers_the_same_error(catalog, algorithm, params, error):
    request = {"graph": "grid", "algorithm": algorithm, "params": params}
    with QueryEngine(catalog, max_batch=8) as engine:
        session = ProtocolSession(engine)
        batch = session.handle(json.dumps({**request, "sources": list(SOURCES)}))
        single = session.handle(json.dumps({**request, "source": SOURCES[1]}))
    assert batch["ok"] is False
    assert [(e["ok"], e["error"]) for e in batch["results"]] == [(False, error)] * 2
    assert (single["ok"], single["error"]) == (False, error)


@pytest.mark.parametrize(
    "algorithm, params",
    [
        ("nearfar", {"delta": 2}),
        ("delta-stepping", {"delta": 0.5}),
        ("adaptive", {"setpoint": 100.0}),
        ("kla", {"k": 3}),
    ],
)
def test_good_values_answer_alike_alone_or_batched(catalog, algorithm, params):
    answers = []
    for max_batch in (1, 8):
        with QueryEngine(catalog, max_batch=max_batch, cache_size=0) as engine:
            responses = engine.run_many([SSSPQuery("grid", s, algorithm, params) for s in SOURCES])
        assert all(r.ok for r in responses), [r.error for r in responses]
        answers.append([(r.reached, r.max_dist, r.mean_dist) for r in responses])
    assert answers[0] == answers[1]
