"""One value rule per knob: every solver entry point that takes a window
width or a set-point refuses NaN, ±inf, zero and negatives up front,
with one message per knob (``repro.sssp.nearfar.finite_positive``)."""

import math
import re

import pytest

from repro.core import AdaptiveNearFarStepper, AdaptiveParams, SetpointController
from repro.extensions.widest_path import WidestPathParams, widest_path
from repro.graph.generators import grid_road_network
from repro.sssp import batched_nearfar_sssp, delta_stepping, nearfar_sssp

GRAPH = grid_road_network(12, 12, seed=3)


def _retarget(value):
    stepper = AdaptiveNearFarStepper(GRAPH, 0, AdaptiveParams(setpoint=500.0))
    try:
        stepper.setpoint = value
    except ValueError:
        assert stepper.setpoint == 500.0  # a refused value is not applied
        raise


# entry point -> (knob its message names, call with the value)
ENTRY_POINTS = {
    "AdaptiveParams.setpoint": ("setpoint", lambda v: AdaptiveParams(setpoint=v)),
    "AdaptiveParams.initial_delta": (
        "initial_delta",
        lambda v: AdaptiveParams(setpoint=500.0, initial_delta=v),
    ),
    "SetpointController.setpoint": ("setpoint", lambda v: SetpointController(v, 1.0)),
    "SetpointController.initial_delta": (
        "initial_delta",
        lambda v: SetpointController(500.0, v),
    ),
    "AdaptiveNearFarStepper.setpoint": ("setpoint", _retarget),
    "WidestPathParams.setpoint": ("setpoint", lambda v: WidestPathParams(setpoint=v)),
    "WidestPathParams.initial_delta": (
        "initial_delta",
        lambda v: WidestPathParams(setpoint=500.0, initial_delta=v),
    ),
    "nearfar_sssp": ("delta", lambda v: nearfar_sssp(GRAPH, 0, v)),
    "batched_nearfar_sssp": ("delta", lambda v: batched_nearfar_sssp(GRAPH, [0], v)),
    "delta_stepping": ("delta", lambda v: delta_stepping(GRAPH, 0, v)),
    "widest_path": ("delta", lambda v: widest_path(GRAPH, 0, v)),
}

BAD_VALUES = [math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_VALUES, ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_value_refused(entry, value):
    knob, call = ENTRY_POINTS[entry]
    message = f"{knob} must be finite and positive, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_finite_positive_value_accepted(entry):
    _, call = ENTRY_POINTS[entry]
    call(2.5)
