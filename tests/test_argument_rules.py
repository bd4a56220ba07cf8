"""Argument checks of the public functions: each takes the rule a config
field declares for the same condition, accepts exactly the values it did
when it was written out by hand, and rejects with a ConfigError that reads
`name: problem`, the form of every config error."""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from flockspc import (
    ConfigError,
    ControllerConfig,
    CostParams,
    LLCConfig,
    Vec3,
    build_scenario,
    dynamic_lookahead_count,
    equilibrium_distance,
    finite_difference_gradient,
    fly,
    hardware_scenario,
    observation_stream,
    run_scenario,
    spawn_stream,
    step_trajectory,
    thresholds_from_geometry,
    tick_cost_params,
    tick_observation,
)

# The values on and past the edges of every rule, by label.
BOUNDARY = {
    "0.0": 0.0, "-0.0": -0.0, "5e-324": 5e-324, "max": sys.float_info.max, "inf": math.inf,
    "-inf": -math.inf, "nan": math.nan, "True": True, "int64(1)": np.int64(1),
    "float64(1.0)": np.float64(1.0), "-1": -1,
}
POSITIVE = {"5e-324", "max", "True", "int64(1)", "float64(1.0)"}
NONNEGATIVE = POSITIVE | {"0.0", "-0.0"}
A = LLCConfig(family="A")


@cache
def _trace():
    return run_scenario(build_scenario(2, "none", "SPC", "A", seed=0, duration=0.2))  # 2 ticks


# id: (the call, the argument's name, the labels of the values the call
# accepted when the checks were written out by hand, and for a value that
# passes the argument's own check but fails a later one, the name that
# check's error starts with).
CASES = {
    "spawn_stream-seed": (spawn_stream, "seed", set(), {}),
    "observation_stream-seed": (lambda v: observation_stream(v, 0, 0, 1), "seed", set(), {}),
    "ScenarioConfig-seed": (lambda v: replace(hardware_scenario(), seed=v), "seed", set(), {}),
    "observation_stream-tick": (lambda v: observation_stream(0, v, 0, 1), "tick",
                                {"int64(1)"}, {}),
    "observation_stream-observer": (lambda v: observation_stream(0, 0, v, 1), "observer",
                                    {"int64(1)"}, {}),
    "observation_stream-observed": (lambda v: observation_stream(0, 0, 1, v), "observed",
                                    {"int64(1)"}, {}),
    "finite_difference_gradient-h": (
        lambda v: finite_difference_gradient(Vec3(1, 0, 1), [Vec3(0, 0, 1)],
                                             CostParams(20, 9, 0, 0), v), "h", POSITIVE, {}),
    "equilibrium_distance-w_coh": (lambda v: equilibrium_distance(v, 1.0), "w_coh",
                                   POSITIVE - {"5e-324"}, {"5e-324": "w_sep / w_coh"}),
    "equilibrium_distance-w_sep": (lambda v: equilibrium_distance(1.0, v), "w_sep", POSITIVE, {}),
    "equilibrium_distance-r_drone": (lambda v: equilibrium_distance(1.0, 1.0, v), "r_drone",
                                     NONNEGATIVE - {"max"}, {"max": "2 * r_drone"}),
    "fly-dt": (lambda v: fly(np.zeros((1, 8)), np.zeros((1, 3)), A, v), "dt", POSITIVE, {}),
    "fly-steps": (lambda v: fly(np.zeros((1, 8)), np.zeros((1, 3)), A, 0.01, v), "steps",
                  {"int64(1)"}, {}),
    "step_trajectory-step": (lambda v: step_trajectory(A, v, duration=0.01), "step",
                             NONNEGATIVE, {}),
    "step_trajectory-duration": (lambda v: step_trajectory(A, 0.0, duration=v), "duration",
                                 POSITIVE - {"max"}, {"max": "duration / dt"}),
    "step_trajectory-dt": (lambda v: step_trajectory(A, 0.0, duration=0.01, dt=v), "dt",
                           POSITIVE - {"5e-324"}, {"5e-324": "duration / dt"}),
    "thresholds_from_geometry-r_drone": (lambda v: thresholds_from_geometry(v, 0.0), "r_drone",
                                         NONNEGATIVE - {"max"},
                                         {"max": "2 * r_drone + r_safety"}),
    "thresholds_from_geometry-r_safety": (lambda v: thresholds_from_geometry(0.0, v),
                                          "r_safety", NONNEGATIVE, {}),
    "thresholds_from_geometry-r_k": (lambda v: thresholds_from_geometry(0.0, 0.0, v), "r_k",
                                     NONNEGATIVE, {}),
    "ControllerConfig-pfc_gain": (lambda v: ControllerConfig(kind="PFC", pfc_gain=v), "pfc_gain",
                                  POSITIVE, {}),
    "dynamic_lookahead_count-n_star": (lambda v: dynamic_lookahead_count(v, 1.0), "n_star",
                                       {"int64(1)"}, {}),
    "dynamic_lookahead_count-dist_to_target": (lambda v: dynamic_lookahead_count(5, v),
                                               "dist_to_target",
                                               NONNEGATIVE | {"inf", "nan"}, {}),
    "tick_observation-agent": (lambda v: tick_observation(_trace(), 1, v), "agent",
                               {"int64(1)"}, {}),
    "tick_observation-tick_index": (lambda v: tick_observation(_trace(), v, 0), "tick_index",
                                    {"int64(1)"}, {}),
    "tick_cost_params-tick_index": (lambda v: tick_cost_params(_trace(), v), "tick_index",
                                    {"int64(1)"}, {}),
}


def _accepted(call, name: str, others: dict) -> set[str]:
    """The labels of the BOUNDARY values `call` accepts; each rejection must
    be a ConfigError naming `name`, or the check in `others`."""
    accepted = set()
    for label, value in BOUNDARY.items():
        try:
            with np.errstate(all="ignore"):  # an accepted extreme may overflow later
                call(value)
        except ValueError as exc:
            assert isinstance(exc, ConfigError), (label, repr(exc))
            assert str(exc).startswith(f"{others.get(label, name)}: "), (label, str(exc))
        else:
            accepted.add(label)
    return accepted


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_argument_checks_accept_what_they_did_and_name_the_argument(case):
    call, name, accepted, others = case
    assert _accepted(call, name, others) == accepted


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_seed_check_reads_the_same(seed):
    # The spawn and noise streams check a seed by the rule ScenarioConfig.seed
    # declares, and so name it in the same words.
    texts = set()
    for key in ("spawn_stream-seed", "observation_stream-seed", "ScenarioConfig-seed"):
        with pytest.raises(ConfigError) as exc:
            CASES[key][0](seed)
        texts.add(str(exc.value))
    assert texts == {f"seed: must be an integer in [0, 2**64), got {seed}"}
