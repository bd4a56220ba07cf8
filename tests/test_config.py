"""Scenario schema walker tests: seeded round-trip property over random
configs, and a seeded fuzz of malformed scenario dicts."""

from __future__ import annotations

import copy
import json
import math
import pickle
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from flockspc import (
    ConfigError,
    ControllerConfig,
    CostParams,
    LLCConfig,
    Obstacle,
    ScenarioConfig,
    SpawnSpec,
    Vec3,
    Waypoint,
    build_scenario,
    hardware_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from flockspc.cli import SweepSpec
from flockspc.config import load, parse
from flockspc.controller import _MAX_N_STAR


def _vec(rng, lo=-3.0, hi=3.0) -> Vec3:
    return Vec3(*(float(v) for v in rng.uniform(lo, hi, size=3)))


def _random_scenario(rng) -> ScenarioConfig:
    agent_count = int(rng.integers(1, 8))
    if rng.random() < 0.5:
        spawn = SpawnSpec(positions=tuple(_vec(rng) for _ in range(agent_count)),
                          min_spacing=float(rng.uniform(0.0, 1.0)))
    else:
        lo = _vec(rng, -3.0, 0.0)
        spawn = SpawnSpec(box_min=lo, box_max=lo + _vec(rng, 0.1, 3.0),
                          min_spacing=float(rng.uniform(0.0, 0.5)))
    times = np.sort(rng.uniform(0.0, 20.0, size=int(rng.integers(0, 4))))
    physics_dt = float(rng.choice([0.001, 0.005, 0.01]))
    control_period = physics_dt * int(rng.integers(1, 20))
    ticks = int(rng.integers(1, 500))
    duration = control_period * ticks
    last_tick = (ticks - 1) * control_period
    kind = str(rng.choice(["SPC", "PFC"]))
    return ScenarioConfig(
        agent_count=agent_count,
        spawn=spawn,
        obstacles=tuple(Obstacle(float(x), float(y), float(r)) for x, y, r in
                        rng.uniform([-5, -5, 0.05], [5, 5, 0.5], size=(int(rng.integers(0, 12)), 3))),
        waypoints=tuple(Waypoint(float(t), _vec(rng)) for t in times),
        cost=CostParams(*(float(w) for w in rng.uniform(0.0, 200.0, size=4)),
                        r_drone=float(rng.uniform(0.0, 0.1)),
                        zero_hat=float(rng.uniform(1e-9, 1e-3))),
        controller=ControllerConfig(kind=kind, epsilon=float(rng.uniform(0.01, 0.1)),
                                    n_star=int(rng.integers(1, 8)),
                                    pfc_gain=float(rng.uniform(0.001, 0.01)),
                                    dynamic_n=bool(rng.random() < 0.5)),
        llc=LLCConfig(family=str(rng.choice(["A", "B"])), k_v=float(rng.uniform(0, 2)),
                      k_p=float(rng.uniform(0, 0.2)), k_i=float(rng.uniform(0, 0.05)),
                      tilt_min=float(rng.uniform(-0.5, -0.1)), tilt_max=float(rng.uniform(0.1, 0.5)),
                      t_delta=float(rng.uniform(0.1, 1.0)),
                      z_time_constant=float(rng.uniform(0.1, 1.0))),
        r_h=math.inf if rng.random() < 0.3 else float(rng.uniform(0.1, 3.0)),
        noise_sigma=float(rng.uniform(0.0, 0.2)),
        physics_dt=physics_dt,
        control_period=control_period,
        duration=duration,
        seed=int(rng.integers(0, 2**63)),
        formation_time=float(rng.uniform(0.0, 1.0)) * last_tick if rng.random() < 0.8 else 0.0,
        obs_delay_ticks=int(rng.integers(0, 4)),
    )


def test_random_scenarios_round_trip_through_json():
    rng = np.random.default_rng(2024)
    seen = set()
    for i in range(300):
        cfg = _random_scenario(rng)
        again = parse_scenario(json.loads(json.dumps(scenario_to_dict(cfg))))
        assert again == cfg, f"case {i}: {cfg} did not round-trip"
        seen.add((cfg.spawn.positions is None, len(cfg.obstacles) > 0, bool(cfg.waypoints),
                  math.isinf(cfg.r_h), cfg.controller.kind, cfg.llc.family))
    for axis, values in enumerate([(True, False), (True, False), (True, False), (True, False),
                                   ("SPC", "PFC"), ("A", "B")]):
        assert {s[axis] for s in seen} == set(values), f"generator missed a case on axis {axis}"


def test_echo_of_cost_leaves_out_engine_fields():
    cfg = hardware_scenario()
    echoed = scenario_to_dict(cfg)
    assert set(echoed["cost"]) == {"w_coh", "w_sep", "w_tar", "w_obs", "r_drone", "zero_hat"}
    assert "positions" not in echoed["spawn"]
    assert scenario_to_dict(parse_scenario(echoed)) == echoed


_BAD_VALUES = [None, True, "x", "inf", 1e308, -1e308, float("nan"), float("inf"), 10**400,
               -1, 0, [], [1.0, 2.0], {}, {"x": 1}, [[]]]


def _paths(node, prefix=()):
    """Every (container path, key) inside a JSON-shaped value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, prefix + (key,))


def _mutate(data: dict, rng) -> dict:
    data = copy.deepcopy(data)
    for _ in range(int(rng.integers(1, 4))):
        targets = list(_paths(data))
        prefix, key = targets[int(rng.integers(len(targets)))]
        parent = data
        for step in prefix:
            parent = parent[step]
        action = int(rng.integers(5))
        if action == 0:
            parent[key] = _BAD_VALUES[int(rng.integers(len(_BAD_VALUES)))]
        elif action == 1 and isinstance(parent, dict):
            del parent[key]
        elif action == 2 and isinstance(parent, dict):
            parent[f"unknown_{key}"] = 1.0
        elif action == 3:
            parent[key] = [parent[key]]  # one level too deep
        elif action == 4 and isinstance(parent[key], (dict, list)):
            parent[key] = type(parent[key])()  # emptied
    return data


def test_fuzzed_scenarios_raise_only_config_error():
    base = scenario_to_dict(hardware_scenario())
    base["obstacles"] = [{"x": 2.0, "y": 0.5, "radius": 0.15}]
    rng = np.random.default_rng(7)
    rejected = 0
    for i in range(2000):
        data = _mutate(base, rng)
        try:
            parse_scenario(data)
        except ConfigError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - the point of the test
            pytest.fail(f"case {i}: {type(exc).__name__}: {exc} for {data!r}")
    assert rejected > 1500, f"only {rejected} of 2000 mutations were rejected"


def test_huge_control_period_is_a_config_error():
    data = scenario_to_dict(hardware_scenario())
    data["control_period"] = 1e308
    with pytest.raises(ConfigError, match="control_period"):
        parse_scenario(data)
    data = scenario_to_dict(hardware_scenario())
    data["duration"] = 1e308
    with pytest.raises(ConfigError, match="duration"):
        parse_scenario(data)


@pytest.mark.parametrize("mutation, field", [
    (lambda d: d.update(spawn={"positions": []}), "spawn.positions"),
    (lambda d: d["spawn"].update(box_min=[0, 0]), "spawn.box_min"),
    (lambda d: d["waypoints"][1].update(target=[0, "y", 0]), "waypoints[1].target[1]"),
    (lambda d: d["llc"].update(family="C"), "llc.family"),
    (lambda d: d["llc"].update(k_p="big"), "llc.k_p"),
    (lambda d: d["controller"].update(n_star=2.5), "controller.n_star"),
    (lambda d: d["controller"].update(dynamic_n=1), "controller.dynamic_n"),
    (lambda d: d.update(obstacles=[{"x": 1.0, "y": 0.0}]), "obstacles[0].radius"),
    (lambda d: d.update(obstacles=[{"x": 1.0, "y": 0.0, "radius": -1.0}]), "obstacles[0]"),
    (lambda d: d.update(r_h="far"), "r_h"),
    (lambda d: d.update(seed=1.5), "seed"),
    (lambda d: d.update(cost=[1, 2]), "cost"),
    # 10**9 overflowed the int32 candidate counts and would size the ladder block.
    pytest.param(lambda d: d["controller"].update(n_star=10**9),
                 f"controller.n_star: must be an integer in [1, {_MAX_N_STAR}], got 1000000000",
                 id=f"<lambda>-controller: n_star must be an integer in [1, {_MAX_N_STAR}], "
                    "got 1000000000"),  # the case's name from before the "<field>: " form
])
def test_errors_name_the_json_path(mutation, field):
    data = scenario_to_dict(hardware_scenario())
    mutation(data)
    with pytest.raises(ConfigError) as exc:
        parse_scenario(data)
    assert str(exc.value).startswith(field), str(exc.value)


@pytest.mark.parametrize("build, message", [
    (lambda: replace(hardware_scenario(0), r_h=0.0), r"^r_h: must be positive"),
    (lambda: replace(hardware_scenario(0), r_h=math.nan), r"^r_h: must be positive"),
    (lambda: replace(hardware_scenario(0), seed=1.5), r"^seed: must be an integer"),
    (lambda: replace(hardware_scenario(0), seed=True), r"^seed: must be an integer"),
    # Seeds alias modulo 2**64 in the noise and spawn keys.
    (lambda: replace(hardware_scenario(0), seed=2**64), r"^seed: must be an integer in \[0, 2"),
    (lambda: replace(hardware_scenario(0), seed=-1), r"^seed: must be an integer in \[0, 2"),
    (lambda: replace(hardware_scenario(0), obs_delay_ticks=-1), r"^obs_delay_ticks: must be"),
    # True is an int subclass; a config rejects it wherever it wants an integer.
    (lambda: replace(hardware_scenario(0), agent_count=True), r"^agent_count: must be an integer"),
    (lambda: replace(hardware_scenario(0), obs_delay_ticks=True),
     r"^obs_delay_ticks: must be an integer"),
    # The ids below are the cases' names from before their messages took the
    # "<field>: <problem>" form, so each case keeps its name in the suite.
    pytest.param(lambda: ControllerConfig(kind="SPC", n_star=True), r"^n_star: must be an integer",
                 id="<lambda>-^n_star must be an integer"),
    pytest.param(lambda: SpawnSpec(positions=(Vec3(0, 0, 1),), box_min=Vec3(0, 0, 0),
                                   box_max=Vec3(1, 1, 1)),
                 r"^positions: give either positions or a box",
                 id="<lambda>-^spawn: give either positions or a box"),
    pytest.param(lambda: Obstacle(math.nan, 0.0, 0.15), r"^x: must be finite, got nan",
                 id="<lambda>-^Obstacle center must be finite"),
    # A NaN time passes the waypoint order check, and an infinite target
    # only failed inside the first tick's cost params.
    pytest.param(lambda: Waypoint(math.nan, Vec3(9, 9, 9)), r"^time: must be finite",
                 id="<lambda>-^Waypoint time must be finite"),
    pytest.param(lambda: Waypoint(0.0, Vec3(math.inf, 0, 1)), r"^target: must be finite",
                 id="<lambda>-^Waypoint target must be finite"),
    pytest.param(lambda: CostParams(20.0, 9.0, 0.0, 0.0, target=Vec3(math.nan, 0, 0)),
                 r"^target: must be finite", id="<lambda>-^target must be finite"),
])
def test_values_built_in_python_name_their_field(build, message):
    # The constructors check their values for callers that build configs in
    # Python, not only for scenario files, and name the field relative to
    # the object built.
    with pytest.raises(ConfigError, match=message):
        build()


def test_seed_spans_64_bits():
    for seed in (0, 2**64 - 1):
        assert replace(hardware_scenario(0), seed=seed).seed == seed


def test_counter_words_must_fit_32_bits():
    # Tick and agent indices are 32-bit words of the observation noise
    # counter.  Only the config is built here; no such run is started.
    base = dict(spawn=SpawnSpec(box_min=Vec3(0, 0, 1), box_max=Vec3(1, 1, 2), min_spacing=0.0),
                cost=CostParams(20.0, 9.0, 0.0, 0.0), controller=ControllerConfig(kind="PFC"),
                llc=LLCConfig(family="B"), r_h=1.0, noise_sigma=0.1, physics_dt=1.0,
                control_period=1.0, seed=0, formation_time=0.0)
    widest = ScenarioConfig(agent_count=2**32 - 1, duration=2.0**32 - 1, **base)
    assert widest.tick_count == 2**32 - 1
    with pytest.raises(ConfigError, match=r"^duration: gives a tick_count of 4294967296"):
        ScenarioConfig(agent_count=2, duration=2.0**32, **base)
    with pytest.raises(ConfigError, match=r"^agent_count: must be below 2\*\*32"):
        ScenarioConfig(agent_count=2**32, duration=2.0, **base)
    data = scenario_to_dict(ScenarioConfig(agent_count=2, duration=2.0, **base))
    data["agent_count"] = 2**32
    with pytest.raises(ConfigError, match="agent_count"):
        parse_scenario(data)


_SHIPPED = Path(__file__).resolve().parent.parent / "scenarios"
_SHIPPED_SCENARIOS = {
    "no_obstacles.json": lambda: build_scenario(9, "none", "SPC", "A"),
    "three_obstacles.json": lambda: build_scenario(9, "three", "SPC", "B"),
    "eleven_obstacles.json": lambda: build_scenario(9, "eleven", "SPC", "B"),
    "hardware_preset.json": lambda: hardware_scenario(0),
}
_SHIPPED_SWEEPS = ("sweep_full.json", "sweep_small.json")


def test_shipped_scenario_files_load_and_equal_their_presets():
    shipped = sorted(p.name for p in _SHIPPED.glob("*.json"))
    assert shipped == sorted([*_SHIPPED_SCENARIOS, *_SHIPPED_SWEEPS]), (
        "every file in scenarios/ needs a case here")
    for name, preset in _SHIPPED_SCENARIOS.items():
        assert load_scenario(_SHIPPED / name) == preset(), f"{name} drifted from its preset"
    for name in _SHIPPED_SWEEPS:
        assert isinstance(load(SweepSpec, _SHIPPED / name), SweepSpec)


def test_r_h_reads_the_infinity_json_dumps_writes():
    # json.dumps writes math.inf as Infinity, which json.loads reads back as a
    # float; -Infinity and NaN stay errors.
    cfg = replace(hardware_scenario(0), r_h=math.inf)
    data = scenario_to_dict(cfg)
    data["r_h"] = math.inf
    text = json.dumps(data)
    assert '"r_h": Infinity' in text
    assert parse_scenario(json.loads(text)) == cfg
    for value in (-math.inf, math.nan):
        data["r_h"] = value
        with pytest.raises(ConfigError, match=r"^r_h: must be finite, got "):
            parse_scenario(json.loads(json.dumps(data)))


_SWEEP = {"flock_sizes": [2], "obstacle_scenarios": ["none"], "controllers": ["SPC"],
          "llc_families": ["A"], "seeds": [0], "duration": 2.0, "noise_sigma": 0.0}


def _scenario_json() -> dict:
    data = scenario_to_dict(hardware_scenario(0))
    data["obstacles"] = [{"x": 2.0, "y": 0.5, "radius": 0.15}]
    return data


# (the dataclass that declares the rule, the field's JSON path, a value that
# breaks the rule).  Scenario paths start at ScenarioConfig, sweep paths at
# SweepSpec.  Where the walker rejects a value before the dataclass sees it
# (a non-finite number), it names the same path.
_RULE_CASES = [
    (ScenarioConfig, "agent_count", 0),
    (ScenarioConfig, "r_h", 0.0),
    (ScenarioConfig, "r_h", -math.inf),
    (ScenarioConfig, "noise_sigma", -0.1),
    (ScenarioConfig, "physics_dt", 0.0),
    (ScenarioConfig, "seed", -1),
    (ScenarioConfig, "seed", 2**64),
    (ScenarioConfig, "obs_delay_ticks", -1),
    (SpawnSpec, "spawn.positions", [[0.0, 0.0, 1.0], [math.nan, 0.0, 1.0]]),
    (SpawnSpec, "spawn.box_min", [0.0, -math.inf, 0.8]),
    (SpawnSpec, "spawn.box_max", [0.8, 0.8, math.inf]),
    (SpawnSpec, "spawn.min_spacing", -0.1),
    (CostParams, "cost.w_coh", -1.0),
    (CostParams, "cost.w_sep", -1.0),
    (CostParams, "cost.w_tar", -1.0),
    (CostParams, "cost.w_obs", -1.0),
    (CostParams, "cost.r_drone", -0.07),
    (CostParams, "cost.zero_hat", 0.0),
    (ControllerConfig, "controller.kind", "MPC"),
    (ControllerConfig, "controller.epsilon", 0.0),
    (ControllerConfig, "controller.n_star", 0),
    (ControllerConfig, "controller.n_star", _MAX_N_STAR + 1),
    (LLCConfig, "llc.family", "C"),
    (LLCConfig, "llc.k_v", -1.0),
    (LLCConfig, "llc.k_p", -1.0),
    (LLCConfig, "llc.k_i", -1.0),
    (LLCConfig, "llc.tilt_min", 0.1),
    (LLCConfig, "llc.tilt_min", -2.0),
    (LLCConfig, "llc.tilt_max", -0.1),
    (LLCConfig, "llc.tilt_max", 2.0),
    (LLCConfig, "llc.t_delta", 1e-170),
    (LLCConfig, "llc.z_time_constant", 1e200),
    (Obstacle, "obstacles[0].x", math.nan),
    (Obstacle, "obstacles[0].y", math.inf),
    (Obstacle, "obstacles[0].radius", 0.0),
    (Waypoint, "waypoints[1].time", math.nan),
    (Waypoint, "waypoints[1].target", [math.inf, 0.0, 1.0]),
    (SweepSpec, "flock_sizes", []),
    (SweepSpec, "flock_sizes[0]", 0),
    (SweepSpec, "flock_sizes[0]", 2**32),
    (SweepSpec, "obstacle_scenarios", []),
    (SweepSpec, "obstacle_scenarios[0]", "five"),
    (SweepSpec, "controllers", []),
    (SweepSpec, "llc_families", []),
    (SweepSpec, "seeds", []),
    (SweepSpec, "seeds[0]", -1),
    (SweepSpec, "seeds[0]", 2**64),
    (SweepSpec, "noise_sigma", -0.1),
]


def _put(data, path: str, value) -> None:
    """Set the value at a JSON path like "obstacles[0].radius" in place."""
    keys = [int(k[1:-1]) if k.startswith("[") else k for k in re.findall(r"\w+|\[\d+\]", path)]
    for key in keys[:-1]:
        data = data[key]
    data[keys[-1]] = value


@pytest.mark.parametrize("owner, path, value", _RULE_CASES,
                         ids=[f"{o.__name__}:{path}={value!r}" for o, path, value in _RULE_CASES])
def test_declared_rules_name_the_full_json_path(owner, path, value):
    sweep = owner is SweepSpec
    data = copy.deepcopy(_SWEEP) if sweep else _scenario_json()
    _put(data, path, value)
    with pytest.raises(ConfigError) as exc:
        parse(SweepSpec, data) if sweep else parse_scenario(data)
    error = exc.value
    assert re.match(rf"{re.escape(path)}(\[\d+\])*: must be ", str(error)), str(error)
    assert str(error) == f"{error.field}: {error.problem}"
    # A sweep worker's error reaches the parent pickled, rebuilt from its args.
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is ConfigError
    assert (str(again), again.field, again.problem) == (str(error), error.field, error.problem)


def test_rule_cases_cover_every_declared_rule():
    # Every field of the two schemas that declares a rule has a case above;
    # CostParams.target (no JSON form) is checked in Python above.
    schemas = (ScenarioConfig, SpawnSpec, CostParams, ControllerConfig, LLCConfig, Obstacle,
               Waypoint, SweepSpec)
    declared = {(cls, f.name) for cls in schemas for f in fields(cls)
                if f.metadata.get("rules") and f.metadata.get("json", True)}
    covered = {(owner, re.sub(r"\[\d+\]$", "", path).rsplit(".", 1)[-1])
               for owner, path, _ in _RULE_CASES}
    assert declared == covered, sorted((c.__name__, n) for c, n in declared ^ covered)
