"""Scenario schema and the one JSON walker that reads and echoes it.

Scenario files mirror ScenarioConfig field for field: nested dataclasses are
objects, Vec3 is an [x, y, z] list, tuples are lists, unknown keys are
rejected.  parse() and to_dict() walk dataclasses.fields and the type hints,
so they round-trip by construction and a new config field needs no parser
code.  The walker checks shape and type; each value rule is declared on its
field (model._field) and checked in __post_init__, and parse() prefixes the
object's JSON path to the field a ConfigError names, so every error reads
"<json.path>: <problem>".  Field metadata {"json": False} keeps a field out of
the schema; {"inf_token": True} lets a float read "inf", "Infinity", null or
JSON's Infinity as math.inf (echoed as "inf").
"""

from __future__ import annotations

import json
import math
import types
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Literal, Union, get_args, get_origin, get_type_hints

from .controller import ControllerConfig
from .llc import LLCConfig
from .model import _FINITE, _FINITE_POINT, _FINITE_POINT_OR_NONE, _NONNEGATIVE, _POSITIVE, _SEED
from .model import ConfigError, CostParams, Obstacle, Vec3, _each, _check_fields, _field, _Rule

__all__ = [
    "SpawnSpec",
    "Waypoint",
    "ScenarioConfig",
    "parse",
    "to_dict",
    "load",
    "parse_scenario",
    "load_scenario",
    "scenario_to_dict",
]

# More physics steps per control tick than this is taken for a mistyped
# physics_dt: every step is a Python-level plant update per agent.
MAX_STEPS_PER_TICK = 10_000

# type(), so that True is no integer.  Ticks and agents are 32-bit words of
# the observation noise counter.
_AGENT_COUNT = _Rule(lambda v: type(v) is int and v >= 1, "an integer >= 1")
_COUNTER_WORD = _Rule(lambda v: v < 2**32, "below 2**32")


@dataclass(frozen=True)
class SpawnSpec:
    """Initial placement: either explicit positions or a uniform random box
    with rejection sampling to a minimum pairwise spacing."""

    positions: tuple[Vec3, ...] | None = _field(_each(_FINITE_POINT), default=None)
    box_min: Vec3 | None = _field(_FINITE_POINT_OR_NONE, default=None)
    box_max: Vec3 | None = _field(_FINITE_POINT_OR_NONE, default=None)
    min_spacing: float = _field(_NONNEGATIVE, default=0.4)

    def __post_init__(self) -> None:
        _check_fields(self)
        lo, hi = self.box_min, self.box_max
        if self.positions is not None:
            if lo is not None or hi is not None:
                raise ConfigError("positions", "give either positions or a box, not both")
            object.__setattr__(self, "positions", tuple(self.positions))
        elif lo is None or hi is None:
            raise ConfigError("box_min" if lo is None else "box_max",
                              "needs positions or both box_min and box_max")
        elif not (lo.x < hi.x and lo.y < hi.y and lo.z < hi.z):
            raise ConfigError("box_max", "must exceed box_min on every axis")
        elif not (hi - lo).is_finite():  # numpy cannot draw from a wider box
            raise ConfigError("box_max", f"box extent overflows, got {hi - lo}")


@dataclass(frozen=True)
class Waypoint:
    """Target activation entry: the target becomes active at `time` seconds."""

    time: float = _field(_FINITE)
    target: Vec3 = _field(_FINITE_POINT)

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one deterministic rollout."""

    agent_count: int = _field(_AGENT_COUNT)
    spawn: SpawnSpec
    cost: CostParams
    controller: ControllerConfig
    llc: LLCConfig
    r_h: float = _field(_Rule(lambda v: v > 0.0, "positive"), inf_token=True)  # inf allowed
    noise_sigma: float = _field(_NONNEGATIVE)
    physics_dt: float = _field(_POSITIVE)
    control_period: float
    duration: float
    seed: int = _field(_SEED)
    obstacles: tuple[Obstacle, ...] = ()
    waypoints: tuple[Waypoint, ...] = ()
    formation_time: float = 10.0
    obs_delay_ticks: int = _field(_Rule(lambda v: type(v) is int and v >= 0, "an integer >= 0"),
                                  default=0)

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.control_period >= self.physics_dt:
            raise ConfigError("control_period", f"must be >= physics_dt, got {self.control_period}")
        ratio = self.control_period / self.physics_dt
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError("control_period", "must be an integer multiple of physics_dt, "
                              f"got {self.control_period} / {self.physics_dt}")
        if self.steps_per_tick > MAX_STEPS_PER_TICK:
            raise ConfigError("physics_dt", f"gives {self.steps_per_tick} physics steps per control "
                              f"period, more than {MAX_STEPS_PER_TICK}, got {self.physics_dt}")
        ticks = self.duration / self.control_period
        if not (self.duration >= self.control_period and math.isfinite(ticks)):
            raise ConfigError("duration", f"must cover a finite tick count >= 1, got {self.duration}")
        if self.tick_count >= 2**32:
            raise ConfigError("duration", f"gives a tick_count of {self.tick_count}, must be below "
                              f"2**32, got {self.duration}")
        # metrics.aggregate reads the ticks at or after formation_time.
        last_tick = (self.tick_count - 1) * self.control_period
        if not (0.0 <= self.formation_time <= last_tick):
            raise ConfigError("formation_time", f"must be in [0, {last_tick!r}] (the last tick time) "
                              f"so the aggregation window holds a tick, got {self.formation_time}")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        times = [w.time for w in self.waypoints]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigError("waypoints", "times must be non-decreasing")
        if self.spawn.positions is not None and len(self.spawn.positions) != self.agent_count:
            raise ConfigError("spawn.positions", f"expected {self.agent_count} entries, "
                              f"got {len(self.spawn.positions)}")
        spawn = self.spawn
        # Balls of radius r = min_spacing / 2 around the agents are disjoint and lie in
        # the box grown by r (volumes are divided per axis, so none overflows).  A
        # subnormal min_spacing halves to r = 0.0: points, which any box holds.
        r = spawn.min_spacing / 2.0
        if spawn.positions is None and r > 0.0:
            grown = [(hi - lo) / r + 2.0 for lo, hi in zip(spawn.box_min, spawn.box_max)]
            if self.agent_count > grown[0] * grown[1] * grown[2] / (4.0 / 3.0 * math.pi):
                raise ConfigError("spawn.min_spacing", f"{self.agent_count} agents cannot be "
                                  f"placed {spawn.min_spacing} m apart in the spawn box")
        _COUNTER_WORD.check(self.agent_count, "agent_count")  # after naming an overfull box
        # The cost params carry the scenario obstacles so controllers see them.
        if tuple(self.cost.obstacles) != self.obstacles:
            object.__setattr__(self, "cost", replace(self.cost, obstacles=self.obstacles))

    @property
    def steps_per_tick(self) -> int:
        return round(self.control_period / self.physics_dt)

    @property
    def tick_count(self) -> int:
        return math.floor(self.duration / self.control_period + 1e-9)


# --- the walker ------------------------------------------------------------------
# A reader is a function (value, path) -> parsed value, built once per type
# hint.  `path` is the JSON path as nested (parent, key) pairs, spelled out
# by _where() only when a value is rejected.


def _where(path: tuple) -> str:
    keys = []
    while path:
        path, key = path
        keys.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return "".join(reversed(keys)).lstrip(".")


def _number(value: Any, path: tuple, inf_token: bool = False) -> float:
    if type(value) is float and math.isfinite(value):  # the common case
        return value
    token = value.lower() if isinstance(value, str) else value
    if inf_token and token in (None, "inf", "infinity", math.inf):  # json.dumps writes Infinity
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_where(path), f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(_where(path), f"must be finite, got {value!r}")
    return number


def _check(ok: Callable[[Any], bool], expected: str, value: Any, path: tuple) -> Any:
    if not ok(value):
        raise ConfigError(_where(path), f"must be {expected}, got {value!r}")
    return value


def _read_vec3(value: Any, path: tuple) -> Vec3:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(_where(path), f"must be a [x, y, z] list, got {value!r}")
    return Vec3(*[_number(c, (path, i)) for i, c in enumerate(value)])


def _read_tuple(read_item: Callable, value: Any, path: tuple) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(_where(path), f"must be a list, got {value!r}")
    return tuple([read_item(item, (path, i)) for i, item in enumerate(value)])


@cache
def _reader(hint: Any) -> Callable[[Any, tuple], Any]:
    if hint is float:
        return _number
    if hint is Vec3:
        return _read_vec3
    if hint is int or hint is bool:  # type(), so that True is no integer
        expected = "an integer" if hint is int else "true or false"
        return partial(_check, lambda v: type(v) is hint, expected)
    if hint is Any or get_origin(hint) is Literal:  # checked by the owning dataclass's rules
        return lambda value, path: value
    if is_dataclass(hint):
        return partial(parse, hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:  # tuple[X, ...]
        return partial(_read_tuple, _reader(args[0]))
    if origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:  # X | None
        read = _reader(args[0] if args[1] is type(None) else args[1])
        return lambda value, path: None if value is None else read(value, path)
    raise TypeError(f"no JSON form for field type {hint!r}")


@cache
def _schema(cls: type) -> tuple[tuple[tuple[str, Callable, bool, bool], ...], frozenset[str]]:
    # (name, reader, required, inf_token) per schema field, resolved once per class.
    hints = get_type_hints(cls)
    specs = []
    for f in fields(cls):
        if f.metadata.get("json", True):
            inf_token = f.metadata.get("inf_token", False)
            read = partial(_number, inf_token=True) if inf_token else _reader(hints[f.name])
            required = f.default is MISSING and f.default_factory is MISSING
            specs.append((f.name, read, required, inf_token))
    return tuple(specs), frozenset(spec[0] for spec in specs)


def parse(cls: type, data: Any, path: tuple = ()) -> Any:
    """Build config dataclass `cls` from its JSON form `data`, found at `path`."""
    if not isinstance(data, dict):
        where = _where(path) or cls.__name__
        raise ConfigError(where, f"must be a JSON object, got {type(data).__name__}")
    specs, names = _schema(cls)
    if not names.issuperset(data):
        where = _where(path) or cls.__name__
        raise ConfigError(where, f"unknown key(s) {sorted(data.keys() - names)}")
    kwargs = {}
    for name, read, required, _ in specs:
        if name in data:
            kwargs[name] = read(data[name], (path, name))
        elif required:
            raise ConfigError(_where((path, name)), "required field missing")
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # names its field relative to this object
        raise ConfigError(_where((path, exc.field)), exc.problem) from None


def _echo(value: Any, inf_token: bool = False) -> Any:
    if isinstance(value, Vec3):
        return list(value)
    if is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return "inf" if inf_token and value == math.inf else value


def to_dict(obj: Any) -> dict:
    """JSON-shaped echo of a config dataclass that parse() reads back to an
    equal object; fields holding None are left out."""
    values = ((name, getattr(obj, name), inf) for name, _, _, inf in _schema(type(obj))[0])
    return {name: _echo(value, inf) for name, value, inf in values if value is not None}


def load(cls: type, path: str | Path) -> Any:
    """Read a JSON file and parse it as config dataclass `cls`."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"file {path}", str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"file {path}", f"invalid JSON ({exc})") from None
    return parse(cls, data)


def parse_scenario(data: Any) -> ScenarioConfig:
    """Validate a JSON-shaped dict against the scenario schema; unknown keys
    at any level are rejected and a ConfigError names the offending field."""
    return parse(ScenarioConfig, data)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-shaped echo of a config; parse_scenario() round-trips it."""
    return to_dict(cfg)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    return load(ScenarioConfig, path)
