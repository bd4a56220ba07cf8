"""Canonical scenario presets: obstacle layouts, default weights, and a
scenario builder used by the sweep command and the shipped scenario files.

Obstacle coordinates are hand-placed: the three-cylinder layout is a gate
slightly narrower than the flock followed by a center blocker right behind
it (compresses the flock, then splits it while compressed), and the eleven-
cylinder layout is a staggered lattice with 2.1 m gaps whose centerline
obstacles force the flock to split on every row.  The flock forms near the
origin and commutes along +x through the field and back.
"""

from __future__ import annotations

import math

from .controller import ControllerConfig
from .config import ScenarioConfig, SpawnSpec, Waypoint
from .llc import LLCConfig
from .model import CostParams, Obstacle, Vec3

__all__ = [
    "OBSTACLE_LAYOUTS",
    "DEFAULT_WEIGHTS",
    "R_DRONE",
    "R_SAFETY",
    "R_OBSTACLE",
    "resolve_layout",
    "build_scenario",
    "hardware_scenario",
]

R_DRONE = 0.07  # m
R_SAFETY = 0.06  # m, safety margin baked into thresholds
R_OBSTACLE = 0.15  # m, cylinder radius used by every layout

DEFAULT_WEIGHTS = {"w_coh": 20.0, "w_sep": 9.0, "w_tar": 150.0, "w_obs": 12.0}

OBSTACLE_LAYOUTS: dict[str, tuple[Obstacle, ...]] = {
    "none": (),
    "three": (
        Obstacle(2.0, 0.5, R_OBSTACLE),
        Obstacle(2.0, -0.5, R_OBSTACLE),
        Obstacle(3.0, 0.0, R_OBSTACLE),
    ),
    "eleven": (
        Obstacle(2.2, 1.05, R_OBSTACLE),
        Obstacle(2.2, -1.05, R_OBSTACLE),
        Obstacle(3.2, 0.0, R_OBSTACLE),
        Obstacle(3.2, 2.1, R_OBSTACLE),
        Obstacle(3.2, -2.1, R_OBSTACLE),
        Obstacle(4.2, 1.05, R_OBSTACLE),
        Obstacle(4.2, -1.05, R_OBSTACLE),
        Obstacle(5.2, 0.0, R_OBSTACLE),
        Obstacle(5.2, 2.1, R_OBSTACLE),
        Obstacle(5.2, -2.1, R_OBSTACLE),
        Obstacle(6.2, 1.05, R_OBSTACLE),
    ),
}

# Each layout's name and obstacle count, as str(), to its name.
_LAYOUT_KEYS = {**{name: name for name in OBSTACLE_LAYOUTS},
                "0": "none", "3": "three", "11": "eleven"}

# Path end for each layout: far enough to clear the last obstacle row.
_LAYOUT_GOAL_X = {"none": 4.0, "three": 5.2, "eleven": 7.0}


def resolve_layout(name: str | int) -> tuple[str, tuple[Obstacle, ...]]:
    """Accepts a layout name ('none', 'three', 'eleven') or obstacle count (0/3/11)."""
    key = _LAYOUT_KEYS.get(str(name))
    if key is None:
        raise ValueError(f"unknown obstacle layout {name!r}; expected one of {list(_LAYOUT_KEYS)}")
    return key, OBSTACLE_LAYOUTS[key]


def _spawn_box(agent_count: int) -> SpawnSpec:
    # Scale the box with the flock so rejection sampling always succeeds.
    half = max(1.2, 0.45 * math.sqrt(agent_count))
    return SpawnSpec(
        box_min=Vec3(-half, -half, 1.0),
        box_max=Vec3(half, half, 1.8),
        min_spacing=0.4,
    )


def build_scenario(
    agent_count: int,
    layout: str | int = "none",
    controller_kind: str = "SPC",
    llc_family: str = "A",
    seed: int = 0,
    duration: float = 60.0,
    noise_sigma: float = 0.10,
) -> ScenarioConfig:
    """Standard commute scenario with the default parameter set.

    The flock forms at the origin for 12 s, crosses the obstacle field to the
    layout's goal, and returns, all at cruise height 1.4 m.
    """
    name, obstacles = resolve_layout(layout)
    goal_x = _LAYOUT_GOAL_X[name]
    n_star = 5 if llc_family == "A" else 3
    pfc_gain = 0.007 if llc_family == "A" else 0.005
    return ScenarioConfig(
        agent_count=agent_count,
        spawn=_spawn_box(agent_count),
        obstacles=obstacles,
        waypoints=(
            Waypoint(0.0, Vec3(0.0, 0.0, 1.4)),
            Waypoint(12.0, Vec3(goal_x, 0.0, 1.4)),
            Waypoint(38.0, Vec3(0.0, 0.0, 1.4)),
        ),
        cost=CostParams(r_drone=R_DRONE, **DEFAULT_WEIGHTS),
        controller=ControllerConfig(
            kind=controller_kind,
            epsilon=0.06,
            n_star=n_star,
            pfc_gain=pfc_gain,
            dynamic_n=True,
        ),
        llc=LLCConfig(family=llc_family),
        r_h=0.9,
        noise_sigma=noise_sigma,
        physics_dt=0.01,
        control_period=0.1,
        duration=duration,
        seed=seed,
        # shortened runs (quick sweeps) still need a valid settling window
        formation_time=min(10.0, 0.5 * duration),
    )


def hardware_scenario(seed: int = 0) -> ScenarioConfig:
    """Parameter preset of the small-arena hardware runs: tighter candidate
    spacing (0.025 m), N* = 3, short hops, no obstacles."""
    return ScenarioConfig(
        agent_count=4,
        spawn=SpawnSpec(box_min=Vec3(-0.8, -0.8, 0.8), box_max=Vec3(0.8, 0.8, 1.2), min_spacing=0.4),
        obstacles=(),
        waypoints=(
            Waypoint(0.0, Vec3(0.0, 0.0, 1.0)),
            Waypoint(20.0, Vec3(1.5, 0.0, 1.0)),
            Waypoint(40.0, Vec3(0.0, 0.0, 1.0)),
        ),
        cost=CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0, r_drone=R_DRONE),
        controller=ControllerConfig(kind="SPC", epsilon=0.025, n_star=3, dynamic_n=True),
        llc=LLCConfig(family="A"),
        r_h=0.9,
        noise_sigma=0.10,
        physics_dt=0.01,
        control_period=0.1,
        duration=60.0,
        seed=seed,
        formation_time=10.0,
    )
