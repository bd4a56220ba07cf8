"""Positional low-level controllers and the tilt-driven point-mass plant.

Two LLC families convert a positional reference into horizontal tilt angles:

  family A (PID-XY):      e = (ref - p) - k_v * v;  tilt = clamp(k_p * e + k_i * integral(e))
  family B (Explicit-XY): a = (e - v * t_delta) / t_delta^2;  tilt = clamp(arctan(a / 9.81))

The plant is a point mass accelerating at 9.81 * tan(tilt) per horizontal
axis (semi-implicit Euler) with a critically damped second-order response in
z.  Family B is the faster, more aggressive of the two: on a step it reaches
the reference in under half family A's rise time but overshoots more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import atan, tan
from typing import Literal

import numpy as np

from .model import Vec3

__all__ = [
    "GRAVITY",
    "PlantState",
    "LLCFamily",
    "LLCConfig",
    "StepResponseMetrics",
    "pid_xy_tilt",
    "explicit_xy_tilt",
    "integrate_plant",
    "step_trajectory",
    "step_response",
]

GRAVITY = 9.81  # m/s^2

LLCFamily = Literal["A", "B"]


@dataclass
class PlantState:
    """Point-mass state of one agent; integrator_xy is family A's PID memory."""

    position: Vec3
    velocity: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, 0.0))
    integrator_xy: tuple[float, float] = (0.0, 0.0)
    mass: float = 0.031

    def __post_init__(self) -> None:
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not (self.position.is_finite() and self.velocity.is_finite()):
            name = "position" if not self.position.is_finite() else "velocity"
            raise ValueError(f"plant {name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class LLCConfig:
    """LLC family selection and gains.

    Family A uses k_p / k_i / k_v; family B uses t_delta.  Tilt limits and
    the z time constant apply to both.  Defaults are tuned so family B rises
    in well under half family A's time while overshooting roughly 50% more.
    """

    family: LLCFamily
    k_v: float = 1.4
    k_p: float = 0.08
    k_i: float = 0.01
    tilt_min: float = -0.35
    tilt_max: float = 0.35
    t_delta: float = 0.5
    z_time_constant: float = 0.4

    def __post_init__(self) -> None:
        if self.family not in ("A", "B"):
            raise ValueError(f"LLC family must be 'A' or 'B', got {self.family!r}")
        if not self.tilt_min < 0.0 < self.tilt_max:
            raise ValueError(
                f"tilt limits must straddle 0, got [{self.tilt_min}, {self.tilt_max}]"
            )
        for name in ("k_v", "k_p", "k_i"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.t_delta > 0.0:
            raise ValueError(f"t_delta must be positive, got {self.t_delta}")
        if not self.z_time_constant > 0.0:
            raise ValueError(f"z_time_constant must be positive, got {self.z_time_constant}")


@dataclass(frozen=True)
class StepResponseMetrics:
    """Rise/overshoot/settling summary of a single-axis step from rest.

    Times are math.inf and settled is False when the response never reaches
    the corresponding band within the simulated duration.
    """

    rise_time_90: float
    overshoot_pct: float
    settling_time_2pct: float
    settled: bool


def _fly(row: list[float], ref: tuple, cfg: LLCConfig | None, z_time_constant: float,
         dt: float, steps: int) -> tuple[float, float]:
    """Advance the float state row [px, py, pz, vx, vy, vz, ix, iy] in place by
    `steps` LLC + plant steps of dt toward ref (x, y, z); return the last
    tilts.  With cfg None there is no LLC and ref is (tilt_x, tilt_y, z_ref).
    The simulator and every function below run this loop; it validates nothing.
    """
    px, py, pz, vx, vy, vz, ix, iy = row
    rx, ry, rz = ref
    tx, ty = rx, ry
    tau, tau2 = z_time_constant, z_time_constant**2
    family = None if cfg is None else cfg.family
    if family is not None:
        lo, hi, k_v, k_p, k_i, t_delta = (
            cfg.tilt_min, cfg.tilt_max, cfg.k_v, cfg.k_p, cfg.k_i, cfg.t_delta)
        t_delta2 = t_delta**2 if family == "B" else None
    for _ in range(steps):
        if family == "A":  # anti-windup: a clamped axis keeps its old integral
            e = (rx - px) - k_v * vx
            i_new = ix + e * dt
            raw = k_p * e + k_i * i_new
            tx = lo if raw < lo else hi if raw > hi else raw
            if tx == raw:
                ix = i_new
            e = (ry - py) - k_v * vy
            i_new = iy + e * dt
            raw = k_p * e + k_i * i_new
            ty = lo if raw < lo else hi if raw > hi else raw
            if ty == raw:
                iy = i_new
        elif family == "B":
            tx = atan((((rx - px) - vx * t_delta) / t_delta2) / GRAVITY)
            tx = lo if tx < lo else hi if tx > hi else tx
            ty = atan((((ry - py) - vy * t_delta) / t_delta2) / GRAVITY)
            ty = lo if ty < lo else hi if ty > hi else ty
        az = (rz - pz) / tau2 - 2.0 * vz / tau
        vx, vy, vz = vx + GRAVITY * tan(tx) * dt, vy + GRAVITY * tan(ty) * dt, vz + az * dt
        px, py, pz = px + vx * dt, py + vy * dt, pz + vz * dt
    row[:] = (px, py, pz, vx, vy, vz, ix, iy)
    return (tx, ty)


def pid_xy_tilt(
    state: PlantState,
    ref_xy: tuple[float, float],
    cfg: LLCConfig,
    dt: float,
) -> tuple[float, float]:
    """Family A tilt command; updates state.integrator_xy in place.

    The velocity-damped error e = (ref - p) - k_v * v makes e vanish at the
    steady cruise condition offset = k_v * speed.  Anti-windup: the
    integrator update is discarded on any axis whose output is clamped.
    """
    if cfg.family != "A":
        raise ValueError(f"pid_xy_tilt requires family 'A', got {cfg.family!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    row = [*state.position, *state.velocity, *state.integrator_xy]
    # Only the tilts and the integrator are kept, so any time constant will do.
    tilts = _fly(row, (ref_xy[0], ref_xy[1], 0.0), cfg, 1.0, dt, 1)
    state.integrator_xy = (row[6], row[7])
    return tilts


def explicit_xy_tilt(
    state: PlantState,
    ref_xy: tuple[float, float],
    cfg: LLCConfig,
) -> tuple[float, float]:
    """Family B tilt command: constant-acceleration solve over horizon t_delta.

    a = (e - v * t_delta) / t_delta^2 drives the axis so that position error
    and velocity both reach zero after t_delta; with e = 0 it reduces to the
    pure deceleration a = -v / t_delta.
    """
    if cfg.family != "B":
        raise ValueError(f"explicit_xy_tilt requires family 'B', got {cfg.family!r}")
    row = [*state.position, *state.velocity, *state.integrator_xy]
    return _fly(row, (ref_xy[0], ref_xy[1], 0.0), cfg, 1.0, 1.0, 1)  # only the tilts are kept


def integrate_plant(
    state: PlantState,
    tilt_xy: tuple[float, float],
    z_ref: float,
    dt: float,
    z_time_constant: float = 0.4,
) -> PlantState:
    """Advance the point mass by one physics step of dt seconds.

    Horizontal: a = 9.81 * tan(tilt), semi-implicit Euler (v += a dt then
    p += v dt).  Vertical: critically damped second-order pull toward z_ref
    with the given time constant.  Returns a new state; integrator and mass
    carry over unchanged.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not z_time_constant > 0.0:
        raise ValueError(f"z_time_constant must be positive, got {z_time_constant}")
    row = [*state.position, *state.velocity, *state.integrator_xy]
    _fly(row, (tilt_xy[0], tilt_xy[1], z_ref), None, z_time_constant, dt, 1)
    return PlantState(Vec3(*row[:3]), Vec3(*row[3:6]), state.integrator_xy, state.mass)


def step_trajectory(
    cfg: LLCConfig,
    step: float,
    duration: float = 20.0,
    dt: float = 0.001,
) -> np.ndarray:
    """Closed-loop single-axis step from rest.

    Returns an (n, 4) array of rows (time_s, position_m, velocity_m_s,
    tilt_rad) sampled every dt, starting at t = 0 before any motion.
    """
    if step < 0.0:
        raise ValueError(f"step must be >= 0, got {step}")
    if not (duration > 0.0 and dt > 0.0):
        raise ValueError("duration and dt must be positive")
    row = [0.0] * 8
    ref = (step, 0.0, 0.0)
    steps = round(duration / dt)
    rows = np.empty((steps + 1, 4))
    rows[0] = (0.0, 0.0, 0.0, 0.0)
    for i in range(1, steps + 1):
        tilt_x, _ = _fly(row, ref, cfg, cfg.z_time_constant, dt, 1)
        PlantState(Vec3(*row[:3]), Vec3(*row[3:6]))  # raises once a value is not finite
        rows[i] = (i * dt, row[0], row[3], tilt_x)
    return rows


def step_response(
    cfg: LLCConfig,
    step: float,
    duration: float = 20.0,
    dt: float = 0.001,
) -> StepResponseMetrics:
    """Characterize the closed-loop step: 90% rise time, peak overshoot %,
    and 2% settling time.  A zero step reports all-zero metrics."""
    if step == 0.0:
        return StepResponseMetrics(0.0, 0.0, 0.0, True)
    rows = step_trajectory(cfg, step, duration, dt)
    t = rows[:, 0]
    x = rows[:, 1]

    reached = np.flatnonzero(x >= 0.9 * step)
    rise = float(t[reached[0]]) if reached.size else math.inf

    overshoot = max(0.0, (float(x.max()) - step) / step * 100.0)

    outside = np.flatnonzero(np.abs(x - step) > 0.02 * step)
    if outside.size == 0:
        settle = 0.0
    elif outside[-1] == len(x) - 1:
        settle = math.inf
    else:
        settle = float(t[outside[-1] + 1])

    settled = math.isfinite(rise) and math.isfinite(settle)
    return StepResponseMetrics(rise, overshoot, settle, settled)
