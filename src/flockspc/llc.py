"""Positional low-level controllers and the tilt-driven point-mass plant.

An agent's plant state is one float row [px, py, pz, vx, vy, vz, ix, iy]:
position, velocity, then family A's integrator.  Two LLC families convert a
positional reference into horizontal tilt angles:

  family A (PID-XY):      e = (ref - p) - k_v * v;  tilt = clamp(k_p * e + k_i * integral(e))
  family B (Explicit-XY): a = (e - v * t_delta) / t_delta^2;  tilt = clamp(arctan(a / 9.81))

The plant is a point mass accelerating at 9.81 * tan(tilt) per horizontal
axis (semi-implicit Euler) with a critically damped second-order response in
z.  fly() advances a batch of state rows through both.  Family B is the
faster, more aggressive of the two: on a step it reaches the reference in
under half family A's rise time but overshoots more.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from math import atan, tan
from typing import Literal, Sequence

import numpy as np

from .model import Vec3

__all__ = [
    "GRAVITY",
    "LLCFamily",
    "LLCConfig",
    "StepResponseMetrics",
    "fly",
    "step_trajectory",
    "step_response",
    "step_metrics",
]

GRAVITY = 9.81  # m/s^2
_MAX_SAMPLES = 1_000_000  # step_trajectory's 32 MB of rows: 1000 s at dt 0.001
_PACK_ROW = struct.Struct("8d").pack_into  # one float64 state row, native byte order

LLCFamily = Literal["A", "B"]


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
        if not -math.inf < self.tilt_min < 0.0 < self.tilt_max < math.inf:
            raise ValueError("tilt limits must be finite and straddle 0, "
                             f"got [{self.tilt_min}, {self.tilt_max}]")
        for name in ("k_v", "k_p", "k_i"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        for name in ("t_delta", "z_time_constant"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


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


def _fly(rows: list[list[float]], refs: Sequence[Sequence[float]], cfg: LLCConfig,
         dt: float, steps: int) -> list[tuple[float, float]]:
    """Advance each float state row in place by `steps` (>= 1) LLC + plant
    steps of dt toward its ref (x, y, z); return each row's last tilts.
    fly() and step_trajectory run this loop; it validates nothing."""
    lo, hi, k_v, k_p, k_i, t_delta = (
        cfg.tilt_min, cfg.tilt_max, cfg.k_v, cfg.k_p, cfg.k_i, cfg.t_delta)
    t_delta2 = t_delta**2
    tau, tau2 = cfg.z_time_constant, cfg.z_time_constant**2
    pid = cfg.family == "A"
    tilts = [(0.0, 0.0)] * len(rows)  # sized once: no regrowth per call
    for i, (row, (rx, ry, rz)) in enumerate(zip(rows, refs)):
        px, py, pz, vx, vy, vz, ix, iy = row
        for _ in range(steps):
            if pid:  # anti-windup: a clamped axis keeps its old integral
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
            else:
                tx = atan((((rx - px) - vx * t_delta) / t_delta2) / GRAVITY)
                tx = lo if tx < lo else hi if tx > hi else tx
                ty = atan((((ry - py) - vy * t_delta) / t_delta2) / GRAVITY)
                ty = lo if ty < lo else hi if ty > hi else ty
            az = (rz - pz) / tau2 - 2.0 * vz / tau
            vx, vy, vz = vx + GRAVITY * tan(tx) * dt, vy + GRAVITY * tan(ty) * dt, vz + az * dt
            px, py, pz = px + vx * dt, py + vy * dt, pz + vz * dt
        row[:] = (px, py, pz, vx, vy, vz, ix, iy)
        tilts[i] = (tx, ty)
    return tilts


def fly(states: np.ndarray, refs: np.ndarray, cfg: LLCConfig, dt: float,
        steps: int = 1) -> np.ndarray:
    """Advance the float64 state rows states (n, 8) in place by `steps` LLC +
    plant steps of dt seconds toward the positional references refs (n, 3);
    return the (n, 2) x/y tilts of the last step.  Family A's integrator
    keeps its old value on an axis whose output is clamped.  Shapes, dt and
    steps are checked; values are not, so a non-finite state flows through.
    """
    if not (isinstance(states, np.ndarray) and states.dtype == float and states.shape[1:] == (8,)):
        raise ValueError(f"states must be a float64 (n, 8) array, got {np.shape(states)}")
    refs = np.asarray(refs, dtype=float)
    if refs.shape != (states.shape[0], 3):
        raise ValueError(f"refs must have shape ({states.shape[0]}, 3), got {refs.shape}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    rows = states.tolist()
    tilts = _fly(rows, refs.tolist(), cfg, dt, steps)
    if states.flags.c_contiguous and states.flags.writeable:
        # Packed row by row into the array's own buffer: no temporary (n, 8)
        # array per call, and faster than building one.
        for i, row in enumerate(rows):
            _PACK_ROW(states, 64 * i, *row)
    else:
        states[:] = rows
    return np.array(tilts, dtype=float).reshape(-1, 2)


def _plant_fault(row: Sequence[float]) -> str | None:
    """Why state row `row` is no plant state ("plant position must be finite,
    got Vec3(...)", position first), or None when it is one."""
    for name, xyz in (("position", row[0:3]), ("velocity", row[3:6])):
        if not all(map(math.isfinite, xyz)):
            return f"plant {name} must be finite, got {Vec3(*map(float, xyz))}"
    return None


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
    if not 0.0 <= step < math.inf:
        raise ValueError(f"step must be >= 0 and finite, got {step}")
    for name, value in (("duration", duration), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not duration / dt <= _MAX_SAMPLES + 0.5:  # round() gives at most _MAX_SAMPLES
        raise ValueError(f"duration / dt must give at most {_MAX_SAMPLES} samples, "
                         f"got duration {duration} and dt {dt}")
    row, ref = [0.0] * 8, (step, 0.0, 0.0)
    steps = round(duration / dt)
    rows = np.empty((steps + 1, 4))
    rows[0] = (0.0, 0.0, 0.0, 0.0)
    for i in range(1, steps + 1):
        [(tilt_x, _)] = _fly([row], (ref,), cfg, dt, 1)
        rows[i] = (i * dt, row[0], row[3], tilt_x)
    if (fault := _plant_fault(row)) is not None:  # a non-finite value stays so
        raise ValueError(fault)
    return rows


def step_response(
    cfg: LLCConfig,
    step: float,
    duration: float = 20.0,
    dt: float = 0.001,
) -> StepResponseMetrics:
    """Characterize the closed-loop step: 90% rise time, peak overshoot %,
    and 2% settling time.  A zero step reports all-zero metrics."""
    return step_metrics(step_trajectory(cfg, step, duration, dt), step)


def step_metrics(rows: np.ndarray, step: float) -> StepResponseMetrics:
    """step_response's metrics of the rows step_trajectory returned for `step`."""
    if step == 0.0:
        return StepResponseMetrics(0.0, 0.0, 0.0, True)
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
