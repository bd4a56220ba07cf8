"""Positional low-level controllers and the tilt-driven point-mass plant.

An agent's plant state is one float row [px, py, pz, vx, vy, vz, ix, iy]:
position, velocity, then family A's integrator.  Two LLC families convert a
positional reference into horizontal tilt angles:

  family A (PID-XY):      e = (ref - p) - k_v * v;  tilt = clamp(k_p * e + k_i * integral(e))
  family B (Explicit-XY): a = (e - v * t_delta) / t_delta^2 clamped to 9.81 * tan(tilt limits)

The plant is a point mass accelerating at 9.81 * tan(tilt) (family B: at a,
so tilt = arctan(a / 9.81)) per horizontal axis (semi-implicit Euler) with a
critically damped second-order response in z.  fly() advances a batch of
state rows through both, row by row; family B batches of _BLOCK_ROWS rows
or more take one array step instead, with the same bits.  fly() reports no
tilt: only step_trajectory records one, for its single row.  Family B is the
faster, more aggressive of the two: on a step it reaches the reference in
under half family A's rise time but overshoots more.

No SIMD-dispatched transcendental ufunc (np.tan, np.arctan, np.exp, np.log,
np.power with an exponent other than 2) feeds a recorded value: tan and
atan come from the math module (libm), so the state bits do not depend on
which SIMD kernels numpy dispatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import atan, tan
from typing import Literal, Sequence

import numpy as np

from .model import _INTEGER, _NONNEGATIVE, _POSITIVE, ConfigError, Vec3, _Rule, _check_fields
from .model import _field, _one_of

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
_BLOCK_ROWS = 21  # measured: from 21 rows on fly()'s array step beats family B's row loop

LLCFamily = Literal["A", "B"]
# The plant divides by the squares of t_delta and z_time_constant.
_SQUARABLE = _Rule(lambda v: v > 0.0 and 0.0 < v * v < math.inf,
                   "positive with a positive, finite square (about 1.6e-162 to 1.3e154)")


@dataclass(frozen=True)
class LLCConfig:
    """LLC family selection and gains.

    Family A uses k_p / k_i / k_v; family B uses t_delta.  Tilt limits and
    the z time constant apply to both.  Defaults are tuned so family B rises
    in well under half family A's time while overshooting roughly 50% more.
    """

    family: LLCFamily = _field(_one_of(LLCFamily))
    k_v: float = _field(_NONNEGATIVE, default=1.4)
    k_p: float = _field(_NONNEGATIVE, default=0.08)
    k_i: float = _field(_NONNEGATIVE, default=0.01)
    # The limits straddle 0, and tan changes sign at +-pi/2.
    tilt_min: float = _field(_Rule(lambda v: -math.pi / 2 < v < 0.0, "in (-pi/2, 0) rad"),
                             default=-0.35)
    tilt_max: float = _field(_Rule(lambda v: 0.0 < v < math.pi / 2, "in (0, pi/2) rad"),
                             default=0.35)
    t_delta: float = _field(_SQUARABLE, default=0.5)
    z_time_constant: float = _field(_SQUARABLE, default=0.4)

    def __post_init__(self) -> None:
        _check_fields(self)


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


def _explicit_tilt(a: float, a_lo: float, a_hi: float, cfg: LLCConfig) -> float:
    """Family B's tilt for its clamped acceleration a: the limit where a is
    clamped, else atan(a / g), kept within the limits."""
    lo, hi = cfg.tilt_min, cfg.tilt_max
    return lo if a <= a_lo else hi if a >= a_hi else min(max(atan(a / GRAVITY), lo), hi)


def _fly(rows: list[list[float]], refs: Sequence[Sequence[float]], cfg: LLCConfig,
         dt: float, steps: int) -> tuple[float, float]:
    """Advance each float state row in place by `steps` (>= 1) LLC + plant
    steps of dt toward its ref (x, y, z); return the last row's last tilts
    ((0.0, 0.0) for no rows).  fly() and step_trajectory run this loop; it
    validates nothing."""
    lo, hi, k_v, k_p, k_i, t_delta = (
        cfg.tilt_min, cfg.tilt_max, cfg.k_v, cfg.k_p, cfg.k_i, cfg.t_delta)
    t_delta2 = t_delta**2
    a_lo, a_hi = GRAVITY * tan(lo), GRAVITY * tan(hi)
    tau, tau2 = cfg.z_time_constant, cfg.z_time_constant**2
    pid = cfg.family == "A"
    tx = ty = ax = ay = 0.0
    for row, (rx, ry, rz) in zip(rows, refs):
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
                ax, ay = GRAVITY * tan(tx), GRAVITY * tan(ty)
            else:
                ax = ((rx - px) - vx * t_delta) / t_delta2
                ax = a_lo if ax < a_lo else a_hi if ax > a_hi else ax
                ay = ((ry - py) - vy * t_delta) / t_delta2
                ay = a_lo if ay < a_lo else a_hi if ay > a_hi else ay
            az = (rz - pz) / tau2 - 2.0 * vz / tau
            vx, vy, vz = vx + ax * dt, vy + ay * dt, vz + az * dt
            px, py, pz = px + vx * dt, py + vy * dt, pz + vz * dt
        row[:] = (px, py, pz, vx, vy, vz, ix, iy)
    if pid:
        return tx, ty
    return _explicit_tilt(ax, a_lo, a_hi, cfg), _explicit_tilt(ay, a_lo, a_hi, cfg)


def _fly_block(states: np.ndarray, refs: np.ndarray, cfg: LLCConfig, dt: float,
               steps: int) -> np.ndarray:
    """Family B's _fly for many rows as one array step: the loop's IEEE
    operations in its order on a transposed (8, n) copy, so every row gets
    the loop's bits, as new rows.  Every step writes into two (3, n) planes."""
    t_delta, t_delta2 = cfg.t_delta, cfg.t_delta**2
    tau, tau2 = cfg.z_time_constant, cfg.z_time_constant**2
    a_lo, a_hi = GRAVITY * tan(cfg.tilt_min), GRAVITY * tan(cfg.tilt_max)
    s, r = states.T.copy(), refs.T.copy()
    p, v = s[0:3], s[3:6]
    a, tmp = np.empty_like(p), np.empty_like(p)  # rows x, y: the tilt law's acceleration; row z: az
    axy, vxy, txy, az, vz, tz = a[:2], v[:2], tmp[:2], a[2], v[2], tmp[2]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            np.subtract(r, p, out=a)
            np.subtract(axy, np.multiply(vxy, t_delta, out=txy), out=axy)
            np.divide(axy, t_delta2, out=axy)
            np.minimum(np.maximum(axy, a_lo, out=axy), a_hi, out=axy)
            np.divide(az, tau2, out=az)
            np.subtract(az, np.divide(np.multiply(vz, 2.0, out=tz), tau, out=tz), out=az)
            np.add(v, np.multiply(a, dt, out=tmp), out=v)
            np.add(p, np.multiply(v, dt, out=tmp), out=p)
    return s.T.copy()


def _step_plant(states: np.ndarray, refs: np.ndarray, cfg: LLCConfig, dt: float,
                steps: int) -> np.ndarray:
    """fly()'s steps, unchecked, into new rows: the engine's plant call."""
    if cfg.family == "B" and states.shape[0] >= _BLOCK_ROWS:
        return _fly_block(states, refs, cfg, dt, steps)
    rows = states.tolist()
    _fly(rows, refs.tolist(), cfg, dt, steps)
    return np.array(rows) if rows else states.copy()  # [] is shape (0,), not (0, 8)


def fly(states: np.ndarray, refs: np.ndarray, cfg: LLCConfig, dt: float,
        steps: int = 1) -> None:
    """Advance the float64 state rows states (n, 8) in place by `steps` LLC +
    plant steps of dt seconds toward the positional references refs (n, 3).
    Family A's integrator keeps its old value on an axis whose output is
    clamped.  Shapes, dt and steps are checked; values are not, so a
    non-finite state flows through.  _step_plant takes the same steps unchecked.
    """
    if not (isinstance(states, np.ndarray) and states.dtype == float and states.shape[1:] == (8,)):
        raise ValueError(f"states must be a float64 (n, 8) array, got {np.shape(states)}")
    refs = np.asarray(refs, dtype=float)
    if refs.shape != (states.shape[0], 3):
        raise ValueError(f"refs must have shape ({states.shape[0]}, 3), got {refs.shape}")
    _POSITIVE.check(dt, "dt")
    _INTEGER.check(steps, "steps")
    if steps < 1:
        raise ConfigError("steps", f"must be >= 1, got {steps}")
    states[:] = _step_plant(states, refs, cfg, dt, steps)


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
    _NONNEGATIVE.check(step, "step")
    _POSITIVE.check(duration, "duration")
    _POSITIVE.check(dt, "dt")
    if not duration / dt <= _MAX_SAMPLES + 0.5:  # round() gives at most _MAX_SAMPLES
        raise ConfigError("duration / dt", f"must give at most {_MAX_SAMPLES} samples, "
                          f"got duration {duration} and dt {dt}")
    row, ref = [0.0] * 8, (step, 0.0, 0.0)
    steps = round(duration / dt)
    rows = np.empty((steps + 1, 4))
    rows[0] = (0.0, 0.0, 0.0, 0.0)
    for i in range(1, steps + 1):
        tilt_x, _ = _fly([row], (ref,), cfg, dt, 1)
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
