"""Per-agent high-level controllers.

Spatial predictive control (SPC) builds a line of candidate setpoints spaced
epsilon apart along the negative cost gradient and picks the candidate with
the lowest cost against the frozen neighbor snapshot.  The potential-field
controller (PFC) baseline steps directly along the raw gradient scaled by a
fixed gain.  Both are pure functions of one agent's observation snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .model import CostBreakdown, CostParams, Neighbors, Point, Vec3
from .model import _cost_terms, _cost_totals, _gradient, _neighbor_array, _position_array

__all__ = [
    "ControllerKind",
    "ControllerConfig",
    "Setpoint",
    "dynamic_lookahead_count",
    "build_candidate_set",
    "spc_setpoint",
    "pfc_setpoint",
]

# Below this gradient norm the cost surface is treated as flat and the agent
# holds position instead of normalizing a numerically meaningless direction.
HOLD_GRADIENT_NORM = 1e-9

ControllerKind = Literal["SPC", "PFC"]


@dataclass(frozen=True)
class ControllerConfig:
    """High-level controller selection and its parameters.

    epsilon is the candidate spacing in metres, n_star the base candidate
    count, pfc_gain the PFC step gain (used only when kind="PFC"), and
    dynamic_n enables distance-scaled candidate counts for SPC.
    """

    kind: ControllerKind
    epsilon: float = 0.06
    n_star: int = 5
    pfc_gain: float = 0.007
    dynamic_n: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("SPC", "PFC"):
            raise ValueError(f"controller kind must be 'SPC' or 'PFC', got {self.kind!r}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (isinstance(self.n_star, int) and self.n_star >= 1):
            raise ValueError(f"n_star must be an integer >= 1, got {self.n_star!r}")
        if self.kind == "PFC" and not (self.pfc_gain > 0.0 and math.isfinite(self.pfc_gain)):
            raise ValueError(f"pfc_gain must be positive for PFC, got {self.pfc_gain}")


@dataclass(frozen=True)
class Setpoint:
    """Next reference position handed to the low-level controller, with the
    cost breakdown and gradient norm at the agent's own observed position."""

    position: Vec3
    cost: CostBreakdown
    grad_norm: float


def dynamic_lookahead_count(n_star: int, dist_to_target: float) -> int:
    """Candidate count N = ceil(n_star * max(1, min(1.5 * (dist + 0.5), 3))).

    Grows with distance to the target so far-away flocks take longer strides;
    clamps keep the result in [n_star, 3 * n_star].
    """
    if n_star < 1:
        raise ValueError(f"n_star must be >= 1, got {n_star}")
    if dist_to_target < 0.0:
        raise ValueError(f"dist_to_target must be >= 0, got {dist_to_target}")
    factor = max(1.0, min(1.5 * (dist_to_target + 0.5), 3.0))
    return math.ceil(n_star * factor)


def _norm(v: np.ndarray) -> float:
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


def _candidate_ladder(p: np.ndarray, gradient: np.ndarray, epsilon: float, n: int) -> np.ndarray:
    """(n, 3) array whose row m - 1 is p - m * epsilon * gradient / ||gradient||."""
    if n < 1:
        raise ValueError(f"candidate count must be >= 1, got {n}")
    norm = _norm(gradient)
    if norm == 0.0:
        raise ValueError("cannot build candidates from a zero gradient")
    step = -epsilon * gradient / norm
    return p + np.arange(1.0, n + 1.0)[:, None] * step


def build_candidate_set(p_i: Vec3, gradient: Vec3, epsilon: float, n: int) -> list[Vec3]:
    """Candidate m (m = 1..n) sits at p_i - m * epsilon * gradient / ||gradient||."""
    p, g = np.array(tuple(p_i), dtype=float), np.array(tuple(gradient), dtype=float)
    return [Vec3(*row) for row in _candidate_ladder(p, g, epsilon, n).tolist()]


def _decide(p: np.ndarray, nbr: np.ndarray, params: CostParams, cfg: ControllerConfig,
            setpoint: np.ndarray, cost: np.ndarray) -> float:
    """The SPC or PFC decision at p (3,) against nbr (h, 3) on trusted arrays:
    writes the setpoint into setpoint (3,) and the self cost row (total, coh,
    sep, tar, obs) into cost (5,), and returns the gradient norm."""
    gradient = _gradient(p, nbr, params)[4]
    norm = _norm(gradient)
    points = p[None]  # row 0 is the agent itself, rows 1..n the SPC candidates
    if cfg.kind == "SPC" and HOLD_GRADIENT_NORM <= norm < math.inf:  # a NaN norm holds too
        n = cfg.n_star
        if cfg.dynamic_n and params.target is not None:
            (x, y, z), t = p.tolist(), params.target
            dx, dy, dz = x - t.x, y - t.y, z - t.z
            n = dynamic_lookahead_count(n, math.sqrt(dx * dx + dy * dy + dz * dz))
        points = np.concatenate((points, _candidate_ladder(p, gradient, cfg.epsilon, n)))
    terms = _cost_terms(points, nbr, params)
    totals = _cost_totals(terms)
    if cfg.kind == "PFC":
        setpoint[:] = p - cfg.pfc_gain * gradient
    else:
        best, best_cost = 0, math.inf
        for m, total in enumerate(totals.tolist()[1:], start=1):
            if total < best_cost:
                best, best_cost = m, total
        setpoint[:] = points[best]
    cost[0] = totals[0]
    cost[1:] = terms[0]
    return norm


def _setpoint(p_i: Point, neighbors: Neighbors, params: CostParams, cfg: ControllerConfig,
              kind: ControllerKind) -> Setpoint:
    if cfg.kind != kind:
        raise ValueError(f"{kind.lower()}_setpoint requires kind={kind!r}, got {cfg.kind!r}")
    setpoint, cost = np.empty(3), np.empty(5)
    norm = _decide(_position_array(p_i), _neighbor_array(neighbors), params, cfg, setpoint, cost)
    total, coh, sep, tar, obs = cost.tolist()
    return Setpoint(Vec3(*setpoint.tolist()), CostBreakdown(coh, sep, tar, obs, total), norm)


def spc_setpoint(
    p_i: Vec3, neighbors: Neighbors, params: CostParams, cfg: ControllerConfig
) -> Setpoint:
    """Pick the candidate with minimal cost; hold position on a flat gradient.

    Ties are broken toward the nearest candidate (smallest m).  The agent's
    own position and every candidate are scored in one batch against the
    same frozen snapshot that produced the gradient; neighbor motion during
    the step is ignored.  The agent also holds when the gradient norm is not
    finite (no usable direction) and when no candidate has a finite cost.
    """
    return _setpoint(p_i, neighbors, params, cfg, "SPC")


def pfc_setpoint(
    p_i: Vec3, neighbors: Neighbors, params: CostParams, cfg: ControllerConfig
) -> Setpoint:
    """Step along the full unnormalized gradient: p_i - pfc_gain * grad c(p_i)."""
    return _setpoint(p_i, neighbors, params, cfg, "PFC")
