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
from typing import Iterable, Literal, Sequence

import numpy as np

from .model import CostParams, Vec3, evaluate_cost, evaluate_gradient

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
    """Next reference position handed to the low-level controller."""

    position: Vec3


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


def build_candidate_set(
    p_i: Vec3,
    gradient: Vec3,
    epsilon: float,
    n: int,
) -> list[Vec3]:
    """Candidate m (m = 1..n) sits at p_i - m * epsilon * gradient / ||gradient||."""
    if n < 1:
        raise ValueError(f"candidate count must be >= 1, got {n}")
    norm = gradient.norm()
    if norm == 0.0:
        raise ValueError("cannot build candidates from a zero gradient")
    step = Vec3(
        -epsilon * gradient.x / norm,
        -epsilon * gradient.y / norm,
        -epsilon * gradient.z / norm,
    )
    return [Vec3(p_i.x + m * step.x, p_i.y + m * step.y, p_i.z + m * step.z) for m in range(1, n + 1)]


def _candidate_count(cfg: ControllerConfig, p_i: Vec3, params: CostParams) -> int:
    if cfg.dynamic_n and params.target is not None:
        return dynamic_lookahead_count(cfg.n_star, (p_i - params.target).norm())
    return cfg.n_star


def spc_setpoint(
    p_i: Vec3,
    neighbors: Iterable[Vec3] | np.ndarray | Sequence[Sequence[float]],
    params: CostParams,
    cfg: ControllerConfig,
) -> Setpoint:
    """Pick the candidate with minimal cost; hold position on a flat gradient.

    Ties are broken toward the nearest candidate (smallest m).  The candidate
    costs are evaluated against the same frozen snapshot that produced the
    gradient; neighbor motion during the step is ignored.  The agent also
    holds when the gradient norm is not finite (no usable direction) and when
    no candidate has a finite cost.
    """
    if cfg.kind != "SPC":
        raise ValueError(f"spc_setpoint requires kind='SPC', got {cfg.kind!r}")
    gradient = evaluate_gradient(p_i, neighbors, params).total
    if not HOLD_GRADIENT_NORM <= gradient.norm() < math.inf:  # NaN holds too
        return Setpoint(position=p_i)
    n = _candidate_count(cfg, p_i, params)
    best = p_i
    best_cost = math.inf
    for candidate in build_candidate_set(p_i, gradient, cfg.epsilon, n):
        cost = evaluate_cost(candidate, neighbors, params).total
        if cost < best_cost:
            best = candidate
            best_cost = cost
    return Setpoint(position=best)


def pfc_setpoint(
    p_i: Vec3,
    neighbors: Iterable[Vec3] | np.ndarray | Sequence[Sequence[float]],
    params: CostParams,
    cfg: ControllerConfig,
) -> Setpoint:
    """Step along the full unnormalized gradient: p_i - pfc_gain * grad c(p_i)."""
    if cfg.kind != "PFC":
        raise ValueError(f"pfc_setpoint requires kind='PFC', got {cfg.kind!r}")
    gradient = evaluate_gradient(p_i, neighbors, params).total
    return Setpoint(
        position=Vec3(
            p_i.x - cfg.pfc_gain * gradient.x,
            p_i.y - cfg.pfc_gain * gradient.y,
            p_i.z - cfg.pfc_gain * gradient.z,
        )
    )
