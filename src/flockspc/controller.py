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
from typing import Literal, NamedTuple

import numpy as np

from .model import _POSITIVE, ConfigError, CostBreakdown, CostParams, Neighbors, Point, Vec3
from .model import _Neighborhoods, _Rule, _check_fields, _field, _one_of
from .model import _INTEGER, _cost_terms, _cost_totals, _gradient, _one_neighborhood, _points

__all__ = [
    "ControllerKind",
    "ControllerConfig",
    "Setpoint",
    "dynamic_lookahead_count",
    "spc_setpoint",
    "pfc_setpoint",
]

# Below this gradient norm the cost surface is treated as flat and the agent
# holds position instead of normalizing a numerically meaningless direction.
HOLD_GRADIENT_NORM = 1e-9

# A larger n_star is taken for a mistyped one: a decision scores up to
# 1 + 3 * n_star points per agent at once, and int32 counts overflow past 2**31 / 3.
_MAX_N_STAR = 1000

ControllerKind = Literal["SPC", "PFC"]


@dataclass(frozen=True)
class ControllerConfig:
    """High-level controller selection and its parameters.

    epsilon is the candidate spacing in metres, n_star the base candidate
    count, pfc_gain the PFC step gain (used only when kind="PFC"), and
    dynamic_n enables distance-scaled candidate counts for SPC.
    """

    kind: ControllerKind = _field(_one_of(ControllerKind))
    epsilon: float = _field(_POSITIVE, default=0.06)
    n_star: int = _field(_Rule(lambda v: type(v) is int and 1 <= v <= _MAX_N_STAR,  # True is no int
                               f"an integer in [1, {_MAX_N_STAR}]"), default=5)
    pfc_gain: float = 0.007
    dynamic_n: bool = True

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.kind == "PFC":  # an SPC config leaves pfc_gain unread
            _POSITIVE.check(self.pfc_gain, "pfc_gain")


@dataclass(frozen=True)
class Setpoint:
    """Next reference position handed to the low-level controller, with the
    cost breakdown and gradient norm at the agent's own observed position."""

    position: Vec3
    cost: CostBreakdown
    grad_norm: float


def _lookahead_counts(n_star: int, dist_to_target: np.ndarray) -> np.ndarray:
    # fmax, like Python's max(1.0, nan), turns a NaN distance into 1.0.
    factor = np.fmax(1.0, np.minimum(1.5 * (dist_to_target + 0.5), 3.0))
    return np.ceil(n_star * factor).astype(np.int32)


def dynamic_lookahead_count(n_star: int, dist_to_target: float) -> int:
    """Candidate count N = ceil(n_star * max(1, min(1.5 * (dist + 0.5), 3))).

    Grows with distance to the target so far-away flocks take longer strides;
    clamps keep the result in [n_star, 3 * n_star].
    """
    _INTEGER.check(n_star, "n_star")
    if not 1 <= n_star <= _MAX_N_STAR:
        raise ConfigError("n_star", f"must be in [1, {_MAX_N_STAR}], got {n_star}")
    if dist_to_target < 0.0:  # NaN passes: _lookahead_counts gives it the factor 1
        raise ConfigError("dist_to_target", f"must be >= 0, got {dist_to_target}")
    return int(_lookahead_counts(n_star, np.array([dist_to_target]))[0])


def _norms(v: np.ndarray) -> np.ndarray:
    # Row norms of v (n, 3), summed x, y, z like the scalar formula.
    sq = v * v
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


def _ladders(p: np.ndarray, gradient: np.ndarray, norm: np.ndarray, epsilon: float,
             n: int) -> np.ndarray:
    """Coordinate planes (3, g, 1 + n) of g candidate ladders: point 0 of
    ladder i is p[i] and point m (m = 1..n) is p[i] + m * (-epsilon *
    gradient[i] / norm[i]), for norm[i] non-zero (the norm of gradient[i],
    or any for a zero gradient: its points are p[i])."""
    step = (-epsilon * gradient / norm[:, None]).T[:, :, None]
    planes = np.empty((3, len(p), 1 + n))  # C order: the scoring's inner loops run along m
    planes[:, :, 0] = p.T
    np.add(p.T[:, :, None], np.arange(1.0, n + 1.0) * step, out=planes[:, :, 1:])
    return planes


class _Decisions(NamedTuple):
    """The decisions of a batch of n agents: setpoints (n, 3), the self cost
    rows (n, 5) with columns total, coh, sep, tar, obs, the gradient norms
    (n,), the candidate counts (n,) and the chosen candidate m (n,), 0 when
    the agent holds (always 0 for PFC)."""

    setpoints: np.ndarray
    costs: np.ndarray
    grad_norms: np.ndarray
    n_candidates: np.ndarray
    chosen_m: np.ndarray


def _decide(p: np.ndarray, hoods: _Neighborhoods, params: CostParams,
            cfg: ControllerConfig) -> _Decisions:
    """The SPC or PFC decisions of n agents at their own observed positions
    p (n, 3) against their neighbourhoods, in one pass on trusted arrays.

    PFC takes its own-position costs from the gradient pass; SPC scores
    point 0, the agent itself, with its ladder.  Ladders are padded to the
    batch's longest: a padded point is scored but never chosen, and a
    holder's, along a zeroed gradient, repeats its position.  Points are
    independent, so each agent's decision repeats its batch-of-1 bits.
    """
    n = p.shape[0]
    costs = np.zeros((n, 5))  # columns total, coh, sep, tar, obs
    if cfg.kind == "PFC":
        gradient = _gradient(p, hoods, params, costs[:, 1:])[4]
        costs[:, 0] = _cost_totals(costs[:, 1:].T)
        return _Decisions(p - cfg.pfc_gain * gradient, costs, _norms(gradient),
                          *np.zeros((2, n), dtype=np.int32))  # no candidates, none chosen

    gradient = _gradient(p, hoods, params)[4]
    norm = _norms(gradient)
    moves = (HOLD_GRADIENT_NORM <= norm) & (norm < math.inf)  # a NaN norm holds too
    lookahead = cfg.n_star
    if cfg.dynamic_n and params.target is not None:
        held = np.where(moves[:, None], p, params._target_array)  # a holder's distance is 0
        lookahead = _lookahead_counts(cfg.n_star, _norms(held - params._target_array))
    counts = moves.astype(np.int32) * lookahead
    longest = int(counts.max())
    along = np.where(moves[:, None], gradient, 0.0)  # a holder's ladder repeats p
    points = _ladders(p, along, np.where(moves, norm, 1.0), cfg.epsilon, longest)
    terms = _cost_terms(points, hoods, params)
    totals = _cost_totals(terms)
    # Point 0 (hold) counts as infinitely costly, so argmin picks the first
    # minimum of the agent's own finite candidate costs, or holds.
    own = np.arange(1 + longest) <= counts[:, None]
    own[:, 0] = False
    own &= totals < math.inf
    chosen = np.where(own, totals, math.inf).argmin(axis=1).astype(np.int32)
    costs[:, 0], costs[:, 1:] = totals[:, 0], terms[:, :, 0].T
    return _Decisions(points[:, np.arange(n), chosen].T, costs, norm, counts, chosen)


def _setpoint(p_i: Point, neighbors: Neighbors, params: CostParams, cfg: ControllerConfig,
              kind: ControllerKind) -> Setpoint:
    if cfg.kind != kind:
        raise ValueError(f"{kind.lower()}_setpoint requires kind={kind!r}, got {cfg.kind!r}")
    d = _decide(_points([p_i], "position"), _one_neighborhood(neighbors), params, cfg)
    total, coh, sep, tar, obs = d.costs[0].tolist()
    return Setpoint(Vec3(*d.setpoints[0].tolist()), CostBreakdown(coh, sep, tar, obs, total),
                    float(d.grad_norms[0]))


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
