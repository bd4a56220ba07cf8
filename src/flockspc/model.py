"""Positional cost function for flocking and its analytical gradient.

The cost of an agent at position p given its observed neighborhood H and a
set of cylindrical obstacles K is a weighted sum of four terms:

  cohesion:    w_coh / |H| * sum_j ||p - p_j||^2
  separation:  w_sep / |H| * sum_j 1 / max(||p - p_j|| - 2 r_drone, zero_hat)^2
  target:      w_tar * ||p_tar - centroid({p} u H)||^2
  obstacle:    w_obs / |K| * sum_k 1 / max(||P(p) - p_k|| - r_k - r_drone, zero_hat)^2

where P projects to the xy-plane (obstacles are infinitely tall cylinders)
and zero_hat is a small positive length that keeps the reciprocal terms
finite under sensor noise.  The module also provides a central-difference
oracle for the gradient and the two-drone equilibrium-distance solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Vec3",
    "Obstacle",
    "CostParams",
    "CostBreakdown",
    "CostGradient",
    "evaluate_cost",
    "evaluate_gradient",
    "finite_difference_gradient",
    "equilibrium_distance",
]


@dataclass(frozen=True)
class Vec3:
    """A 3D point or vector in metres."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scale: float) -> "Vec3":
        return Vec3(self.x * scale, self.y * scale, self.z * scale)

    __rmul__ = __mul__

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)


# What the cost functions accept for a position and for a neighborhood.
Point = Vec3 | Sequence[float]
Neighbors = Iterable[Vec3] | np.ndarray | Sequence[Sequence[float]]


@dataclass(frozen=True)
class Obstacle:
    """Infinitely tall cylinder: center (x, y) on the ground plane, radius in metres."""

    x: float
    y: float
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("Obstacle center must be finite")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"Obstacle radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class CostParams:
    """Weights and geometry of the positional cost.

    Weights are in 1/m so every term comes out dimensionless.  ``target`` may
    be None (no target term) and ``obstacles`` may be empty (no obstacle
    term).  ``zero_hat`` is the clamp floor for the reciprocal denominators.
    """

    w_coh: float
    w_sep: float
    w_tar: float
    w_obs: float
    r_drone: float = 0.0
    zero_hat: float = 1e-6
    # Set per tick and per scenario by the engine, not read from scenario files.
    target: Vec3 | None = field(default=None, metadata={"json": False})
    obstacles: tuple[Obstacle, ...] = field(default=(), metadata={"json": False})

    def __post_init__(self) -> None:
        for name in ("w_coh", "w_sep", "w_tar", "w_obs"):
            w = getattr(self, name)
            if not (w >= 0.0 and math.isfinite(w)):
                raise ValueError(f"{name} must be a finite non-negative weight, got {w}")
        if not (self.r_drone >= 0.0 and math.isfinite(self.r_drone)):
            raise ValueError(f"r_drone must be non-negative, got {self.r_drone}")
        if not (self.zero_hat > 0.0 and math.isfinite(self.zero_hat)):
            raise ValueError(f"zero_hat must be positive, got {self.zero_hat}")
        if self.target is not None and not self.target.is_finite():
            raise ValueError("target must be finite")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    @cached_property
    def _obstacle_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # (k, 2) centers and (k,) radii, cached because params are reused
        # across every candidate evaluation of a control tick.
        centers = np.array([(o.x, o.y) for o in self.obstacles], dtype=float)
        radii = np.array([o.radius for o in self.obstacles], dtype=float)
        return centers, radii

    @cached_property
    def _target_array(self) -> np.ndarray:
        return np.array(tuple(self.target), dtype=float)


@dataclass(frozen=True)
class CostBreakdown:
    """Per-term cost values; total is the plain sum."""

    coh: float
    sep: float
    tar: float
    obs: float
    total: float


@dataclass(frozen=True)
class CostGradient:
    """Per-term gradients; total is the vector sum of the four terms."""

    coh: Vec3
    sep: Vec3
    tar: Vec3
    obs: Vec3
    total: Vec3


def _position_array(p: Point) -> np.ndarray:
    a = np.asarray(tuple(p) if isinstance(p, Vec3) else p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"position must have 3 components, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"position must be finite, got {a}")
    return a


def _neighbor_array(neighbors: Neighbors) -> np.ndarray:
    if isinstance(neighbors, np.ndarray):
        a = neighbors.astype(float, copy=False)
    else:
        a = np.array([tuple(n) for n in neighbors], dtype=float)
    if a.size == 0:
        return a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"neighbors must be an (n, 3) array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("neighbor positions must be finite")
    return a


class _Neighborhoods(NamedTuple):
    """The frozen neighbourhoods of a batch of n agents, grouped by size.

    groups holds one (rows, nbr) pair per neighbour count h > 0: rows (g,)
    indexes the agents with h neighbours and nbr (g, h, 3) holds those
    neighbours in observation order.  No neighbour set is padded, so every
    sum along the neighbour axis has the length it has for a single agent
    and repeats its bits.  counts (n,) and sums (n, 3) are each agent's
    neighbour count and neighbour sum (0 when it has none).
    """

    groups: list[tuple[np.ndarray, np.ndarray]]
    counts: np.ndarray
    sums: np.ndarray


def _neighborhoods(seen: np.ndarray, near: np.ndarray) -> _Neighborhoods:
    """Group a batch by neighbour count: agent i's neighbours are the rows
    seen[i, near[i]] of its own view seen[i] (n', 3), in row order."""
    counts = near.sum(axis=1, dtype=np.int32)
    sums = np.zeros((counts.shape[0], 3))
    groups = []
    for h in sorted(set(counts.tolist()) - {0}):
        rows = np.flatnonzero(counts == h)
        owner, col = np.nonzero(near[rows])
        nbr = seen[rows[owner], col].reshape(rows.shape[0], h, 3)
        sums[rows] = nbr.sum(axis=1)
        groups.append((rows, nbr))
    return _Neighborhoods(groups, counts, sums)


def _one_neighborhood(neighbors: Neighbors) -> _Neighborhoods:
    """A batch of one agent with the given neighbours, validated."""
    nbr = _neighbor_array(neighbors)
    return _neighborhoods(nbr[None], np.ones((1, nbr.shape[0]), dtype=bool))


def _centroids(points: np.ndarray, hoods: _Neighborhoods) -> np.ndarray:
    # Centroid of {point} u H for every point (n, m, 3); the point itself
    # when agent i has no neighbours.
    h = hoods.counts[:, None, None]
    return np.where(h > 0, (points + hoods.sums[:, None]) / (h + 1), points)


def _cost_terms(points: np.ndarray, hoods: _Neighborhoods, params: CostParams) -> np.ndarray:
    """The four cost terms at each point of points (n, m, 3), row i scored
    against agent i's neighbourhood: an (n, m, 4) array with columns coh,
    sep, tar, obs.

    Every per-point sum runs along the last axis over the unpadded
    neighbours or obstacles, so each point repeats the single-point
    arithmetic bit for bit whatever n, m and the grouping are.  Inputs are
    trusted.
    """
    terms = np.zeros(points.shape[:2] + (4,))

    if params.w_coh > 0.0 or params.w_sep > 0.0:
        for rows, nbr in hoods.groups:
            h = nbr.shape[1]
            diff = points[rows][:, :, None] - nbr[:, None]
            d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2
            if params.w_coh > 0.0:
                terms[rows, :, 0] = params.w_coh * d2.sum(axis=2) / h
            if params.w_sep > 0.0:
                gap = np.maximum(np.sqrt(d2) - 2.0 * params.r_drone, params.zero_hat)
                terms[rows, :, 1] = params.w_sep * (1.0 / gap**2).sum(axis=2) / h

    if params.w_tar > 0.0 and params.target is not None:
        centroid = _centroids(points, hoods)
        terms[..., 2] = params.w_tar * ((params._target_array - centroid) ** 2).sum(axis=2)

    k = len(params.obstacles)
    if params.w_obs > 0.0 and k > 0:
        centers, radii = params._obstacle_arrays
        dxy = np.hypot(points[..., 0, None] - centers[:, 0], points[..., 1, None] - centers[:, 1])
        clearance = np.maximum(dxy - radii - params.r_drone, params.zero_hat)
        terms[..., 3] = params.w_obs * (1.0 / clearance**2).sum(axis=2) / k

    return terms


def _cost_totals(terms: np.ndarray) -> np.ndarray:
    # Added left to right, like the scalar coh + sep + tar + obs.
    return terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def evaluate_cost(p_i: Point, neighbors: Neighbors, params: CostParams) -> CostBreakdown:
    """Evaluate the four cost terms at position p_i against a frozen neighborhood.

    Terms with zero weight, an empty neighborhood, no target, or no obstacles
    contribute exactly 0.  Raises ValueError on non-finite inputs.
    """
    p = _position_array(p_i)
    terms = _cost_terms(p[None, None], _one_neighborhood(neighbors), params)
    coh, sep, tar, obs = terms[0, 0].tolist()
    return CostBreakdown(coh=coh, sep=sep, tar=tar, obs=obs, total=coh + sep + tar + obs)


def _gradient(p: np.ndarray, hoods: _Neighborhoods, params: CostParams) -> np.ndarray:
    """Gradient at each agent's position p (n, 3) against its neighbourhood:
    a (5, n, 3) array of the terms coh, sep, tar, obs and their
    left-to-right sum total; an absent term is 0.  Every sum runs over the
    unpadded neighbours or obstacles of one agent.  Inputs are trusted."""
    grad = np.zeros((5,) + p.shape)

    if params.w_coh > 0.0 or params.w_sep > 0.0:
        for rows, nbr in hoods.groups:
            h = nbr.shape[1]
            p_g = p[rows]
            if params.w_coh > 0.0:
                grad[0, rows] = 2.0 * params.w_coh * (p_g - hoods.sums[rows] / h)
            if params.w_sep > 0.0:
                diff = p_g[:, None] - nbr  # rows point from each neighbor toward p_i
                d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2)
                unit = diff / np.where(d > 0.0, d, 1.0)[..., None]
                unit[d == 0.0] = (1.0, 0.0, 0.0)
                gap3 = np.maximum(d - 2.0 * params.r_drone, params.zero_hat) ** 3
                grad[1, rows] = -(2.0 * params.w_sep / h) * (unit / gap3[..., None]).sum(axis=1)

    if params.w_tar > 0.0 and params.target is not None:
        centroid = _centroids(p[:, None], hoods)[:, 0]
        scale = 2.0 * params.w_tar / (hoods.counts + 1)
        grad[2] = scale[:, None] * (centroid - params._target_array)

    k = len(params.obstacles)
    if params.w_obs > 0.0 and k > 0:
        centers, radii = params._obstacle_arrays
        dvec = np.stack([p[:, 0, None] - centers[:, 0], p[:, 1, None] - centers[:, 1]], axis=2)
        dxy = np.hypot(dvec[..., 0], dvec[..., 1])
        unit2 = dvec / np.where(dxy > 0.0, dxy, 1.0)[..., None]
        unit2[dxy == 0.0] = (1.0, 0.0)
        gap3 = np.maximum(dxy - radii - params.r_drone, params.zero_hat) ** 3
        grad[3, :, :2] = -(2.0 * params.w_obs / k) * (unit2 / gap3[..., None]).sum(axis=1)

    grad[4] = grad[0] + grad[1] + grad[2] + grad[3]
    return grad


def evaluate_gradient(p_i: Point, neighbors: Neighbors, params: CostParams) -> CostGradient:
    """Analytical gradient of evaluate_cost with respect to p_i.

    Closed forms per term (u denotes the unit vector from the neighbor or
    obstacle center toward p_i, d the corresponding distance):

      grad coh = 2 w_coh (p - mean_j p_j)
      grad sep = -(2 w_sep / |H|) sum_j u_j / max(d_j - 2 r_drone, zero_hat)^3
      grad tar = (2 w_tar / (|H|+1)) (centroid - p_tar)
      grad obs = -(2 w_obs / |K|) sum_k u_k / max(d_k - r_k - r_drone, zero_hat)^3

    The obstacle term acts in the xy-plane only (z component 0).  Inside the
    clamp region the shifted distance is replaced by zero_hat, mirroring the
    cost clamp; at exactly coincident points the direction is undefined and a
    deterministic repulsion along +x is emitted (gradient along -x).
    """
    terms = _gradient(_position_array(p_i)[None], _one_neighborhood(neighbors), params)
    return CostGradient(*(Vec3(*g) for g in terms[:, 0].tolist()))


def finite_difference_gradient(
    p_i: Point, neighbors: Neighbors, params: CostParams, h: float = 1e-6
) -> Vec3:
    """Central-difference gradient of the total cost, the numerical oracle
    for evaluate_gradient.  Accurate only when p_i is well clear (>> h) of
    the clamp boundaries, where the cost is smooth.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h}")
    p = _position_array(p_i)
    shifts = np.eye(3) * h  # rows p + h e_i, then p - h e_i, scored in one batch
    points = np.vstack((p + shifts, p - shifts))[None]
    costs = _cost_totals(_cost_terms(points, _one_neighborhood(neighbors), params))[0]
    return Vec3(*((costs[:3] - costs[3:]) / (2.0 * h)).tolist())


def equilibrium_distance(w_coh: float, w_sep: float, r_drone: float = 0.0) -> float:
    """Separation at which a two-drone flock is stationary.

    With r_drone = 0 the cohesion and separation gradients balance at
    (w_sep / w_coh)^(1/4) exactly.  With r_drone > 0 the balance condition is
    w_coh * d * (d - 2 r_drone)^3 = w_sep with d > 2 r_drone, solved by
    bisection to machine precision (well past the 1e-9 m the callers need;
    the extra digits keep the residual gradient below 1e-9 too).
    """
    if not 0.0 < w_coh < math.inf:  # finite, too: a NaN would spin the bisection below
        raise ValueError(f"w_coh must be positive and finite for an equilibrium, got {w_coh}")
    if not 0.0 < w_sep < math.inf:
        raise ValueError(f"w_sep must be positive and finite, got {w_sep}")
    if not 0.0 <= r_drone < math.inf:
        raise ValueError(f"r_drone must be non-negative and finite, got {r_drone}")
    if not 0.0 < w_sep / w_coh < math.inf:  # 0 or inf once under- or overflowed
        raise ValueError(f"w_sep / w_coh must be positive and finite, got {w_sep} / {w_coh}")
    if r_drone == 0.0:
        return (w_sep / w_coh) ** 0.25

    def excess(d: float) -> float:
        return w_coh * d * (d - 2.0 * r_drone) ** 3 - w_sep

    lo = 2.0 * r_drone  # excess(lo) = -w_sep < 0
    span = 1.0
    while excess(lo + span) < 0.0:
        span *= 2.0
    hi = lo + span
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval no longer representable
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
