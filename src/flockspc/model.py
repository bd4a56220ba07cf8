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

No SIMD-dispatched transcendental ufunc (np.power with an exponent other
than 2, np.tan, np.arctan, np.exp, np.log) feeds a recorded value, since
numpy's SIMD kernels for them differ in the last bit between CPUs: a cube is
two products, and squares, np.sqrt and + - * / round the same under every
dispatch.  Obstacle distances are the sqrt of the summed squares, not libm's
hypot, so they too come from basic IEEE operations alone.  Obstacle terms add
left to right over K, an order this module writes out rather than numpy's own
summation order.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, cached_property
from typing import Any, Callable, NamedTuple, Sequence, get_args

import numpy as np

__all__ = [
    "ConfigError",
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
Point = Vec3 | np.ndarray
Neighbors = np.ndarray | Sequence[Vec3]


# --- value rules: a config dataclass declares each rule on one field's value
# on that field, and its __post_init__ calls _check_fields first; a public
# function checks an argument with the same rule, rule.check(value, name).


class ConfigError(ValueError):
    """A rejected input value: the `problem` with `field`, a config field's
    JSON path relative to the object that raised it, or an argument's name."""

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(field, problem)  # the args rebuild a pickled error
        self.field, self.problem = field, problem

    def __str__(self) -> str:
        return f"{self.field}: {self.problem}"


class _Rule(NamedTuple):
    """A value `must be {expected}` unless ok(value); with each, every
    entry of the value (None has none) must be, named field[i]."""

    ok: Callable[[Any], bool]
    expected: str
    each: bool = False

    def check(self, value: Any, name: str) -> None:
        if not self.ok(value):
            raise ConfigError(name, f"must be {self.expected}, got {value!r}")


def _each(rule: _Rule) -> _Rule:
    return rule._replace(each=True)


def _one_of(literal: Any) -> _Rule:
    options = get_args(literal)
    return _Rule(lambda v: v in options, f"one of {list(options)}")


def _field(*rules: _Rule, default: Any = MISSING, **metadata: Any) -> Any:
    """A dataclass field that carries its value rules (and config metadata)."""
    return field(default=default, metadata={"rules": rules, **metadata})


@cache
def _field_rules(cls: type) -> tuple[tuple[str, Callable, bool, _Rule], ...]:
    return tuple((f.name, rule.ok, rule.each, rule)
                 for f in fields(cls) for rule in f.metadata.get("rules", ()))


def _check_fields(obj: Any) -> None:
    """Raise a ConfigError for the first declared rule that a field of `obj` breaks."""
    for name, ok, each, rule in _field_rules(type(obj)):
        value = getattr(obj, name)
        if not each:
            if not ok(value):
                rule.check(value, name)
        elif not all(map(ok, value or ())):
            for i, item in enumerate(value):
                rule.check(item, f"{name}[{i}]")


_FINITE = _Rule(math.isfinite, "finite")
_POSITIVE = _Rule(lambda v, inf=math.inf: 0.0 < v < inf, "positive and finite")
_NONNEGATIVE = _Rule(lambda v, inf=math.inf: 0.0 <= v < inf, ">= 0 and finite")
# A public function's integer argument: a Python or numpy integer, no bool.
_INTEGER = _Rule(lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool),
                 "an integer")
# type(), so that True is no integer: a config echoes its value as JSON.  The
# noise and spawn keys take the seed modulo 2**64: no two seeds may share one.
_SEED = _Rule(lambda v: type(v) is int and 0 <= v < 2**64, "an integer in [0, 2**64)")
_FINITE_POINT = _Rule(Vec3.is_finite, "finite")
_FINITE_POINT_OR_NONE = _Rule(lambda v: v is None or v.is_finite(), "finite")


@dataclass(frozen=True)
class Obstacle:
    """Infinitely tall cylinder: center (x, y) on the ground plane, radius in metres."""

    x: float = _field(_FINITE)
    y: float = _field(_FINITE)
    radius: float = _field(_POSITIVE)

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class CostParams:
    """Weights and geometry of the positional cost.

    Weights are in 1/m so every term comes out dimensionless.  ``target`` may
    be None (no target term) and ``obstacles`` may be empty (no obstacle
    term).  ``zero_hat`` is the clamp floor for the reciprocal denominators.
    """

    w_coh: float = _field(_NONNEGATIVE)
    w_sep: float = _field(_NONNEGATIVE)
    w_tar: float = _field(_NONNEGATIVE)
    w_obs: float = _field(_NONNEGATIVE)
    r_drone: float = _field(_NONNEGATIVE, default=0.0)
    zero_hat: float = _field(_POSITIVE, default=1e-6)
    # Set per tick and per scenario by the engine, not read from scenario files.
    target: Vec3 | None = _field(_FINITE_POINT_OR_NONE, default=None, json=False)
    obstacles: tuple[Obstacle, ...] = field(default=(), metadata={"json": False})

    def __post_init__(self) -> None:
        _check_fields(self)
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    @cached_property
    def _obstacle_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # (k, 2) centers and (k, 1, 1) radii, cached because params are reused
        # across every candidate evaluation of a control tick.
        centers = np.array([(o.x, o.y) for o in self.obstacles], dtype=float)
        radii = np.array([o.radius for o in self.obstacles], dtype=float)[:, None, None]
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


def _points(points: Neighbors, what: str) -> np.ndarray:
    """Outside points, a (k, 3) array or a sequence of Vec3, as a finite
    float (k, 3) array, (0, 3) when empty.  A ValueError names `what` and
    what it was given."""
    try:
        a = np.asarray(points if isinstance(points, np.ndarray) else [tuple(p) for p in points],
                       dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what}: expected a (k, 3) array or Vec3s, got {points!r}") from None
    if a.shape == (0,):
        return a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{what}: expected 3 coordinates per point, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite, got {a}")
    return a


class _Neighborhoods(NamedTuple):
    """The frozen neighbourhoods of n agents as pair lists: pair j is agent
    rows[j]'s neighbour nbr[j] (k, 3), agent i's counts[i] (n,) pairs next in
    observation order.  Built once a tick for every kernel: the float64 neighbour
    sums (n, 3) (+0.0 for none), h (n, 1) the counts clamped to 1, h1 (n, 1) the
    counts + 1, has (n, 1) counts > 0, all_have whether all are (the kernels then
    skip has: same bits), and the _pair_sum bins of 3 values a pair."""

    rows: np.ndarray
    nbr: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    h: np.ndarray
    h1: np.ndarray
    has: np.ndarray
    all_have: bool
    bins: np.ndarray


def _pair_sum(x: np.ndarray, bins: np.ndarray, n: int) -> np.ndarray:
    """(n, c) sums of the pair values x (k, c), value i of pair j in bins[j * c
    + i] = rows[j] * c + i: bincount adds each agent's pairs in order from +0.0,
    0.0 + x_0 + x_1 + ... (test_flock_kernel pins it; .sum() adds pairwise)."""
    c = x.shape[1]
    if not bins.size:  # bincount's zeros would be int64
        return np.zeros((n, c))
    return np.bincount(bins, weights=x.ravel(), minlength=n * c).reshape(n, c)


def _neighborhoods(seen: np.ndarray, counts: np.ndarray,
                   rows: np.ndarray | None = None) -> _Neighborhoods:
    """Agent i's neighbours are the next counts[i] (n,) rows of seen (k, 3);
    rows (k,) int64 holds each pair's agent, when the caller has them."""
    rows = np.repeat(np.arange(len(counts)), counts) if rows is None else rows
    bins = (rows[:, None] * 3 + np.arange(3)).ravel()
    return _Neighborhoods(rows, seen, counts, _pair_sum(seen, bins, len(counts)),
                          np.maximum(counts, 1)[:, None], (counts + 1)[:, None],
                          (counts > 0)[:, None], bool(counts.all()), bins)


def _one_neighborhood(neighbors: Neighbors) -> _Neighborhoods:
    """A batch of one agent with the given neighbours, validated."""
    nbr = _points(neighbors, "neighbors")
    return _neighborhoods(nbr, np.array([len(nbr)], dtype=np.int32))


def _centroids(points: np.ndarray, hoods: _Neighborhoods) -> np.ndarray:
    # Centroid of {point} u H at every point of the planes (3, n, m), or the
    # point itself for an agent without neighbours.
    centroid = (points + hoods.sums.T[:, :, None]) / hoods.h1
    return centroid if hoods.all_have else np.where(hoods.has, centroid, points)


def _sep_gap(d: np.ndarray, params: CostParams) -> np.ndarray:
    return np.maximum(d - 2.0 * params.r_drone, params.zero_hat)


def _obs_gap(dxy: np.ndarray, params: CostParams) -> np.ndarray:
    # dxy (K, n, m) is obstacle-major, sqrt(dx*dx + dy*dy) in both kernels.
    return np.maximum(dxy - params._obstacle_arrays[1] - params.r_drone, params.zero_hat)


def _sum_over_obstacles(x: np.ndarray) -> np.ndarray:
    """x (K, ...) summed left to right over K, x_0 + x_1 + ... + x_{K-1},
    added in place into x[0], which it returns: so each point's sum repeats
    its single-point bits."""
    total = x[0]
    for plane in x[1:]:
        total += plane
    return total


def _put_terms(terms: np.ndarray, hoods: _Neighborhoods, params: CostParams, d2, gap,
               centroid, clear) -> np.ndarray:
    """Write into the planes terms (4, n, m) the cost terms at m points per
    agent from the pairs' squared distances d2 and separation gaps (k, m),
    the centroid planes (3, n, m) and the obstacle gaps clear (K, n, m),
    whose terms add left to right over K; a None term stays 0.  gap is overwritten."""
    if d2 is not None:
        m, n = d2.shape[1], terms.shape[1]
        bins = hoods.rows if m == 1 else (hoods.rows[:, None] * m + np.arange(m)).ravel()
        if params.w_coh > 0.0:
            coh = _pair_sum(d2, bins, n)
            np.divide(np.multiply(params.w_coh, coh, out=coh), hoods.h, out=terms[0])
        if gap is not None:
            sep = _pair_sum(np.divide(1.0, np.multiply(gap, gap, out=gap), out=gap), bins, n)
            np.divide(np.multiply(params.w_sep, sep, out=sep), hoods.h, out=terms[1])
    if centroid is not None:
        sq = params._target_array[:, None, None] - centroid
        sq *= sq
        tar = sq[0] + sq[1]
        np.multiply(params.w_tar, np.add(tar, sq[2], out=tar), out=terms[2])
    if clear is not None:
        terms[3] = params.w_obs * _sum_over_obstacles(1.0 / clear**2) / len(params.obstacles)
    return terms


def _cost_terms(points: np.ndarray, hoods: _Neighborhoods, params: CostParams) -> np.ndarray:
    """The four cost terms, planes (4, n, m) of coh, sep, tar, obs, at the
    points of the coordinate planes points (3, n, m), agent i's against its
    neighbourhood.  Neighbour sums are _pair_sum's, x + y + z adds left to
    right and obstacle terms add left to right over K, so each point repeats
    the single-point bits whatever n and m are.  Inputs are trusted.

    The xy distance to an obstacle axis is sqrt(dx*dx + dy*dy), as in
    _gradient; it differs from np.hypot by one ulp on about 17 % of
    distances.  Past |dx| of about 1.34e154 the square overflows and the
    distance is inf, so the term is 0, which 1/clear**2 is there in any case
    (clear**2 overflows from the same point).  Below about 1e-154 m from an
    axis the squares underflow and the distance is 0 or subnormal, deep
    inside the zero_hat clamp.
    """
    d2 = gap = centroid = clear = None
    if params.w_coh > 0.0 or params.w_sep > 0.0:
        # (3, k, m): every point of the pair's agent against the pair's neighbour.
        sq = points.take(hoods.rows, axis=1)  # C order, unlike points[:, rows]
        sq -= hoods.nbr.T[:, :, None]
        sq *= sq
        d2 = sq[0] + sq[1]
        d2 += sq[2]
        if params.w_sep > 0.0:
            gap = _sep_gap(np.sqrt(d2), params)
    if params.w_tar > 0.0 and params.target is not None:
        centroid = _centroids(points, hoods)
    if params.w_obs > 0.0 and params.obstacles:
        cx, cy = params._obstacle_arrays[0].T[:, :, None, None]  # (K, 1, 1) each
        dx = points[0] - cx
        dx *= dx
        dy = points[1] - cy
        dy *= dy
        dx += dy
        clear = _obs_gap(np.sqrt(dx, out=dx), params)
    return _put_terms(np.zeros((4,) + points.shape[1:]), hoods, params, d2, gap, centroid, clear)


def _cost_totals(terms: np.ndarray) -> np.ndarray:
    # The planes (4, ...) added left to right, like the scalar coh + sep + tar + obs.
    return terms[0] + terms[1] + terms[2] + terms[3]


def evaluate_cost(p_i: Point, neighbors: Neighbors, params: CostParams) -> CostBreakdown:
    """Evaluate the four cost terms at position p_i against a frozen neighborhood.

    Terms with zero weight, an empty neighborhood, no target, or no obstacles
    contribute exactly 0.  Raises ValueError on non-finite inputs.
    """
    p = _points([p_i], "position")
    terms = _cost_terms(p.T[:, :, None], _one_neighborhood(neighbors), params)
    coh, sep, tar, obs = terms[:, 0, 0].tolist()
    return CostBreakdown(coh=coh, sep=sep, tar=tar, obs=obs, total=coh + sep + tar + obs)


def _gradient(p: np.ndarray, hoods: _Neighborhoods, params: CostParams,
              costs: np.ndarray | None = None) -> np.ndarray:
    """Gradient at each agent's position p (n, 3) against its neighbourhood:
    a (5, n, 3) array of the terms coh, sep, tar, obs and their
    left-to-right sum total; an absent term is 0.  Neighbour sums are
    _pair_sum's.  Given costs, (n, 4) zeros, it also writes there the cost
    terms at p, _cost_terms' bits, from the arrays it builds.  Inputs are trusted.

    The xy distance to an obstacle axis is sqrt(dx*dx + dy*dy), _cost_terms'
    formula, not np.hypot (they differ by one ulp on about 17 % of
    distances).  Past |dx| of about 1.34e154 the square overflows: the
    distance is inf and the push 0, which it is there in any case (the cube
    of the gap overflows from about 5.6e102).  Below about 1e-154 m from an axis the squares underflow:
    a distance of 0 takes the on-axis direction (1, 0), and a subnormal one
    gives a direction of length about 0.7 to 1.4; either way the gap is
    clamped to zero_hat."""
    grad = np.zeros((5,) + p.shape)
    d2 = gap = centroid = clear = None  # as _cost_terms builds them for m = 1

    if params.w_coh > 0.0 or params.w_sep > 0.0:
        diff = p.take(hoods.rows, axis=0) - hoods.nbr  # (k, 3), from each neighbour toward p_i
        sq = diff * diff
        d2 = (sq[:, 0] + sq[:, 1] + sq[:, 2])[:, None]
        has = True if hoods.all_have else hoods.has  # where=True: numpy's unmasked loop
        if params.w_coh > 0.0:
            np.multiply(2.0 * params.w_coh, p - hoods.sums / hoods.h, out=grad[0], where=has)
        if params.w_sep > 0.0:
            d = np.sqrt(d2)
            unit = diff / np.where(d > 0.0, d, 1.0)
            if not d.all():  # a coincident pair (a NaN is truthy)
                unit[d[:, 0] == 0.0] = (1.0, 0.0, 0.0)
            gap = _sep_gap(d, params)
            unit /= gap * gap * gap
            push = _pair_sum(unit, hoods.bins, len(p))
            # -(2 w_sep / h) as one division: negation is exact
            np.multiply((-2.0 * params.w_sep) / hoods.h, push, out=grad[1], where=has)

    if params.w_tar > 0.0 and params.target is not None:
        centroid = _centroids(p.T[:, :, None], hoods)
        scale = 2.0 * params.w_tar / hoods.h1
        np.multiply(scale, centroid[:, :, 0].T - params._target_array, out=grad[2])

    k = len(params.obstacles)
    if params.w_obs > 0.0 and k > 0:
        # (K, n, 2), obstacle-major like the cost planes: from each centre toward p_i
        unit = p[:, :2] - params._obstacle_arrays[0][:, None]
        sq = unit * unit
        dxy = np.sqrt(sq[..., 0] + sq[..., 1])
        unit /= np.where(dxy > 0.0, dxy, 1.0)[..., None]
        if not dxy.all():  # a point on an axis (a NaN is truthy)
            unit[dxy == 0.0] = (1.0, 0.0)
        clear = _obs_gap(dxy[:, :, None], params)
        unit /= clear * clear * clear
        grad[3, :, :2] = -(2.0 * params.w_obs / k) * _sum_over_obstacles(unit)

    if costs is not None:
        _put_terms(costs.T[:, :, None], hoods, params, d2, gap, centroid, clear)
    total = np.add(grad[0], grad[1], out=grad[4])
    total += grad[2]
    total += grad[3]
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
    terms = _gradient(_points([p_i], "position"), _one_neighborhood(neighbors), params)
    return CostGradient(*(Vec3(*g) for g in terms[:, 0].tolist()))


def finite_difference_gradient(
    p_i: Point, neighbors: Neighbors, params: CostParams, h: float = 1e-6
) -> Vec3:
    """Central-difference gradient of the total cost, the numerical oracle
    for evaluate_gradient.  Accurate only when p_i is well clear (>> h) of
    the clamp boundaries, where the cost is smooth.
    """
    _POSITIVE.check(h, "h")
    p = _points([p_i], "position")
    shifts = np.eye(3) * h  # points p + h e_i, then p - h e_i, scored in one batch
    points = np.vstack((p + shifts, p - shifts)).T[:, None]
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
    _POSITIVE.check(w_coh, "w_coh")  # finite, too: a NaN would spin the bisection below
    _POSITIVE.check(w_sep, "w_sep")
    _NONNEGATIVE.check(r_drone, "r_drone")
    if not _POSITIVE.ok(w_sep / w_coh):  # 0 or inf once under- or overflowed
        raise ConfigError("w_sep / w_coh", f"must be positive and finite, got {w_sep} / {w_coh}")
    if r_drone == 0.0:
        return (w_sep / w_coh) ** 0.25

    def excess(d: float) -> float:
        try:
            return w_coh * d * (d - 2.0 * r_drone) ** 3 - w_sep
        except OverflowError:  # a float cube past the float range: d is past the root
            return math.inf

    lo = 2.0 * r_drone  # excess(lo) = -w_sep < 0
    _NONNEGATIVE.check(lo, "2 * r_drone")  # inf once overflowed
    span = 1.0
    while excess(lo + span) < 0.0:
        span *= 2.0
    hi = lo + span
    while True:
        mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi), which overflows near the float maximum
        if mid <= lo or mid >= hi:
            break  # interval no longer representable
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi
