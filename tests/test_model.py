"""Cost model tests: hand-derived oracle values, gradient consistency,
invariances, and the two-drone equilibrium distance."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flockspc import (
    ControllerConfig,
    CostParams,
    Obstacle,
    Vec3,
    dynamic_lookahead_count,
    equilibrium_distance,
    evaluate_cost,
    evaluate_gradient,
    finite_difference_gradient,
    spc_setpoint,
)
from flockspc.model import _cost_terms, _cost_totals, _gradient, _one_neighborhood


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


def test_cost_two_drone_oracle():
    # one neighbor at distance 1: coh = 20*1^2, sep = 9/1^2
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)
    br = evaluate_cost(Vec3(1, 0, 1), [Vec3(0, 0, 1)], params)
    assert _close(br.coh, 20.0), f"coh {br.coh} != 20"
    assert _close(br.sep, 9.0), f"sep {br.sep} != 9"
    assert _close(br.tar, 0.0) and _close(br.obs, 0.0)
    assert _close(br.total, 29.0), f"total {br.total} != 29"


def test_cost_target_term_oracle():
    # centroid of {(1,0,1),(0,0,1)} is (0.5,0,1); 150*0.5^2 = 37.5
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0,
                        target=Vec3(0, 0, 1))
    br = evaluate_cost(Vec3(1, 0, 1), [Vec3(0, 0, 1)], params)
    assert _close(br.tar, 37.5), f"tar {br.tar} != 37.5"
    assert _close(br.total, 66.5), f"total {br.total} != 66.5"


def test_cost_coincident_neighbor_clamped():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)
    br = evaluate_cost(Vec3(0, 0, 1), [Vec3(0, 0, 1)], params)
    expected = 9.0 / params.zero_hat ** 2
    assert math.isfinite(br.sep)
    assert _close(br.sep, expected, tol=abs(expected) * 1e-12), (
        f"clamped sep {br.sep} != {expected}")


def test_cost_zero_weight_terms_are_exact_zero():
    params = CostParams(w_coh=0.0, w_sep=0.0, w_tar=0.0, w_obs=0.0,
                        target=Vec3(5, 5, 5), obstacles=(Obstacle(0.1, 0.1, 0.2),))
    br = evaluate_cost(Vec3(0, 0, 1), [Vec3(1, 1, 1)], params)
    assert br.coh == 0.0 and br.sep == 0.0 and br.tar == 0.0 and br.obs == 0.0
    assert br.total == 0.0


def test_cost_empty_sets_contribute_zero():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=12.0)
    br = evaluate_cost(Vec3(3, -2, 1), [], params)
    assert br.total == 0.0, f"lone agent with no target should cost 0, got {br.total}"


def test_cost_lone_agent_target_uses_own_position():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0,
                        target=Vec3(2, 0, 1))
    br = evaluate_cost(Vec3(0, 0, 1), [], params)
    assert _close(br.tar, 150.0 * 4.0), f"tar {br.tar} != 600"


def test_cost_rejects_nonfinite_position():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)
    with pytest.raises(ValueError):
        evaluate_cost(Vec3(math.nan, 0, 1), [Vec3(0, 0, 1)], params)
    with pytest.raises(ValueError):
        evaluate_cost(Vec3(0, 0, 1), [Vec3(math.inf, 0, 1)], params)


def test_gradient_two_drone_oracle():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)
    g = evaluate_gradient(Vec3(1, 0, 1), [Vec3(0, 0, 1)], params)
    assert _close(g.coh.x, 40.0) and _close(g.coh.y, 0.0) and _close(g.coh.z, 0.0), (
        f"grad coh {g.coh} != (40,0,0)")
    assert _close(g.sep.x, -18.0), f"grad sep {g.sep} != (-18,0,0)"
    assert _close(g.total.x, 22.0) and _close(g.total.y, 0.0) and _close(g.total.z, 0.0)


def test_gradient_target_term_oracle():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0,
                        target=Vec3(0, 0, 1))
    g = evaluate_gradient(Vec3(1, 0, 1), [Vec3(0, 0, 1)], params)
    assert _close(g.tar.x, 75.0), f"grad tar {g.tar} != (75,0,0)"
    assert _close(g.total.x, 97.0), f"grad total {g.total} != (97,0,0)"


def test_gradient_lone_agent_is_zero():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)
    g = evaluate_gradient(Vec3(4, 5, 6), [], params)
    assert g.total.x == 0.0 and g.total.y == 0.0 and g.total.z == 0.0


def test_gradient_obstacle_term_is_planar():
    params = CostParams(w_coh=0.0, w_sep=0.0, w_tar=0.0, w_obs=12.0,
                        r_drone=0.07, obstacles=(Obstacle(1.0, 0.5, 0.15),))
    g = evaluate_gradient(Vec3(0.2, 0.1, 1.7), [], params)
    assert g.obs.z == 0.0, f"obstacle gradient must have no z component, got {g.obs}"
    assert g.obs.norm() > 0.0


def test_gradient_coincident_neighbor_deterministic():
    # direction is undefined at zero separation; implementation pins it to -x
    # (descent along the gradient then pushes the agent toward +x)
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)
    g1 = evaluate_gradient(Vec3(0, 0, 1), [Vec3(0, 0, 1)], params)
    g2 = evaluate_gradient(Vec3(0, 0, 1), [Vec3(0, 0, 1)], params)
    assert g1.sep.x == g2.sep.x < 0.0, f"expected fixed -x repulsion, got {g1.sep}"
    assert g1.sep.y == 0.0 and g1.sep.z == 0.0
    assert math.isfinite(g1.sep.x)


def test_gradient_inside_obstacle_clamped_finite():
    params = CostParams(w_coh=0.0, w_sep=0.0, w_tar=0.0, w_obs=12.0,
                        r_drone=0.07, obstacles=(Obstacle(0.0, 0.0, 0.15),))
    g = evaluate_gradient(Vec3(0.05, 0.0, 1.0), [], params)
    assert math.isfinite(g.obs.x) and math.isfinite(g.obs.y)
    assert g.obs.x < 0.0, f"clamped gradient should still repel outward, got {g.obs}"


def test_finite_difference_matches_oracle_config():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)
    fd = finite_difference_gradient(Vec3(1, 0, 1), [Vec3(0, 0, 1)], params, h=1e-6)
    err = (fd - Vec3(22.0, 0.0, 0.0)).norm() / 22.0
    assert err <= 1e-5, f"fd gradient {fd} off by rel {err:.2e}"


def test_finite_difference_zero_config():
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)
    fd = finite_difference_gradient(Vec3(2, 3, 1), [], params, h=1e-6)
    assert fd.norm() <= 1e-6, f"expected ~0 gradient, got {fd}"


def _random_config(rng):
    """Random flock snapshot: positions in a 5 m box, pairwise spacing >= 0.3,
    obstacle clearance kept well away from the clamp."""
    while True:
        n = int(rng.integers(2, 7))
        pts = rng.uniform(-2.5, 2.5, size=(n, 3))
        pts[:, 2] += 3.5
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        if d[np.triu_indices(n, 1)].min() < 0.3:
            continue
        obstacles = tuple(
            Obstacle(float(x), float(y), 0.15)
            for x, y in rng.uniform(-2.5, 2.5, size=(2, 2))
        )
        xy = np.hypot(pts[0, 0] - np.array([o.x for o in obstacles]),
                      pts[0, 1] - np.array([o.y for o in obstacles]))
        if xy.min() < 0.15 + 0.07 + 0.1:
            continue
        params = CostParams(
            w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=12.0, r_drone=0.07,
            target=Vec3(*rng.uniform(-3, 3, size=3)),
            obstacles=obstacles,
        )
        p_i = Vec3(*pts[0])
        neighbors = [Vec3(*row) for row in pts[1:]]
        return p_i, neighbors, params


def test_gradient_consistency_random_sweep():
    rng = np.random.default_rng(20240831)
    checked = 0
    while checked < 200:
        p_i, neighbors, params = _random_config(rng)
        g = evaluate_gradient(p_i, neighbors, params).total
        if g.norm() < 1e-2:
            continue  # skip near-stationary configs where rel. error is ill-posed
        fd = finite_difference_gradient(p_i, neighbors, params, h=1e-6)
        rel = (g - fd).norm() / max(fd.norm(), 1e-12)
        assert rel <= 1e-4, f"config {checked}: rel err {rel:.2e} at {p_i}"
        checked += 1


def test_translation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p_i, neighbors, params = _random_config(rng)
        t = Vec3(*rng.uniform(-10, 10, size=3))
        shifted = CostParams(
            w_coh=params.w_coh, w_sep=params.w_sep, w_tar=params.w_tar,
            w_obs=params.w_obs, r_drone=params.r_drone, zero_hat=params.zero_hat,
            target=params.target + t,
            obstacles=tuple(Obstacle(o.x + t.x, o.y + t.y, o.radius)
                            for o in params.obstacles),
        )
        # obstacle cylinders are vertical: only xy translation preserves them,
        # so compare with t.z applied to all positions but obstacles unchanged in z
        a = evaluate_cost(p_i, neighbors, params)
        b = evaluate_cost(p_i + t, [q + t for q in neighbors], shifted)
        for name in ("coh", "sep", "tar", "obs", "total"):
            va, vb = getattr(a, name), getattr(b, name)
            assert abs(va - vb) <= 1e-12 * max(1.0, abs(va)), (
                f"{name}: {va} vs {vb} after translation")


def test_rotation_invariance_about_z():
    rng = np.random.default_rng(11)
    theta = 0.7368
    c, s = math.cos(theta), math.sin(theta)

    def rot(v: Vec3) -> Vec3:
        return Vec3(c * v.x - s * v.y, s * v.x + c * v.y, v.z)

    for _ in range(20):
        p_i, neighbors, params = _random_config(rng)
        rparams = CostParams(
            w_coh=params.w_coh, w_sep=params.w_sep, w_tar=params.w_tar,
            w_obs=params.w_obs, r_drone=params.r_drone, zero_hat=params.zero_hat,
            target=rot(params.target),
            obstacles=tuple(
                Obstacle(c * o.x - s * o.y, s * o.x + c * o.y, o.radius)
                for o in params.obstacles),
        )
        g = evaluate_gradient(p_i, neighbors, params).total
        gr = evaluate_gradient(rot(p_i), [rot(q) for q in neighbors], rparams).total
        expect = rot(g)
        err = (gr - expect).norm() / max(expect.norm(), 1e-12)
        assert err <= 1e-9, f"rotated gradient off by rel {err:.2e}"


def test_two_drone_stationarity_at_equilibrium():
    rng = np.random.default_rng(3)
    for r_drone in (0.0, 0.07):
        d_eq = equilibrium_distance(20.0, 9.0, r_drone)
        params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0,
                            r_drone=r_drone)
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            p = Vec3(*(u * d_eq))
            g = evaluate_gradient(p, [Vec3(0, 0, 0)], params).total
            assert g.norm() <= 1e-9, (
                f"gradient {g.norm():.2e} at equilibrium {d_eq} (r_drone={r_drone})")


def test_separation_term_monotone_decreasing():
    params = CostParams(w_coh=0.0, w_sep=9.0, w_tar=0.0, w_obs=0.0, r_drone=0.07)
    dists = np.linspace(0.2, 3.0, 40)
    costs = [evaluate_cost(Vec3(d, 0, 1), [Vec3(0, 0, 1)], params).sep for d in dists]
    diffs = np.diff(costs)
    assert np.all(diffs < 0), f"separation cost not strictly decreasing: {costs[:5]}..."


def test_obstacle_term_monotone_decreasing():
    params = CostParams(w_coh=0.0, w_sep=0.0, w_tar=0.0, w_obs=12.0,
                        r_drone=0.07, obstacles=(Obstacle(0.0, 0.0, 0.15),))
    dists = np.linspace(0.3, 4.0, 40)
    costs = [evaluate_cost(Vec3(d, 0, 1.4), [], params).obs for d in dists]
    assert np.all(np.diff(costs) < 0), "obstacle cost not strictly decreasing"


def test_equilibrium_distance_oracles():
    d = equilibrium_distance(20.0, 9.0, 0.0)
    assert abs(d - 0.45 ** 0.25) <= 1e-12, f"{d} != 0.45^0.25"
    assert abs(d - 0.81904) <= 5e-6, f"{d} rounds away from 0.81904"
    assert equilibrium_distance(1.0, 1.0, 0.0) == 1.0


def test_equilibrium_distance_with_body_radius():
    d = equilibrium_distance(20.0, 9.0, 0.07)
    # root of 20*d*(d-0.14)^3 = 9, solved to 1e-9
    residual = 20.0 * d * (d - 0.14) ** 3 - 9.0
    assert abs(residual) <= 1e-6, f"residual {residual:.2e} at d={d}"
    assert abs(d - 0.9263) <= 5e-4, f"{d} not near 0.9263"
    assert d > 2 * 0.07


def test_equilibrium_distance_rejects_zero_cohesion():
    with pytest.raises(ValueError):
        equilibrium_distance(0.0, 9.0, 0.0)


def test_equilibrium_distance_rejects_non_finite_arguments():
    # r_drone = nan used to spin forever in the bisection; see also the CLI test.
    for args, named in (((1.0, math.inf, 0.0), "w_sep"), ((math.inf, 1.0, 0.1), "w_coh"),
                        ((1.0, 1.0, math.inf), "r_drone")):
        with pytest.raises(ValueError, match=named):
            equilibrium_distance(*args)


@pytest.mark.parametrize("w_coh, w_sep, r_drone", [
    (1e-300, 1e300, 0.0), (1e-300, 1e300, 0.07),  # inf, and an overflow in the bisection
    (1e300, 1e-300, 0.0),  # a zero distance
])
def test_equilibrium_distance_rejects_a_ratio_that_is_not_positive_and_finite(w_coh, w_sep, r_drone):
    with pytest.raises(ValueError, match=r"w_sep / w_coh"):
        equilibrium_distance(w_coh, w_sep, r_drone)


def test_breakdown_total_is_sum_of_terms():
    rng = np.random.default_rng(99)
    for _ in range(50):
        p_i, neighbors, params = _random_config(rng)
        br = evaluate_cost(p_i, neighbors, params)
        s = br.coh + br.sep + br.tar + br.obs
        assert abs(br.total - s) <= 1e-12 * max(1.0, abs(s))
        assert br.coh >= 0 and br.sep >= 0 and br.tar >= 0 and br.obs >= 0


# --- batched kernel vs. the scalar cost ---------------------------------------


def _scalar_cost(p, nbr, params):
    """The single-point cost as it was written before the batched kernel,
    kept verbatim as the bit-level reference: (coh, sep, tar, obs, total)."""
    h = nbr.shape[0]
    coh = sep = tar = obs = 0.0
    if h > 0:
        diff = p - nbr
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2
        if params.w_coh > 0.0:
            coh = params.w_coh * float(d2.sum()) / h
        if params.w_sep > 0.0:
            gap = np.maximum(np.sqrt(d2) - 2.0 * params.r_drone, params.zero_hat)
            sep = params.w_sep * float((1.0 / gap**2).sum()) / h
    if params.w_tar > 0.0 and params.target is not None:
        centroid = (p + nbr.sum(axis=0)) / (h + 1) if h > 0 else p
        t = np.array(tuple(params.target), dtype=float)
        tar = params.w_tar * float(((t - centroid) ** 2).sum())
    k = len(params.obstacles)
    if params.w_obs > 0.0 and k > 0:
        centers = np.array([(o.x, o.y) for o in params.obstacles], dtype=float)
        radii = np.array([o.radius for o in params.obstacles], dtype=float)
        dxy = np.hypot(p[0] - centers[:, 0], p[1] - centers[:, 1])
        clearance = np.maximum(dxy - radii - params.r_drone, params.zero_hat)
        obs = params.w_obs * float((1.0 / clearance**2).sum()) / k
    return coh, sep, tar, obs, coh + sep + tar + obs


def _scalar_gradient(p, nbr, params):
    """The gradient as it was written before the array core, kept verbatim
    as the bit-level reference: Vec3 terms (coh, sep, tar, obs, total)."""
    zero = Vec3(0.0, 0.0, 0.0)
    h = nbr.shape[0]
    g_coh = g_sep = g_tar = g_obs = zero
    if h > 0:
        diff = p - nbr
        d = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2)
        if params.w_coh > 0.0:
            g_coh = Vec3(*(2.0 * params.w_coh * (p - nbr.mean(axis=0))).tolist())
        if params.w_sep > 0.0:
            unit = np.empty_like(diff)
            safe = d > 0.0
            unit[safe] = diff[safe] / d[safe, None]
            unit[~safe] = (1.0, 0.0, 0.0)
            gap3 = np.maximum(d - 2.0 * params.r_drone, params.zero_hat) ** 3
            g_sep = Vec3(*(-(2.0 * params.w_sep / h) * (unit / gap3[:, None]).sum(axis=0)).tolist())
    if params.w_tar > 0.0 and params.target is not None:
        centroid = (p + nbr.sum(axis=0)) / (h + 1) if h > 0 else p
        t = np.array(tuple(params.target), dtype=float)
        g_tar = Vec3(*((2.0 * params.w_tar / (h + 1)) * (centroid - t)).tolist())
    k = len(params.obstacles)
    if params.w_obs > 0.0 and k > 0:
        centers = np.array([(o.x, o.y) for o in params.obstacles], dtype=float)
        radii = np.array([o.radius for o in params.obstacles], dtype=float)
        dvec = np.stack([p[0] - centers[:, 0], p[1] - centers[:, 1]], axis=1)
        dxy = np.hypot(dvec[:, 0], dvec[:, 1])
        unit2 = np.empty_like(dvec)
        safe = dxy > 0.0
        unit2[safe] = dvec[safe] / dxy[safe, None]
        unit2[~safe] = (1.0, 0.0)
        gap3 = np.maximum(dxy - radii - params.r_drone, params.zero_hat) ** 3
        gxy = -(2.0 * params.w_obs / k) * (unit2 / gap3[:, None]).sum(axis=0)
        g_obs = Vec3(float(gxy[0]), float(gxy[1]), 0.0)
    return g_coh, g_sep, g_tar, g_obs, g_coh + g_sep + g_tar + g_obs


def _scalar_spc_choice(p_i, nbr, params, cfg):
    """The per-candidate SPC loop as it was written before the batched
    kernel: Vec3 candidates, one scalar cost each, first minimum wins."""
    gradient = _scalar_gradient(np.array(tuple(p_i)), nbr, params)[4]
    norm = gradient.norm()
    if not 1e-9 <= norm < math.inf:
        return p_i
    n = cfg.n_star
    if cfg.dynamic_n and params.target is not None:
        n = dynamic_lookahead_count(cfg.n_star, (p_i - params.target).norm())
    step = Vec3(-cfg.epsilon * gradient.x / norm, -cfg.epsilon * gradient.y / norm,
                -cfg.epsilon * gradient.z / norm)
    best, best_cost = p_i, math.inf
    for m in range(1, n + 1):
        candidate = Vec3(p_i.x + m * step.x, p_i.y + m * step.y, p_i.z + m * step.z)
        cost = _scalar_cost(np.array(tuple(candidate)), nbr, params)[4]
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best


def _kernel_case(rng, i):
    """Seeded random snapshot; the case index cycles through the edge cases."""
    h = (0, 1, 3, 7, 8, 9, 16, 29)[i % 8]
    p = rng.uniform(-3.0, 3.0, size=3)
    nbr = p + rng.normal(0.0, (0.05, 0.5, 2.0)[i % 3], size=(h, 3))
    if h and i % 5 == 0:
        nbr[rng.integers(h)] = p  # a neighbour that coincides with the point
    weights = rng.uniform(0.1, 200.0, size=4)
    weights[rng.uniform(size=4) < 0.2] = 0.0
    obstacles = ()
    if i % 2:
        xy = rng.uniform(-3.0, 3.0, size=(11, 2))
        if i % 7 == 1:
            xy[0] = p[:2]  # the point sits inside an obstacle
        obstacles = tuple(Obstacle(float(x), float(y), float(r))
                          for (x, y), r in zip(xy, rng.uniform(0.05, 0.6, size=11)))
    params = CostParams(
        *weights.tolist(),
        r_drone=float(rng.choice((0.0, 0.07, 0.3))),  # 0.3 puts near neighbours in the clamp
        zero_hat=float(rng.choice((1e-6, 0.05))),
        target=None if i % 4 == 3 else Vec3(*rng.uniform(-4.0, 4.0, size=3)),
        obstacles=obstacles,
    )
    return p, nbr, params


def test_cost_kernel_is_bit_identical_to_scalar_reference():
    rng = np.random.default_rng(31)
    for i in range(3000):
        p, nbr, params = _kernel_case(rng, i)
        points = np.vstack((p, p + rng.normal(0.0, 0.3, size=(int(rng.integers(0, 16)), 3))))
        terms = _cost_terms(points[None], _one_neighborhood(nbr), params)[0]
        totals = _cost_totals(terms)
        for row, point in enumerate(points):
            want = _scalar_cost(point, nbr, params)
            got = (*terms[row].tolist(), float(totals[row]))
            assert got == want, f"case {i} row {row}: {got} != {want}"
        br = evaluate_cost(p, nbr, params)
        assert (br.coh, br.sep, br.tar, br.obs, br.total) == _scalar_cost(p, nbr, params)

        cfg = ControllerConfig(kind="SPC", epsilon=float(rng.uniform(0.01, 0.3)),
                               n_star=int(rng.integers(1, 6)), dynamic_n=bool(i % 3))
        p_i = Vec3(*p.tolist())
        sp = spc_setpoint(p_i, nbr, params, cfg)
        assert sp.position == _scalar_spc_choice(p_i, nbr, params, cfg), f"case {i}"


def test_gradient_core_is_bit_identical_to_scalar_reference():
    # Same generator as the cost kernel test, including coincident
    # neighbours, points inside an obstacle and the clamp region.
    rng = np.random.default_rng(31)
    for i in range(3000):
        p, nbr, params = _kernel_case(rng, i)
        want = _hex(_scalar_gradient(p, nbr, params))
        assert _hex(_gradient(p[None], _one_neighborhood(nbr), params)[:, 0]) == want, f"case {i}"
        g = evaluate_gradient(Vec3(*p.tolist()), nbr, params)
        assert _hex((g.coh, g.sep, g.tar, g.obs, g.total)) == want, f"case {i}"


def _hex(vectors) -> list[str]:
    # float.hex tells -0.0 from 0.0, which == does not
    return [float(v).hex() for vec in vectors for v in vec]
