"""High-level controller tests: candidate geometry, argmin selection,
dynamic lookahead, and the gradient-following baseline."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from flockspc import (
    ControllerConfig,
    CostParams,
    Vec3,
    dynamic_lookahead_count,
    evaluate_cost,
    evaluate_gradient,
    pfc_setpoint,
    spc_setpoint,
)
from flockspc.controller import _MAX_N_STAR, _decide, _ladders, _norms
from flockspc.model import _one_neighborhood

TWO_DRONE = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)


def test_dynamic_lookahead_oracles():
    assert dynamic_lookahead_count(5, 0.0) == 5
    assert dynamic_lookahead_count(5, 10.0) == 15
    assert dynamic_lookahead_count(5, 1.5) == 15  # 1.5*(1.5+0.5) hits the cap exactly
    assert dynamic_lookahead_count(3, 10.0) == 9
    assert dynamic_lookahead_count(5, math.inf) == 15
    assert dynamic_lookahead_count(5, math.nan) == 5  # max(1.0, nan) is 1.0


def test_dynamic_lookahead_rejects_bad_arguments():
    for n_star in (0, -3):
        with pytest.raises(ValueError, match=rf"^n_star: must be in \[1, {_MAX_N_STAR}\], got {n_star}$"):
            dynamic_lookahead_count(n_star, 1.0)
    with pytest.raises(ValueError, match=r"^dist_to_target: must be >= 0, got -0.5$"):
        dynamic_lookahead_count(5, -0.5)


def test_dynamic_lookahead_takes_an_integer_n_star_only():
    # ControllerConfig rejects n_star=True; this returned 3 for it.
    for bad in (True, np.True_, 2.5, 5.0):
        with pytest.raises(ValueError, match=r"^n_star: must be an integer, got "):
            dynamic_lookahead_count(bad, 1.0)
    assert dynamic_lookahead_count(np.int64(5), 10.0) == dynamic_lookahead_count(5, 10.0) == 15


def test_n_star_has_a_maximum():
    # dynamic_lookahead_count(10**9, 5.0) returned -2147483648 (int32
    # overflow), and a rollout with such an n_star would allocate an
    # (n, 1 + 3 n_star, 3) ladder.  Only the checks run here, no decision.
    assert dynamic_lookahead_count(_MAX_N_STAR, 10.0) == 3 * _MAX_N_STAR
    assert ControllerConfig(kind="SPC", n_star=_MAX_N_STAR).n_star == _MAX_N_STAR
    for n_star in (_MAX_N_STAR + 1, 10**9, 2**31, 2**63):
        with pytest.raises(ValueError, match=rf"^n_star: must be in \[1, {_MAX_N_STAR}\], got {n_star}$"):
            dynamic_lookahead_count(n_star, 5.0)
        with pytest.raises(ValueError, match=rf"^n_star: must be an integer in \[1, {_MAX_N_STAR}\]"):
            ControllerConfig(kind="SPC", n_star=n_star)


def test_dynamic_lookahead_monotone_and_bounded():
    prev = 0
    for dist in np.linspace(0.0, 6.0, 61):
        n = dynamic_lookahead_count(5, float(dist))
        assert 5 <= n <= 15, f"count {n} outside [n*, 3n*] at dist {dist}"
        assert n >= prev, f"count decreased from {prev} to {n} at dist {dist}"
        prev = n


def _ladder(p: Vec3, g: Vec3, epsilon: float, n: int) -> list[Vec3]:
    """The SPC ladder kernel for one agent."""
    grad = np.array([tuple(g)], dtype=float)
    ladder = _ladders(np.array([tuple(p)], dtype=float), grad, _norms(grad), epsilon, n)
    return [Vec3(*row) for row in ladder[:, 0, 1:].T.tolist()]


def test_candidate_set_oracle():
    pts = _ladder(Vec3(1, 0, 1), Vec3(22, 0, 0), 0.06, 5)
    xs = [p.x for p in pts]
    expect = [0.94, 0.88, 0.82, 0.76, 0.70]
    assert len(pts) == 5
    for x, e in zip(xs, expect):
        assert abs(x - e) <= 1e-12, f"candidate xs {xs} != {expect}"
    assert all(p.y == 0.0 and p.z == 1.0 for p in pts)


def test_candidate_spacing_and_direction():
    p = Vec3(0.3, -1.2, 2.0)
    g = Vec3(1.0, -2.0, 0.5)
    pts = _ladder(p, g, 0.06, 7)
    u = -1.0 / g.norm() * g
    for m, q in enumerate(pts, start=1):
        assert ((q - p) - m * 0.06 * u).norm() <= 1e-12
    gaps = [(pts[i + 1] - pts[i]).norm() for i in range(6)]
    assert all(abs(gap - 0.06) <= 1e-12 for gap in gaps), f"gaps {gaps}"


def test_candidate_set_single_point_and_vertical():
    (only,) = _ladder(Vec3(0, 0, 1), Vec3(5, 0, 0), 0.1, 1)
    assert abs((only - Vec3(0, 0, 1)).norm() - 0.1) <= 1e-12
    below = _ladder(Vec3(0, 0, 1), Vec3(0, 0, 5), 0.1, 3)
    assert all(q.x == 0 and q.y == 0 for q in below)
    assert [round(q.z, 10) for q in below] == [0.9, 0.8, 0.7]


def test_candidate_set_rejects_zero_gradient():
    # A lone agent without a target has an exactly zero gradient: no ladder
    # is built from it, and the agent holds.
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5)
    p = np.array([[0.0, 0.0, 1.0]])
    d = _decide(p, _one_neighborhood([]), TWO_DRONE, cfg)
    assert d.grad_norms.tolist() == [0.0]
    assert (d.n_candidates.tolist(), d.chosen_m.tolist()) == ([0], [0])
    assert d.setpoints.tolist() == p.tolist()


def test_spc_setpoint_two_drone_oracle():
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5, dynamic_n=False)
    sp = spc_setpoint(Vec3(1, 0, 1), [Vec3(0, 0, 1)], TWO_DRONE, cfg)
    assert abs(sp.position.x - 0.82) <= 1e-12, f"setpoint {sp.position} != (0.82,0,1)"
    assert sp.position.y == 0.0 and sp.position.z == 1.0
    # the five candidate costs bracket the argmin at the third point
    costs = [20.0 * d * d + 9.0 / (d * d) for d in (0.94, 0.88, 0.82, 0.76, 0.70)]
    assert min(range(5), key=costs.__getitem__) == 2
    assert abs(costs[2] - 26.833) <= 5e-4


def test_spc_setpoint_lone_agent_holds():
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5)
    sp = spc_setpoint(Vec3(4, 5, 6), [], TWO_DRONE, cfg)
    assert sp.position == Vec3(4, 5, 6)


def test_spc_setpoint_holds_below_gradient_floor():
    d_eq = (9.0 / 20.0) ** 0.25
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5)
    p = Vec3(d_eq, 0, 1)
    g = evaluate_gradient(p, [Vec3(0, 0, 1)], TWO_DRONE).total
    assert g.norm() < 1e-9  # genuinely at the stationary point
    sp = spc_setpoint(p, [Vec3(0, 0, 1)], TWO_DRONE, cfg)
    assert sp.position == p


def test_spc_setpoint_tie_breaks_to_nearest():
    # lone agent, pure target cost; dyadic coordinates make the two
    # candidates exactly equidistant from the target, so costs are bit-equal
    params = CostParams(w_coh=0.0, w_sep=0.0, w_tar=150.0, w_obs=0.0,
                        target=Vec3(0.375, 0.0, 0.0))
    cfg = ControllerConfig(kind="SPC", epsilon=0.25, n_star=2, dynamic_n=False)
    c1 = evaluate_cost(Vec3(0.25, 0, 0), [], params).total
    c2 = evaluate_cost(Vec3(0.5, 0, 0), [], params).total
    assert c1 == c2, f"tie setup broken: {c1} vs {c2}"
    sp = spc_setpoint(Vec3(0, 0, 0), [], params, cfg)
    assert sp.position == Vec3(0.25, 0.0, 0.0), (
        f"tie must go to the nearest candidate, got {sp.position}")


def test_spc_setpoint_membership_and_optimality():
    rng = np.random.default_rng(42)
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5, dynamic_n=False)
    for _ in range(100):
        pts = rng.uniform(-2, 2, size=(4, 3))
        p = Vec3(*pts[0])
        neighbors = [Vec3(*row) for row in pts[1:]]
        g = evaluate_gradient(p, neighbors, TWO_DRONE).total
        if g.norm() < 1e-9:
            continue
        sp = spc_setpoint(p, neighbors, TWO_DRONE, cfg)
        cands = _ladder(p, g, cfg.epsilon, 5)
        assert any(sp.position == q for q in cands), "setpoint not in candidate set"
        best = evaluate_cost(sp.position, neighbors, TWO_DRONE).total
        for q in cands:
            c = evaluate_cost(q, neighbors, TWO_DRONE).total
            assert best <= c, f"candidate {q} beats setpoint: {c} < {best}"


def test_spc_dynamic_lookahead_reaches_farther():
    # far target: dynamic mode may step 3x deeper along the descent ray
    params = CostParams(w_coh=0.0, w_sep=0.0, w_tar=150.0, w_obs=0.0,
                        target=Vec3(10, 0, 1))
    p = Vec3(0, 0, 1)
    fixed = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5, dynamic_n=False)
    dyn = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5, dynamic_n=True)
    sp_fixed = spc_setpoint(p, [], params, fixed)
    sp_dyn = spc_setpoint(p, [], params, dyn)
    assert abs(sp_fixed.position.x - 0.30) <= 1e-12, f"fixed: {sp_fixed.position}"
    assert abs(sp_dyn.position.x - 0.90) <= 1e-12, f"dynamic: {sp_dyn.position}"


def test_spc_dynamic_lookahead_ignored_without_target():
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5, dynamic_n=True)
    fixed = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5, dynamic_n=False)
    p = Vec3(1.8, 0, 1)
    sp_a = spc_setpoint(p, [Vec3(0, 0, 1)], TWO_DRONE, cfg)
    sp_b = spc_setpoint(p, [Vec3(0, 0, 1)], TWO_DRONE, fixed)
    assert sp_a.position == sp_b.position


def test_pfc_setpoint_oracles():
    cfg_a = ControllerConfig(kind="PFC", pfc_gain=0.007)
    sp = pfc_setpoint(Vec3(1, 0, 1), [Vec3(0, 0, 1)], TWO_DRONE, cfg_a)
    assert abs(sp.position.x - 0.846) <= 1e-12, f"{sp.position} != (0.846,0,1)"

    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0,
                        target=Vec3(0, 0, 1))
    cfg_b = ControllerConfig(kind="PFC", pfc_gain=0.005)
    sp = pfc_setpoint(Vec3(1, 0, 1), [Vec3(0, 0, 1)], params, cfg_b)
    assert abs(sp.position.x - 0.515) <= 1e-12, f"{sp.position} != (0.515,0,1)"


def test_pfc_setpoint_zero_gradient_holds():
    cfg = ControllerConfig(kind="PFC", pfc_gain=0.007)
    sp = pfc_setpoint(Vec3(4, 5, 6), [], TWO_DRONE, cfg)
    assert sp.position == Vec3(4, 5, 6)


def test_spc_single_candidate_follows_pfc_direction():
    # with n=1 the candidate step is the normalized version of the PFC step
    p = Vec3(1.3, 0.4, 1.1)
    neighbors = [Vec3(0, 0, 1), Vec3(0.5, -0.7, 1.2)]
    spc_cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=1, dynamic_n=False)
    pfc_cfg = ControllerConfig(kind="PFC", pfc_gain=0.007)
    d_spc = spc_setpoint(p, neighbors, TWO_DRONE, spc_cfg).position - p
    d_pfc = pfc_setpoint(p, neighbors, TWO_DRONE, pfc_cfg).position - p
    cross = np.cross([d_spc.x, d_spc.y, d_spc.z], [d_pfc.x, d_pfc.y, d_pfc.z])
    dot = d_spc.x * d_pfc.x + d_spc.y * d_pfc.y + d_spc.z * d_pfc.z
    assert np.linalg.norm(cross) <= 1e-12 * d_pfc.norm()
    assert dot > 0.0
    assert abs(d_spc.norm() - 0.06) <= 1e-12


def test_spc_argmin_invariant_under_weight_scaling():
    # scaling every weight by a power of two scales all costs exactly,
    # leaving the argmin (and therefore the setpoint bits) unchanged
    base = CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0,
                      target=Vec3(3, 1, 1))
    scaled = CostParams(w_coh=80.0, w_sep=36.0, w_tar=600.0, w_obs=0.0,
                        target=Vec3(3, 1, 1))
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=5, dynamic_n=False)
    rng = np.random.default_rng(5)
    for _ in range(25):
        pts = rng.uniform(-2, 2, size=(3, 3))
        p = Vec3(*pts[0])
        neighbors = [Vec3(*row) for row in pts[1:]]
        a = spc_setpoint(p, neighbors, base, cfg).position
        b = spc_setpoint(p, neighbors, scaled, cfg).position
        assert a == b, f"argmin moved under weight scaling: {a} vs {b}"


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(kind="SPC", epsilon=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(kind="SPC", n_star=0)
    with pytest.raises(ValueError):
        ControllerConfig(kind="PFC", pfc_gain=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(kind="APF")
    with pytest.raises(ValueError):
        spc_setpoint(Vec3(0, 0, 1), [Vec3(1, 0, 1)], TWO_DRONE,
                     ControllerConfig(kind="PFC", pfc_gain=0.007))
    with pytest.raises(ValueError):
        pfc_setpoint(Vec3(0, 0, 1), [Vec3(1, 0, 1)], TWO_DRONE,
                     ControllerConfig(kind="SPC"))


def test_spc_setpoint_holds_when_no_candidate_cost_is_finite():
    # 0.1 * (5e154)^2 overflows to inf at every candidate while the gradient
    # (1e154 along x) is still finite.
    p = Vec3(5e154, 0.0, 1.0)
    params = CostParams(w_coh=0.0, w_sep=0.0, w_tar=0.1, w_obs=0.0, target=Vec3(0.0, 0.0, 1.0))
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=3)
    with np.errstate(over="ignore"):
        assert math.isfinite(evaluate_gradient(p, [], params).total.norm())
        assert spc_setpoint(p, [], params, cfg).position == p


def test_spc_setpoint_holds_on_nan_gradient():
    # cohesion pushes +inf and the target term -inf along x: the sum is NaN
    p = Vec3(1e10, 0.0, 1.0)
    params = CostParams(w_coh=1e300, w_sep=0.0, w_tar=1e300, w_obs=0.0, target=Vec3(1e20, 0.0, 1.0))
    cfg = ControllerConfig(kind="SPC", epsilon=0.06, n_star=3)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(evaluate_gradient(p, [Vec3(0.0, 0.0, 1.0)], params).total.x)
        assert spc_setpoint(p, [Vec3(0.0, 0.0, 1.0)], params, cfg).position == p


def test_flat_gradient_far_out_holds_without_a_warning():
    # A lone agent with no target weight has a flat gradient and holds.  Its
    # distance to the target (2.5e308 m here) would overflow, so no candidate
    # count may be taken from it: with warnings as errors nothing is raised.
    p = Vec3(1.5e308, -1.5e308, 1e308)
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0,
                        target=Vec3(-1e308, 1e308, 1.4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = spc_setpoint(p, [], params, ControllerConfig(kind="SPC"))
    assert sp.position == p and sp.grad_norm == 0.0
