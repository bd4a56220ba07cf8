"""Acceptance suite: ten end-to-end criteria, one test (and one verbose
pass/fail line) per criterion.

 1. analytical gradient vs central finite differences, 1000 random configs
 2. two-drone SPC rollout converges to the closed-form equilibrium
 3. full-rollout argmin audit: every setpoint is the cheapest candidate
 4. dynamic lookahead endpoint values
 5. step-response ordering of the two LLC families
 6. stopping-distance and 99%-energy laws
 7. nine-agent flock keeps separation and compactness on seeds 0-4
 8. SPC holds separation through the obstacle gate where the
    gradient-following baseline does not
 9. byte-identical traces from two separate simulate processes
10. metrics equal a brute-force oracle on 10^4 random configurations
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from flockspc import (
    CostParams,
    LLCConfig,
    Obstacle,
    Vec3,
    build_scenario,
    compute_metrics,
    dynamic_lookahead_count,
    equilibrium_distance,
    evaluate_cost,
    evaluate_gradient,
    finite_difference_gradient,
    fly,
    run_scenario,
    scenario_to_dict,
    step_response,
    thresholds_for_scenario,
    tick_cost_params,
    tick_observation,
    aggregate,
)


def _random_config(rng):
    """Non-degenerate random snapshot: <= 30 neighbors, <= 11 obstacles,
    everything kept clear of the clamp boundaries."""
    while True:
        n_nb = int(rng.integers(0, 31))
        n_obs = int(rng.integers(0, 12))
        p_i = Vec3(*rng.uniform(-2.5, 2.5, size=3))
        neighbors = []
        for _ in range(n_nb):
            q = rng.uniform(-2.5, 2.5, size=3)
            if math.dist((p_i.x, p_i.y, p_i.z), q) >= 0.3:
                neighbors.append(Vec3(*q))
        if len(neighbors) != n_nb:
            continue
        obstacles = []
        for _ in range(n_obs):
            x, y = rng.uniform(-2.5, 2.5, size=2)
            if math.hypot(p_i.x - x, p_i.y - y) >= 0.32:  # r_k + r_drone + margin
                obstacles.append(Obstacle(float(x), float(y), 0.15))
        if len(obstacles) != n_obs:
            continue
        params = CostParams(
            w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=12.0, r_drone=0.07,
            target=Vec3(*rng.uniform(-3, 3, size=3)), obstacles=tuple(obstacles),
        )
        return p_i, neighbors, params


def test_criterion_01_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst = 0.0
    checked = 0
    while checked < 1000:
        p_i, neighbors, params = _random_config(rng)
        g = evaluate_gradient(p_i, neighbors, params).total
        if g.norm() < 1e-2:
            continue  # relative error is ill-posed near stationary points
        fd = finite_difference_gradient(p_i, neighbors, params, h=1e-6)
        rel = (g - fd).norm() / max(fd.norm(), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-4, f"config {checked}: rel error {rel:.3e} exceeds 1e-4"
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"1000-config sweep took {elapsed:.1f}s (limit 10s)"
    print(f"criterion 1 PASS: worst rel error {worst:.3e} over 1000 configs "
          f"in {elapsed:.2f}s")


def test_criterion_02_two_drone_equilibrium():
    from flockspc import ControllerConfig, ScenarioConfig, SpawnSpec

    d_eq = equilibrium_distance(20.0, 9.0, 0.0)
    cfg = ScenarioConfig(
        agent_count=2,
        spawn=SpawnSpec(positions=(Vec3(-0.7, 0, 1.4), Vec3(0.7, 0, 1.4))),
        cost=CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0),
        controller=ControllerConfig(kind="SPC", epsilon=0.06, n_star=5),
        llc=LLCConfig(family="A"),
        r_h=math.inf, noise_sigma=0.0,
        physics_dt=0.01, control_period=0.1, duration=30.0, seed=0,
        formation_time=25.0,
    )
    trace = run_scenario(cfg)
    tail = [r for r in trace.records if r.time >= 25.0]
    seps = [math.dist(r.positions[0], r.positions[1]) for r in tail]
    mean_sep = sum(seps) / len(seps)
    rel = abs(mean_sep - d_eq) / d_eq
    assert rel <= 0.05, (
        f"separation {mean_sep:.4f} m vs equilibrium {d_eq:.4f} m: {rel * 100:.2f}% off")
    print(f"criterion 2 PASS: separation {mean_sep:.4f} m within "
          f"{rel * 100:.2f}% of {d_eq:.4f} m")


def _ladder(p: Vec3, g: Vec3, epsilon: float, n: int) -> list[Vec3]:
    """Candidates m = 1..n at p - m * epsilon * g / |g|, in numpy with the
    operation order of the simulator's ladder kernel, so they match it bit
    for bit."""
    step = -epsilon * np.array(tuple(g)) / math.sqrt(g.x * g.x + g.y * g.y + g.z * g.z)
    ladder = np.array(tuple(p)) + np.arange(1.0, n + 1.0)[:, None] * step
    return [Vec3(*row) for row in ladder.tolist()]


def test_criterion_03_spc_argmin_audit():
    cfg = build_scenario(5, "three", "SPC", "B", seed=1, duration=20.0)
    trace = run_scenario(cfg)
    decisions = 0
    holds = 0
    for k, rec in enumerate(trace.records):
        params = tick_cost_params(trace, k)
        for agent in range(cfg.agent_count):
            obs = tick_observation(trace, k, agent)
            p_self = next(p for j, p in obs if j == agent)
            neighbors = [p for j, p in obs if j != agent]
            recorded = Vec3(*map(float, rec.setpoints[agent]))
            chosen, n_rec = int(rec.chosen_m[agent]), int(rec.n_candidates[agent])
            g = evaluate_gradient(p_self, neighbors, params).total
            if g.norm() < 1e-9:
                assert recorded == p_self and chosen == 0 and n_rec == 0, (
                    f"tick {k} agent {agent}: flat gradient must hold position")
                holds += 1
                continue
            if cfg.controller.dynamic_n and params.target is not None:
                n = dynamic_lookahead_count(
                    cfg.controller.n_star, (p_self - params.target).norm())
            else:
                n = cfg.controller.n_star
            assert n_rec == n, f"tick {k} agent {agent}: {n_rec} candidates recorded, not {n}"
            cands = _ladder(p_self, g, cfg.controller.epsilon, n)
            assert 1 <= chosen <= n and recorded == cands[chosen - 1], (
                f"tick {k} agent {agent}: setpoint {recorded} is not candidate {chosen}")
            best = evaluate_cost(recorded, neighbors, params).total
            for q in cands:
                c = evaluate_cost(q, neighbors, params).total
                assert best <= c, (
                    f"tick {k} agent {agent}: candidate at cost {c:.6f} beats the "
                    f"recorded setpoint at {best:.6f}")
            decisions += 1
    assert decisions > 0
    print(f"criterion 3 PASS: {decisions} setpoints audited "
          f"({holds} holds), zero argmin violations")


def test_criterion_04_dynamic_lookahead_endpoints():
    assert dynamic_lookahead_count(5, 0.0) == 5
    for dist in (1.5, 2.0, 5.0, 50.0):
        n = dynamic_lookahead_count(5, dist)
        assert n == 15, f"N({dist}) = {n}, expected 15"
    print("criterion 4 PASS: N(0) = 5 and N(d >= 1.5) = 15 for N* = 5")


def test_criterion_05_llc_step_response_ordering():
    a = step_response(LLCConfig(family="A"), 1.0)
    b = step_response(LLCConfig(family="B"), 1.0)
    assert a.settled and b.settled
    assert 2.0 * b.rise_time_90 < a.rise_time_90, (
        f"B rise {b.rise_time_90:.3f}s is not less than half of A's "
        f"{a.rise_time_90:.3f}s")
    assert b.overshoot_pct > a.overshoot_pct, (
        f"B overshoot {b.overshoot_pct:.1f}% does not exceed A's "
        f"{a.overshoot_pct:.1f}%")
    print(f"criterion 5 PASS: rise A {a.rise_time_90:.3f}s vs B "
          f"{b.rise_time_90:.3f}s; overshoot A {a.overshoot_pct:.1f}% vs B "
          f"{b.overshoot_pct:.1f}%")


def test_criterion_06_stopping_distance_law():
    cfg = LLCConfig(family="B", t_delta=0.5)
    st = np.array([[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]])  # at (0, 0, 1), 1 m/s along x
    dt = 0.001
    t99 = -cfg.t_delta * math.log(math.sqrt(0.01))
    x_at_t99 = None
    for i in range(5000):
        fly(st, st[:, :3].copy(), cfg, dt)  # reference pinned to the current position
        if x_at_t99 is None and (i + 1) * dt >= t99:
            x_at_t99 = float(st[0, 0])
    total = float(st[0, 0])
    assert abs(total - 0.50) <= 0.02 * 0.50, f"stopping distance {total:.5f} m"
    assert abs(x_at_t99 - 0.45) <= 0.02 * 0.45, (
        f"distance {x_at_t99:.5f} m at the 99%-energy time {t99:.4f}s")
    print(f"criterion 6 PASS: total {total:.5f} m (0.50 +/- 2%), "
          f"{x_at_t99:.5f} m at t99 = {t99:.3f}s (~0.45)")


def test_criterion_07_flock_maintenance_nine_agents():
    worst_dist = math.inf
    worst_comp = 0.0
    for seed in range(5):
        cfg = build_scenario(9, "none", "SPC", "A", seed=seed,
                             duration=60.0, noise_sigma=0.10)
        start = time.monotonic()
        trace = run_scenario(cfg)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"seed {seed}: rollout took {elapsed:.1f}s"
        s = aggregate(trace, thresholds_for_scenario(cfg))
        assert s.dist_min > 0.20, (
            f"seed {seed}: min(dist_min) = {s.dist_min:.3f} m <= 0.20 m")
        assert s.comp_max < 10.0, (
            f"seed {seed}: max(comp_max) = {s.comp_max:.3f} m >= 10 m")
        worst_dist = min(worst_dist, s.dist_min)
        worst_comp = max(worst_comp, s.comp_max)
    print(f"criterion 7 PASS: seeds 0-4 dist_min >= {worst_dist:.3f} m, "
          f"comp_max <= {worst_comp:.3f} m")


def test_criterion_08_spc_beats_gradient_baseline_on_obstacles():
    spc_ok = []
    pfc_violated = []
    spc_margins = []
    pfc_margins = []
    for seed in range(5):
        for kind, ok_list, margins in (("SPC", spc_ok, spc_margins),
                                       ("PFC", pfc_violated, pfc_margins)):
            cfg = build_scenario(9, "three", kind, "B", seed=seed, duration=60.0)
            trace = run_scenario(cfg)
            s = aggregate(trace, thresholds_for_scenario(cfg))
            margins.append(s.dist_min)
            if kind == "SPC":
                ok_list.append(s.dist_ok is True)
            else:
                ok_list.append(s.dist_ok is False)
    assert all(spc_ok), (
        f"SPC violated the separation threshold: dist_min per seed {spc_margins}")
    violations = sum(pfc_violated)
    assert violations >= 3, (
        f"baseline violated separation on only {violations}/5 seeds "
        f"(needs a majority): dist_min per seed {pfc_margins}")
    print(f"criterion 8 PASS: SPC dist_min {[f'{d:.3f}' for d in spc_margins]} "
          f"all clear; baseline violated on {violations}/5 seeds "
          f"{[f'{d:.3f}' for d in pfc_margins]}")


def _dispatched_simd(env=None) -> list[str]:
    """The SIMD targets numpy picks kernels for at run time and that are
    enabled, in a python process with environment env (None: this one)."""
    code = ("try:\n from numpy._core import _multiarray_umath as u\n"
            "except ImportError:\n from numpy.core import _multiarray_umath as u\n"
            "print(' '.join(t for t in u.__cpu_dispatch__ if u.__cpu_features__.get(t)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    return out.split()


def test_criterion_09_trace_determinism_across_processes(tmp_path):
    # The second process runs with every dispatched SIMD target turned off,
    # so the bytes may not depend on the host's vector units either.
    cfg = build_scenario(9, "three", "SPC", "A", seed=3, duration=10.0)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(cfg)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    simd = _dispatched_simd(env)
    scalar_env = dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(simd))
    assert _dispatched_simd(scalar_env) == []
    traces = []
    for run, run_env in (("a", env), ("b", scalar_env)):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "flockspc", "simulate", "--scenario", str(scenario),
             "--out", str(out)],
            env=run_env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1], (
        f"trace.csv differs between a native simulate process and one without {simd}")
    print(f"criterion 9 PASS: {len(traces[0].splitlines())}-line traces "
          f"byte-identical across two simulate processes, the second without "
          f"SIMD targets {simd or 'none dispatched'}")


def test_criterion_10_metrics_match_brute_force():
    rng = np.random.default_rng(10)
    trials = 10_000
    for _ in range(trials):
        n = int(rng.integers(1, 31))
        pos = rng.uniform(-5, 5, size=(n, 3))
        n_obs = int(rng.integers(0, 12))
        obstacles = [Obstacle(float(x), float(y), 0.15)
                     for x, y in rng.uniform(-5, 5, size=(n_obs, 2))]
        s = compute_metrics(pos, obstacles)

        # The oracle runs on Python floats: the same IEEE operations as on
        # numpy scalars, without indexing the array one element at a time.
        points = pos.tolist()
        dist = None
        if n >= 2:
            best = math.inf
            for i, (xi, yi, zi) in enumerate(points):
                for xj, yj, zj in points[i + 1:]:
                    dx = xi - xj
                    dy = yi - yj
                    dz = zi - zj
                    best = min(best, dx * dx + dy * dy + dz * dz)
            dist = math.sqrt(best)
        mx, my, mz = pos.mean(axis=0).tolist()
        worst = 0.0
        for x, y, z in points:
            cx = x - mx
            cy = y - my
            cz = z - mz
            worst = max(worst, cx * cx + cy * cy + cz * cz)
        comp = math.sqrt(worst)
        clear = None
        if obstacles:
            best = math.inf
            for o in obstacles:
                for x, y, _ in points:
                    ex = x - o.x
                    ey = y - o.y
                    best = min(best, ex * ex + ey * ey)
            clear = math.sqrt(best)

        assert s.dist_min == dist, f"dist_min {s.dist_min} != oracle {dist}"
        assert s.comp_max == comp, f"comp_max {s.comp_max} != oracle {comp}"
        assert s.clear_obj == clear, f"clear_obj {s.clear_obj} != oracle {clear}"
    print(f"criterion 10 PASS: exact equality on {trials} random configurations")
