"""Simulation engine tests: observation noise and filtering, rollout
semantics, determinism, and scenario file parsing."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from flockspc import (
    ConfigError,
    ControllerConfig,
    CostParams,
    LLCConfig,
    Obstacle,
    ScenarioConfig,
    Simulation,
    SpawnSpec,
    Vec3,
    Waypoint,
    build_scenario,
    dynamic_lookahead_count,
    equilibrium_distance,
    evaluate_gradient,
    hardware_scenario,
    load_scenario,
    observation_stream,
    observe,
    parse_scenario,
    pfc_setpoint,
    run_scenario,
    scenario_to_dict,
    spawn_stream,
    spc_setpoint,
    tick_cost_params,
    tick_observation,
    write_trace_csv,
)
from flockspc.controller import HOLD_GRADIENT_NORM, _ladders, _norms
from flockspc.engine import DivergenceError, _snapshot, _spawn_positions

DEFAULT_COST = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0)


def _scenario(**overrides) -> ScenarioConfig:
    base = dict(
        agent_count=2,
        spawn=SpawnSpec(positions=(Vec3(-0.5, 0, 1.4), Vec3(0.5, 0, 1.4))),
        cost=DEFAULT_COST,
        controller=ControllerConfig(kind="SPC", epsilon=0.06, n_star=5),
        llc=LLCConfig(family="A"),
        r_h=math.inf,
        noise_sigma=0.0,
        physics_dt=0.01,
        control_period=0.1,
        duration=10.0,
        seed=0,
        formation_time=5.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_observe_noise_free_returns_true_positions():
    pos = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 1.5], [-1.0, 0.3, 0.9]])
    rng = observation_stream(seed=0, tick=0, agent=0)
    out = observe(pos, 0, sigma=0.0, r_h=math.inf, rng=rng)
    assert [j for j, _ in out] == [0, 1, 2]
    for j, p in out:
        assert (p.x, p.y, p.z) == tuple(pos[j]), f"agent {j} perturbed at sigma=0"


def test_observe_noise_std_matches_sigma():
    pos = np.zeros((4, 3))
    samples = []
    for tick in range(8334):  # 8334*4*3 > 1e5 draws
        rng = observation_stream(seed=7, tick=tick, agent=0)
        out = observe(pos, 0, sigma=0.10, r_h=math.inf, rng=rng)
        samples.extend(coord for _, p in out for coord in (p.x, p.y, p.z))
    std = float(np.std(samples))
    assert abs(std - 0.10) <= 0.002, f"sample std {std:.5f} not within 2% of 0.10"
    mean = float(np.mean(samples))
    assert abs(mean) <= 0.002, f"noise mean {mean:.5f} too far from 0"


def test_observe_neighborhood_filter_strict():
    pos = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    for agent in (0, 1):
        rng = observation_stream(seed=0, tick=0, agent=agent)
        out = observe(pos, agent, sigma=0.0, r_h=0.9, rng=rng)
        assert [j for j, _ in out] == [agent], (
            f"agent {agent} at 1.0 m separation should only see itself with r_h=0.9")
    # boundary: exactly r_h apart is outside (strict inequality)
    rng = observation_stream(seed=0, tick=0, agent=0)
    out = observe(np.array([[0.0, 0, 1], [1.0, 0, 1]]), 0, 0.0, 1.0, rng)
    assert [j for j, _ in out] == [0]
    rng = observation_stream(seed=0, tick=0, agent=0)
    out = observe(np.array([[0.0, 0, 1], [0.999, 0, 1]]), 0, 0.0, 1.0, rng)
    assert [j for j, _ in out] == [0, 1]


def test_observe_deterministic_per_key():
    pos = np.random.default_rng(1).uniform(-1, 1, size=(3, 3))
    a = observe(pos, 1, 0.1, math.inf, observation_stream(3, 17, 1))
    b = observe(pos, 1, 0.1, math.inf, observation_stream(3, 17, 1))
    c = observe(pos, 1, 0.1, math.inf, observation_stream(3, 18, 1))
    assert a == b, "same (seed, tick, agent) must reproduce identical noise"
    assert a != c, "different tick should give different noise"


def test_seeds_past_2_53_get_their_own_streams():
    # numpy used to read the key list through float64, so these two collided.
    for seed in (2**53, 2**62 + 7, 2**64 - 2):
        a = observation_stream(seed, 3, 1).normal(size=3)
        b = observation_stream(seed + 1, 3, 1).normal(size=3)
        assert not np.array_equal(a, b), f"seeds {seed} and {seed + 1} share a stream"
        assert not np.array_equal(spawn_stream(seed).uniform(size=3),
                                  spawn_stream(seed + 1).uniform(size=3))


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_array_snapshot_equals_observe(n):
    # The simulator's flock-wide snapshot (one re-keyed noise generator, one
    # neighbour mask per tick) must give observe()'s snapshot row for row,
    # whatever order the ticks and agents are asked in.
    rng = np.random.default_rng(n)
    pos = rng.uniform(-1.5, 1.5, size=(n, 3))
    agents = np.arange(n)
    for sigma in (0.0, 0.1):
        for r_h in (0.9, math.inf):
            sim = Simulation(_scenario(agent_count=n, noise_sigma=sigma, r_h=r_h, seed=n + 40,
                                       spawn=SpawnSpec(positions=tuple(Vec3(*p) for p in pos))))
            for tick in rng.permutation([0, 1, 5, 2**40]).tolist():
                streams = (sim._observation_stream(tick, agent) for agent in range(n))
                seen, near = _snapshot(pos, agents, sigma, r_h, streams)
                for agent in rng.permutation(n).tolist():
                    want = observe(pos, agent, sigma, r_h,
                                   observation_stream(n + 40, tick, agent))
                    assert (agent, Vec3(*seen[agent, agent].tolist())) in want
                    got = [(j, Vec3(*seen[agent, j].tolist()))
                           for j in np.flatnonzero(near[agent]).tolist()]
                    assert got == [(j, p) for j, p in want if j != agent], (sigma, r_h, tick, agent)


def test_single_agent_holds_position():
    cfg = _scenario(agent_count=1, spawn=SpawnSpec(positions=(Vec3(0.3, -0.2, 1.4),)))
    trace = run_scenario(cfg)
    start = trace.records[0].positions[0]
    end = trace.records[-1].positions[0]
    drift = math.dist(start, end)
    assert drift < 1e-3, f"lone agent drifted {drift * 1000:.3f} mm over 10 s"


def test_two_agent_equilibrium_convergence():
    cfg = _scenario(duration=30.0, formation_time=25.0)
    trace = run_scenario(cfg)
    d_eq = equilibrium_distance(20.0, 9.0, 0.0)
    tail = [r for r in trace.records if r.time >= 25.0]
    dists = [math.dist(r.positions[0], r.positions[1]) for r in tail]
    mean_d = sum(dists) / len(dists)
    assert abs(mean_d - d_eq) <= 0.05 * d_eq, (
        f"mean separation {mean_d:.4f} not within 5% of {d_eq:.4f}")


def test_waypoint_switch_at_first_tick_at_or_after_time():
    wp = (Waypoint(0.0, Vec3(0, 0, 1.4)), Waypoint(2.0, Vec3(3, 0, 1.4)))
    cfg = _scenario(
        cost=CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0),
        waypoints=wp, duration=4.0, formation_time=1.0)
    trace = run_scenario(cfg)
    for rec in trace.records:
        expect = wp[1].target if rec.time >= 2.0 - 1e-9 else wp[0].target
        assert rec.target == expect, (
            f"tick at t={rec.time}: active target {rec.target}, expected {expect}")


def test_box_spawn_respects_min_spacing_and_bounds():
    spawn = SpawnSpec(box_min=Vec3(-1.5, -1.5, 1.0), box_max=Vec3(1.5, 1.5, 1.8),
                      min_spacing=0.4)
    cfg = _scenario(agent_count=9, spawn=spawn, duration=0.1, formation_time=0.0)
    trace = run_scenario(cfg)
    pos = trace.records[0].positions
    for i in range(9):
        assert (-1.5 <= pos[i, 0] <= 1.5 and -1.5 <= pos[i, 1] <= 1.5
                and 1.0 <= pos[i, 2] <= 1.8), f"agent {i} spawned out of box: {pos[i]}"
        for j in range(i + 1, 9):
            d = math.dist(pos[i], pos[j])
            assert d >= 0.4, f"spawn spacing {d:.3f} < 0.4 between {i} and {j}"


def _reference_spawn_positions(cfg):
    """Box spawn placement as it was written before the one-pass distance
    check, kept as the reference: one np.linalg.norm per placed agent per
    attempt."""
    spawn = cfg.spawn
    rng = spawn_stream(cfg.seed)
    lo = np.array(tuple(spawn.box_min), dtype=float)
    hi = np.array(tuple(spawn.box_max), dtype=float)
    placed = []
    for _ in range(cfg.agent_count):
        for _ in range(10_000):
            p = rng.uniform(lo, hi)
            if all(float(np.linalg.norm(p - q)) >= spawn.min_spacing for q in placed):
                placed.append(p)
                break
        else:
            raise AssertionError("reference placement failed")
    return np.array(placed)


_SPAWN_CASES = {
    "eleven_30": lambda seed: build_scenario(30, "eleven", "SPC", "A", seed),
    "open_100": lambda seed: build_scenario(100, "none", "PFC", "B", seed, duration=20.0),
    "hardware": hardware_scenario,
    # Tightly packed, so most draws are rejected.
    "packed_20": lambda seed: _scenario(
        agent_count=20, seed=seed,
        spawn=SpawnSpec(box_min=Vec3(0, 0, 1.0), box_max=Vec3(1, 1, 1.4), min_spacing=0.25)),
}


@pytest.mark.parametrize("case", sorted(_SPAWN_CASES))
def test_box_spawn_matches_reference_loop(case):
    # Same draws, same accept/reject decisions, same positions.
    for seed in range(40):
        cfg = _SPAWN_CASES[case](seed)
        got = _spawn_positions(cfg)
        assert got.tobytes() == _reference_spawn_positions(cfg).tobytes(), (case, seed)


def test_explicit_spawn_positions_exact():
    pts = (Vec3(0.1, 0.2, 1.1), Vec3(-0.4, 0.5, 1.3))
    cfg = _scenario(spawn=SpawnSpec(positions=pts), duration=0.1, formation_time=0.0)
    trace = run_scenario(cfg)
    pos = trace.records[0].positions
    assert tuple(pos[0]) == (0.1, 0.2, 1.1) and tuple(pos[1]) == (-0.4, 0.5, 1.3)


def test_diverging_rollout_raises_without_numpy_warnings():
    # Noise of 1e308 overflows the decision arithmetic before the plant state
    # stops being finite; run() keeps numpy quiet for every caller, not
    # only `flockspc simulate`.
    cfg = build_scenario(3, "none", "PFC", "B", 0, duration=12.0, noise_sigma=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=r"^tick 0 \(t=0 s\), agent 0: plant position"):
            run_scenario(cfg)


def test_same_seed_reproduces_different_seed_diverges():
    spawn = SpawnSpec(box_min=Vec3(-1, -1, 1.0), box_max=Vec3(1, 1, 1.8))
    a = run_scenario(_scenario(spawn=spawn, noise_sigma=0.1, duration=2.0,
                               formation_time=1.0, seed=0))
    b = run_scenario(_scenario(spawn=spawn, noise_sigma=0.1, duration=2.0,
                               formation_time=1.0, seed=0))
    c = run_scenario(_scenario(spawn=spawn, noise_sigma=0.1, duration=2.0,
                               formation_time=1.0, seed=1))
    assert np.array_equal(a.records[-1].positions, b.records[-1].positions)
    assert not np.array_equal(a.records[-1].positions, c.records[-1].positions)


def test_reverse_order_replay_reproduces_setpoints():
    # Each decision is a pure function of its own replayable snapshot, so
    # evaluating the agents (and ticks) in reverse order changes no bit.
    cfg = _scenario(agent_count=4, noise_sigma=0.1, duration=3.0, formation_time=1.0,
                    cost=CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0),
                    waypoints=(Waypoint(0.0, Vec3(0.5, 0.0, 1.4)),),
                    spawn=SpawnSpec(box_min=Vec3(-1, -1, 1.0), box_max=Vec3(1, 1, 1.8)))
    trace = run_scenario(cfg)
    for k in reversed(range(len(trace.records))):
        params = tick_cost_params(trace, k)
        for agent in reversed(range(cfg.agent_count)):
            obs = tick_observation(trace, k, agent)
            p_self = next(p for j, p in obs if j == agent)
            rows = [tuple(p) for j, p in obs if j != agent]
            neighbors = np.array(rows, dtype=float) if rows else np.empty((0, 3))
            setpoint = spc_setpoint(p_self, neighbors, params, cfg.controller).position
            assert tuple(setpoint) == tuple(trace.records[k].setpoints[agent]), (
                f"tick {k} agent {agent}: replayed setpoint {setpoint} differs from "
                f"recorded {tuple(trace.records[k].setpoints[agent])}")


def test_pfc_replay_reproduces_setpoints():
    # The PFC counterpart: every recorded setpoint of a noisy rollout is the
    # bit-exact result of pfc_setpoint on the replayed snapshot.
    cfg = _scenario(agent_count=4, noise_sigma=0.1, duration=3.0, formation_time=1.0,
                    cost=CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=0.0),
                    controller=ControllerConfig(kind="PFC", pfc_gain=0.007),
                    waypoints=(Waypoint(0.0, Vec3(0.5, 0.0, 1.4)),),
                    spawn=SpawnSpec(box_min=Vec3(-1, -1, 1.0), box_max=Vec3(1, 1, 1.8)))
    trace = run_scenario(cfg)
    for k, rec in enumerate(trace.records):
        params = tick_cost_params(trace, k)
        for agent in range(cfg.agent_count):
            obs = tick_observation(trace, k, agent)
            p_self = next(p for j, p in obs if j == agent)
            rows = [tuple(p) for j, p in obs if j != agent]
            neighbors = np.array(rows, dtype=float) if rows else np.empty((0, 3))
            sp = pfc_setpoint(p_self, neighbors, params, cfg.controller)
            assert tuple(sp.position) == tuple(rec.setpoints[agent]), (
                f"tick {k} agent {agent}: replayed setpoint {sp.position} differs from "
                f"recorded {tuple(rec.setpoints[agent])}")
            c = sp.cost
            assert (c.total, c.coh, c.sep, c.tar, c.obs, sp.grad_norm) == (
                *rec.costs[agent].tolist(), float(rec.grad_norms[agent]))
            assert rec.n_neighbors[agent] == len(rows)
        assert not rec.n_candidates.any() and not rec.chosen_m.any()


def test_decision_diagnostics_match_replay():
    # Neighbour count, candidate count and chosen candidate (0 = hold) of
    # every decision of a noisy SPC rollout through an obstacle field,
    # re-derived from the replayed snapshot with the scalar public API.
    cfg = _scenario(agent_count=6, noise_sigma=0.1, r_h=0.9, duration=4.0, formation_time=1.0,
                    cost=CostParams(w_coh=20.0, w_sep=9.0, w_tar=150.0, w_obs=12.0),
                    obstacles=(Obstacle(1.0, 0.3, 0.15), Obstacle(1.2, -0.4, 0.15)),
                    waypoints=(Waypoint(0.0, Vec3(0.0, 0.0, 1.4)),
                               Waypoint(1.0, Vec3(2.5, 0.0, 1.4))),
                    spawn=SpawnSpec(box_min=Vec3(-1, -1, 1.0), box_max=Vec3(1, 1, 1.8)))
    ctrl = cfg.controller
    trace = run_scenario(cfg)
    seen = {"neighbors": set(), "candidates": set(), "chosen": set()}
    for k, rec in enumerate(trace.records):
        params = tick_cost_params(trace, k)
        for agent in range(cfg.agent_count):
            obs = tick_observation(trace, k, agent)
            p_self = next(p for j, p in obs if j == agent)
            neighbors = [p for j, p in obs if j != agent]
            sp = spc_setpoint(p_self, neighbors, params, ctrl).position
            g = evaluate_gradient(p_self, neighbors, params).total
            n = 0
            if HOLD_GRADIENT_NORM <= g.norm() < math.inf:
                n = ctrl.n_star
                if params.target is not None:
                    n = dynamic_lookahead_count(n, (p_self - params.target).norm())
            cands = []
            if n:
                grad = np.array([tuple(g)])
                ladder = _ladders(np.array([tuple(p_self)]), grad, _norms(grad), ctrl.epsilon, n)
                cands = [Vec3(*q) for q in ladder[0].tolist()]
            chosen = next((m for m, q in enumerate(cands, start=1) if q == sp), 0)
            got = (int(rec.n_neighbors[agent]), int(rec.n_candidates[agent]),
                   int(rec.chosen_m[agent]))
            assert got == (len(neighbors), n, chosen), f"tick {k} agent {agent}"
            seen["neighbors"].add(got[0])
            seen["candidates"].add(got[1])
            seen["chosen"].add(got[2])
    # The rollout exercises varied neighbourhoods, ladder lengths and choices.
    assert len(seen["neighbors"]) >= 3 and len(seen["candidates"]) >= 2, seen
    assert len(seen["chosen"]) >= 3, seen
    for name in ("n_neighbors", "n_candidates", "chosen_m"):
        assert getattr(trace.records[0], name).dtype.kind == "i"


def test_cost_params_built_once_per_waypoint():
    # One CostParams per active target, reused across ticks, equal to what
    # tick_cost_params rebuilds for the replay.
    a, b = Vec3(0.0, 0.0, 1.4), Vec3(1.0, 0.0, 1.4)
    cfg = _scenario(duration=2.0, formation_time=1.0,
                    obstacles=(Obstacle(2.0, 0.0, 0.15),),
                    waypoints=(Waypoint(0.5, a), Waypoint(1.0, b)))
    sim = Simulation(cfg)
    trace = sim.run()
    built = {}
    for k, rec in enumerate(trace.records):
        params = sim._active_params(rec.time)
        assert params == tick_cost_params(trace, k) and params.target == rec.target
        assert built.setdefault(params.target, params) is params
    assert list(built) == [None, a, b]


def test_trace_shape_and_monotone_time():
    cfg = _scenario(duration=6.0, formation_time=1.0)
    trace = run_scenario(cfg)
    assert len(trace.records) == 60, f"expected 60 ticks, got {len(trace.records)}"
    times = [r.time for r in trace.records]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[0] == 0.0
    for rec in trace.records:
        assert rec.positions.shape == (2, 3)
        assert rec.costs.shape == (2, 5)
        assert np.isfinite(rec.positions).all()
        assert np.isfinite(rec.costs).all()
        assert (rec.grad_norms >= 0).all()


def test_observation_delay_uses_stale_positions():
    cfg = _scenario(duration=2.0, formation_time=1.0, obs_delay_ticks=1)
    trace = run_scenario(cfg)
    # with sigma=0 and one-tick delay, tick k's snapshot equals tick k-1 truth
    obs = tick_observation(trace, 5, agent=0)
    prev = trace.records[4].positions
    for j, p in obs:
        assert (p.x, p.y, p.z) == tuple(prev[j]), (
            f"delayed observation of {j} is {p}, expected {tuple(prev[j])}")


def test_obstacles_are_visible_to_cost():
    obstacles = (Obstacle(2.0, 0.0, 0.15),)
    cfg = _scenario(obstacles=obstacles)
    assert cfg.cost.obstacles == obstacles


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="agent_count"):
        _scenario(agent_count=0)
    with pytest.raises(ConfigError, match="control_period"):
        _scenario(control_period=0.025)  # not an integer multiple of 0.01
    with pytest.raises(ConfigError, match="noise_sigma"):
        _scenario(noise_sigma=-0.1)
    with pytest.raises(ConfigError, match="duration"):
        _scenario(duration=0.05)
    with pytest.raises(ConfigError, match="waypoints"):
        _scenario(waypoints=(Waypoint(5.0, Vec3(0, 0, 1)),
                             Waypoint(1.0, Vec3(1, 0, 1))))
    with pytest.raises(ConfigError, match="formation_time"):
        _scenario(formation_time=10.0)  # == duration
    with pytest.raises(ConfigError, match="spawn.positions"):
        _scenario(agent_count=3)  # explicit spawn has only 2 points
    with pytest.raises(ValueError, match="min_spacing"):
        SpawnSpec(box_min=Vec3(0, 0, 1), box_max=Vec3(1, 1, 2), min_spacing=-1.0)
    with pytest.raises(ValueError):
        SpawnSpec()  # neither positions nor box


@pytest.mark.parametrize("spawn, named", [
    (dict(box_min=Vec3(-math.inf, 0, 1), box_max=Vec3(1, 1, 2)), "spawn.box_min"),
    (dict(box_min=Vec3(0, 0, 1), box_max=Vec3(1, math.nan, 2)), "spawn.box_max"),
    (dict(box_min=Vec3(0, 0, 1), box_max=Vec3(1, 1, math.inf)), "spawn.box_max"),
    (dict(box_min=Vec3(-1e308, 0, 1), box_max=Vec3(1e308, 1, 2)), "spawn.box_max"),  # extent
    (dict(positions=(Vec3(0, 0, 1), Vec3(math.nan, 0, 1))), r"spawn.positions\[1\]"),
    (dict(positions=(Vec3(0, -math.inf, 1), Vec3(1, 0, 1))), r"spawn.positions\[0\]"),
])
def test_non_finite_spawn_is_a_config_error(spawn, named):
    # Rejected where the spawn is declared, naming the field, instead of an
    # OverflowError or a bare ValueError from Simulation().
    with pytest.raises(ConfigError, match=named):
        _scenario(spawn=SpawnSpec(**spawn), duration=0.1, formation_time=0.0)


def _minimal_json() -> dict:
    return {
        "agent_count": 2,
        "seed": 0,
        "duration": 1.0,
        "r_h": 0.9,
        "noise_sigma": 0.0,
        "physics_dt": 0.01,
        "control_period": 0.1,
        "formation_time": 0.5,
        "spawn": {"positions": [[-0.5, 0.0, 1.4], [0.5, 0.0, 1.4]]},
        "cost": {"w_coh": 20.0, "w_sep": 9.0, "w_tar": 0.0, "w_obs": 0.0},
        "controller": {"kind": "SPC", "epsilon": 0.06, "n_star": 5},
        "llc": {"family": "A"},
    }


def test_parse_scenario_minimal():
    cfg = parse_scenario(_minimal_json())
    assert cfg.agent_count == 2
    assert cfg.controller.kind == "SPC"
    assert cfg.r_h == 0.9


def test_parse_scenario_rejects_unknown_keys():
    data = _minimal_json()
    data["weights"] = {}
    with pytest.raises(ConfigError, match="weights"):
        parse_scenario(data)
    data = _minimal_json()
    data["cost"]["w_sep_extra"] = 1.0
    with pytest.raises(ConfigError, match="cost"):
        parse_scenario(data)


def test_parse_scenario_field_level_errors():
    data = _minimal_json()
    data["controller"]["kind"] = "MPC"
    with pytest.raises(ConfigError, match="controller.kind"):
        parse_scenario(data)
    data = _minimal_json()
    data["cost"]["w_coh"] = "twenty"
    with pytest.raises(ConfigError, match="cost.w_coh"):
        parse_scenario(data)
    data = _minimal_json()
    del data["agent_count"]
    with pytest.raises(ConfigError, match="agent_count"):
        parse_scenario(data)


def test_parse_scenario_infinite_r_h():
    for token in ("inf", "Infinity", None):
        data = _minimal_json()
        data["r_h"] = token
        cfg = parse_scenario(data)
        assert cfg.r_h == math.inf, f"r_h token {token!r} not parsed as infinite"


def test_scenario_dict_round_trip(tmp_path):
    data = _minimal_json()
    data["obstacles"] = [{"x": 2.0, "y": 0.5, "radius": 0.15}]
    data["waypoints"] = [{"time": 0.0, "target": [0.0, 0.0, 1.4]}]
    cfg = parse_scenario(data)
    echoed = scenario_to_dict(cfg)
    again = parse_scenario(echoed)
    assert scenario_to_dict(again) == echoed
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(echoed))
    assert scenario_to_dict(load_scenario(p)) == echoed


def test_trace_csv_is_parseable_and_stable(tmp_path):
    cfg = _scenario(duration=1.0, formation_time=0.5, noise_sigma=0.05)
    trace = run_scenario(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(trace, p1)
    write_trace_csv(trace, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "time_s" and "agent" in header
    assert len(lines) == 1 + 10 * 2  # one row per (tick, agent)
    # every float cell must round-trip
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == len(header)
        float(cells[0])
        assert "np" not in row, f"numpy repr leaked into csv: {row}"
