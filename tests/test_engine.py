"""Simulation engine tests: observation noise and filtering, rollout
semantics, determinism, and scenario file parsing."""

from __future__ import annotations

import io
import json
import math
import os
import re
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import flockspc.engine as engine
from flockspc import (
    ConfigError,
    ControllerConfig,
    CostParams,
    LLCConfig,
    Obstacle,
    ScenarioConfig,
    Simulation,
    SpawnSpec,
    Trace,
    Vec3,
    Waypoint,
    build_scenario,
    dynamic_lookahead_count,
    equilibrium_distance,
    evaluate_gradient,
    hardware_scenario,
    load_scenario,
    observation_stream,
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
from flockspc.engine import _SPAWN_BLOCK, DivergenceError, _range_bound, _snapshot, _spawn_positions
from flockspc.engine import _pair_noise, _round_keys

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


def _one_tick(positions, **overrides):
    """A one-tick noise-free rollout whose only record holds `positions`."""
    spawn = SpawnSpec(positions=tuple(Vec3(*p) for p in positions))
    return run_scenario(_scenario(agent_count=len(positions), spawn=spawn, duration=0.1,
                                  formation_time=0.0, **overrides))


def test_observe_noise_free_returns_true_positions():
    pos = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 1.5], [-1.0, 0.3, 0.9]])
    out = tick_observation(_one_tick(pos), 0, 0)
    assert [j for j, _ in out] == [0, 1, 2]
    for j, p in out:
        assert (p.x, p.y, p.z) == tuple(pos[j]), f"agent {j} perturbed at sigma=0"


def _noise(seed, tick, sigma):
    return partial(_pair_noise, _round_keys(seed), tick, sigma=sigma)


def test_observe_noise_std_matches_sigma():
    pos = np.zeros((183, 3))
    own, counts, _, seen, _ = _snapshot(pos, np.arange(183), math.inf, _noise(7, 0, 0.10))
    samples = np.concatenate((own, seen)).ravel()  # 183*183*3 > 1e5 draws
    assert counts.sum() == 183 * 182
    std = float(np.std(samples))
    assert abs(std - 0.10) <= 0.002, f"sample std {std:.5f} not within 2% of 0.10"
    mean = float(np.mean(samples))
    assert abs(mean) <= 0.002, f"noise mean {mean:.5f} too far from 0"


def test_observe_neighborhood_filter_strict():
    trace = _one_tick([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]], r_h=0.9)
    for agent in (0, 1):
        out = tick_observation(trace, 0, agent)
        assert [j for j, _ in out] == [agent], (
            f"agent {agent} at 1.0 m separation should only see itself with r_h=0.9")
    # boundary: exactly r_h apart is outside (strict inequality)
    out = tick_observation(_one_tick([[0.0, 0, 1], [1.0, 0, 1]], r_h=1.0), 0, 0)
    assert [j for j, _ in out] == [0]
    out = tick_observation(_one_tick([[0.0, 0, 1], [0.999, 0, 1]], r_h=1.0), 0, 0)
    assert [j for j, _ in out] == [0, 1]


def test_observe_deterministic_per_key():
    pos = np.random.default_rng(1).uniform(-1, 1, size=(3, 3))
    a, b, c = (_snapshot(pos, np.array([1]), math.inf, _noise(3, tick, 0.1))[3]
               for tick in (17, 17, 18))
    assert np.array_equal(a, b), "same (seed, tick, agent) must reproduce identical noise"
    assert not np.array_equal(a, c), "different tick should give different noise"


def test_replay_rejects_out_of_range_agent():
    trace = _one_tick([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    for agent in (-1, 3):
        with pytest.raises(ValueError, match=rf"^agent: must be in \[0, 3\), got {agent}$"):
            tick_observation(trace, 0, agent)


def test_tick_observation_takes_integer_indices_only():
    # A bool indexed the snapshot as a mask and 1.5 as a float: both raised a
    # raw IndexError, and tick_index=True replayed tick 1.
    trace = run_scenario(_scenario(duration=0.5, formation_time=0.0, noise_sigma=0.05))
    for bad in (True, False, np.True_, 1.5, 1.0):
        with pytest.raises(ValueError, match=r"^agent: must be an integer, got "):
            tick_observation(trace, 3, bad)
        with pytest.raises(ValueError, match=r"^tick_index: must be an integer, got "):
            tick_observation(trace, bad, 0)
    assert tick_observation(trace, np.int64(3), np.int32(1)) == tick_observation(trace, 3, 1)


def test_tick_cost_params_takes_an_integer_tick_only():
    wp = (Waypoint(0.0, Vec3(0, 0, 1)), Waypoint(0.2, Vec3(1, 0, 1)))
    trace = run_scenario(_scenario(waypoints=wp, duration=0.5, formation_time=0.0))
    for bad in (True, np.True_, 1.5):
        with pytest.raises(ValueError, match=r"^tick_index: must be an integer, got "):
            tick_cost_params(trace, bad)
    assert tick_cost_params(trace, np.uint8(3)) == tick_cost_params(trace, 3)
    assert tick_cost_params(trace, 3).target == Vec3(1, 0, 1)


def test_replay_rejects_out_of_range_tick():
    # -1 must not wrap to the last tick, and a delayed past-the-end tick
    # must not replay a snapshot from recorded positions.
    for delay in (0, 3):
        trace = run_scenario(_scenario(duration=1.0, formation_time=0.5, obs_delay_ticks=delay))
        ticks = len(trace.records)
        for k in (-1, ticks, ticks + 1):
            with pytest.raises(ValueError, match=rf"^tick_index: must be in \[0, {ticks}\), got {k}$"):
                tick_observation(trace, k, 0)
            with pytest.raises(ValueError, match=rf"^tick_index: must be in \[0, {ticks}\), got {k}$"):
                tick_cost_params(trace, k)
        tick_observation(trace, ticks - 1, 0)
        tick_cost_params(trace, ticks - 1)


def test_seeds_past_2_53_get_their_own_streams():
    # numpy used to read the key list through float64, so these two collided.
    for seed in (2**53, 2**62 + 7, 2**64 - 2):
        a = observation_stream(seed, 3, 1, 0)
        b = observation_stream(seed + 1, 3, 1, 0)
        assert not np.array_equal(a, b), f"seeds {seed} and {seed + 1} share a stream"
        assert not np.array_equal(spawn_stream(seed).uniform(size=3),
                                  spawn_stream(seed + 1).uniform(size=3))


@pytest.mark.byte_identity
def test_spawn_stream_rejects_aliasing_seeds():
    """The key reads 64 bits of the seed: 2**64 would draw seed 0's spawns
    and -1 those of 2**64 - 1, and so replay that seed's trace bytes.  The
    stream rejects both."""
    for bad in (2**64, -1, True, 1.0):
        with pytest.raises(ValueError, match=r"^seed: must be an integer in \[0, 2\*\*64\)"):
            spawn_stream(bad)
    first, last = spawn_stream(0).uniform(size=3), spawn_stream(2**64 - 1).uniform(size=3)
    assert not np.array_equal(first, last)


@pytest.mark.byte_identity
@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_array_snapshot_equals_observe(n):
    """The simulator's flock-wide snapshot (one noise draw and one set of
    pair lists per tick; flocks of up to _BLOCK_AGENTS read a block of every
    pair's noise) must give each agent's own batch-of-1 snapshot row for row, the
    one tick_observation replays, whatever order the ticks and agents are
    asked in.  This pins the pair-list format: the lists hold counts.sum()
    pairs, row-major, each agent's cols strictly ascending and never the
    agent itself."""
    rng = np.random.default_rng(n)
    pos = rng.uniform(-1.5, 1.5, size=(n, 3))
    agents = np.arange(n)
    for sigma in (0.0, 0.1):
        for r_h in (0.9, math.inf):
            sim = Simulation(_scenario(agent_count=n, noise_sigma=sigma, r_h=r_h, seed=n + 40,
                                       spawn=SpawnSpec(positions=tuple(Vec3(*p) for p in pos))))
            for tick in rng.permutation([0, 1, 5, 2, 2**32 - 1]).tolist():
                own, counts, cols, seen, _ = _snapshot(pos, agents, r_h, sim._noise(tick))
                assert counts.dtype == np.int32 and counts.shape == (n,)
                assert counts.sum() == len(cols) == len(seen)
                ends = np.cumsum(counts)
                for agent in rng.permutation(n).tolist():
                    mine = slice(ends[agent] - counts[agent], ends[agent])
                    assert (np.diff(cols[mine]) > 0).all() and agent not in cols[mine]
                    want = _snapshot(pos, np.array([agent]), r_h,
                                     _noise(n + 40, tick, sigma) if sigma else None)
                    assert np.array_equal(own[agent], want[0][0]), (sigma, r_h, tick, agent)
                    assert want[1].tolist() == [counts[agent]], (sigma, r_h, tick, agent)
                    assert np.array_equal(cols[mine], want[2]), (sigma, r_h, tick, agent)
                    assert np.array_equal(seen[mine], want[3]), (sigma, r_h, tick, agent)


def _float_neighbours(x, steps=2):
    """x and its `steps` nearest floats on each side, within [0, inf]."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


_SMALLEST_NORMAL = 2.2250738585072014e-308


@pytest.mark.parametrize("r_h", [
    0.9, 1.0, 0.3, 2.5, 1e-160, 1e-170, 5e-324, 2e154, 1.3407807929942596e154, math.inf,
    *np.random.default_rng(26).uniform(0.05, 50.0, 6).tolist(),
    *(2.0 ** np.random.default_rng(27).uniform(-1070, 1020, 6)).tolist(),
])
@pytest.mark.byte_identity
def test_range_bound_is_the_sqrt_test(r_h):
    """_snapshot tests the range on squared distances with no sqrt: its
    d2 < T must be sqrt(d2) < r_h for every d2, at T and its neighbours, at
    r_h**2 and its neighbours, 0, subnormals, the smallest normal, the
    largest float, inf and NaN.  T is the least float whose sqrt reaches
    r_h, inf when no finite one does."""
    t = _range_bound(r_h)
    assert t == math.inf or math.sqrt(t) >= r_h
    assert t == 0.0 or math.sqrt(math.nextafter(t, 0.0)) < r_h
    if r_h == math.inf or r_h * r_h == math.inf:
        assert t == math.inf
    d2 = np.array([
        *_float_neighbours(t), *_float_neighbours(min(r_h * r_h, 1.7976931348623157e308)),
        0.0, 5e-324, 1e-320, *_float_neighbours(_SMALLEST_NORMAL, 1), 1.7976931348623157e308,
        math.inf, math.nan,
    ])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(np.sqrt(d2) < r_h, d2 < t), (r_h, t)


def _snapshot_reference(pos, agents, r_h, noise):
    """_snapshot as it was written with np.sqrt and np.nonzero."""
    a = agents.shape[0]
    d2 = (pos[:, 0] - pos[agents, 0, None]) ** 2
    d2 += (pos[:, 1] - pos[agents, 1, None]) ** 2
    d2 += (pos[:, 2] - pos[agents, 2, None]) ** 2
    near = np.sqrt(d2, out=d2) < r_h
    near[np.arange(a), agents] = False
    rows, cols = np.nonzero(near)
    counts = np.bincount(rows, minlength=a).astype(np.int32)
    if noise is None:
        return pos[agents], counts, cols, pos[cols], rows
    noisy = noise(np.concatenate((agents, agents[rows])), np.concatenate((agents, cols)))
    return pos[agents] + noisy[:a], counts, cols, pos[cols] + noisy[a:], rows


@pytest.mark.byte_identity
@pytest.mark.parametrize("r_h", [0.9, 1.0, 1e-160, 2e154, math.inf])
def test_snapshot_equals_the_sqrt_and_nonzero_reference(r_h):
    """The snapshot against the np.sqrt / np.nonzero code it replaced, on
    rows with NaN and inf coordinates, agents 8e15 m out (a diverged PFC
    flock's z), pairs exactly r_h apart, one observer, and a flock with no
    pairs in range: the same pair lists, dtypes and noisy positions, and
    each pair's observer row as np.nonzero gives it."""
    rng = np.random.default_rng(2600)
    pos = rng.uniform(-1.5, 1.5, size=(40, 3))
    pos[3] = (math.nan, 0.0, 1.0)
    pos[7] = (0.0, math.inf, 1.0)
    pos[8] = (-math.inf, 0.0, 1.0)
    pos[11:15, 2] = (8e15, 8e15, -8e15, 8e15 + 1.0)
    pos[20] = pos[21] + (r_h if r_h < 1e150 else 0.0, 0.0, 0.0)
    pos[30] = pos[31]  # two agents in the same place
    apart = np.arange(40.0)[:, None] * (1e3, 0.0, 0.0)  # nobody within 1 km of anyone
    with np.errstate(invalid="ignore", over="ignore"):
        for p in (pos, apart, pos[:1]):
            n = len(p)
            for agents in (np.arange(n), np.array([n - 1]), np.array([0])):
                for noise in (None, _noise(26, 5, 0.1)):
                    got = _snapshot(p, agents, r_h, noise)
                    want = _snapshot_reference(p, agents, r_h, noise)
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and g.shape == w.shape
                        assert np.array_equal(g, w, equal_nan=True), (r_h, n, agents)


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


def _unfillable_box(seed=0):
    # 40 agents 0.5 m apart pass the packing bound of a 1 m box, but random
    # placement runs out of attempts at agent 11.
    return replace(hardware_scenario(seed), agent_count=40,
                   spawn=SpawnSpec(box_min=Vec3(0, 0, 0), box_max=Vec3(1, 1, 1), min_spacing=0.5))


@pytest.mark.byte_identity
def test_unfillable_box_spawn_is_a_config_error():
    """Pins spawn's miss counter, which runs across candidate blocks: one
    that reset at a block boundary would place agents the reference never
    places, or fail at a different agent (or, with blocks under 10000 rows,
    never fail)."""
    with pytest.raises(ConfigError, match=r"^spawn\.box_min/box_max: could not place agent 11 "
                                          r"with min_spacing 0\.5 after 10000 attempts"):
        Simulation(_unfillable_box())


def _reference_spawn(cfg):
    """Box spawn placement as it was written before the one-pass distance
    check, kept as the reference: one np.linalg.norm per placed agent per
    attempt.  Returns the placed rows and the number of candidates drawn,
    stopping at the first agent that 10000 attempts in a row cannot place."""
    spawn = cfg.spawn
    rng = spawn_stream(cfg.seed)
    lo = np.array(tuple(spawn.box_min), dtype=float)
    hi = np.array(tuple(spawn.box_max), dtype=float)
    placed = []
    draws = 0
    for _ in range(cfg.agent_count):
        for _ in range(10_000):
            p = rng.uniform(lo, hi)
            draws += 1
            if all(float(np.linalg.norm(p - q)) >= spawn.min_spacing for q in placed):
                placed.append(p)
                break
        else:
            break
    return np.array(placed), draws


def _reference_spawn_positions(cfg):
    placed, _ = _reference_spawn(cfg)
    assert len(placed) == cfg.agent_count, "reference placement failed"
    return placed


@pytest.mark.byte_identity
def test_unfillable_box_spawn_draws_what_the_reference_draws(monkeypatch):
    """Spawn draws whole blocks of candidates, so up to the rest of the
    last block more than the one-attempt reference.  Its miss counter runs
    across blocks: one that reset per block would draw without end, and
    fails here, counted from a wrapped stream, a block past the reference
    instead of hanging."""
    cfg = _unfillable_box()
    placed, draws = _reference_spawn(cfg)
    assert len(placed) == 11
    limit = -(-draws // _SPAWN_BLOCK) * _SPAWN_BLOCK
    drawn = 0

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def uniform(self, lo, hi, size):
            nonlocal drawn
            drawn += size[0]
            assert drawn <= limit + _SPAWN_BLOCK, f"{drawn} candidates drawn, reference {draws}"
            return self.rng.uniform(lo, hi, size)

    monkeypatch.setattr(engine, "spawn_stream", lambda seed: Counted(spawn_stream(seed)))
    with pytest.raises(ConfigError, match="could not place agent 11 "):
        Simulation(cfg)
    assert drawn == limit


_SPAWN_CASES = {
    "eleven_30": lambda seed: build_scenario(30, "eleven", "SPC", "A", seed),
    "open_100": lambda seed: build_scenario(100, "none", "PFC", "B", seed, duration=20.0),
    "hardware": hardware_scenario,
    # Tightly packed, so most draws are rejected.
    "packed_20": lambda seed: _scenario(
        agent_count=20, seed=seed,
        spawn=SpawnSpec(box_min=Vec3(0, 0, 1.0), box_max=Vec3(1, 1, 1.4), min_spacing=0.25)),
    # About half the draws are rejected over three or more candidate blocks,
    # some by the array pass against earlier blocks and some by the loop
    # against rows placed earlier in the same block.
    "half_rejected": lambda seed: _scenario(
        agent_count=3 * _SPAWN_BLOCK, seed=seed,
        spawn=SpawnSpec(box_min=Vec3(0, 0, 1.0), box_max=Vec3(2, 2, 2.0), min_spacing=0.3)),
    # Every draw is accepted: two full candidate blocks and the first row of a third.
    "unspaced": lambda seed: _scenario(
        agent_count=2 * _SPAWN_BLOCK + 1, seed=seed,
        spawn=SpawnSpec(box_min=Vec3(-3, -2, -1.5), box_max=Vec3(-1, -0.5, -0.5), min_spacing=0.0)),
}


@pytest.mark.byte_identity
@pytest.mark.parametrize("case", sorted(_SPAWN_CASES))
def test_box_spawn_matches_reference_loop(case):
    """Block spawn draws and one draw per attempt: the same draws, the same
    accept/reject decisions, the same positions, which start every trace."""
    for seed in range(40):
        cfg = _SPAWN_CASES[case](seed)
        got = _spawn_positions(cfg)
        assert got.tobytes() == _reference_spawn_positions(cfg).tobytes(), (case, seed)


@pytest.mark.byte_identity
def test_box_spawn_places_a_candidate_exactly_min_spacing_away():
    """Spawn's array pass on an exact tie with min_spacing.  y and z span
    one subnormal, so dy*dy and dz*dz underflow to 0 and every distance is
    sqrt(dx*dx) == |dx| exactly.  min_spacing is the distance from row 0 to
    candidate 22, in a later block than row 0: the array pass must place it
    (>=), as the one-attempt loop does."""
    assert _SPAWN_BLOCK <= 22, "candidate 22 must be checked by the array pass"
    tiny = float(np.nextafter(0.0, 1.0))
    lo, hi = Vec3(0.0, 0.0, 0.0), Vec3(1.0, tiny, tiny)
    x = spawn_stream(0).uniform(tuple(lo), tuple(hi), (23, 3))[:, 0].tolist()
    spawn = SpawnSpec(box_min=lo, box_max=hi, min_spacing=abs(x[22] - x[0]))
    cfg = _scenario(agent_count=4, seed=0, spawn=spawn)
    got = _spawn_positions(cfg)
    assert got.tobytes() == _reference_spawn_positions(cfg).tobytes()
    assert x[0] == got[0, 0] and x[22] in got[:, 0].tolist()


def test_explicit_spawn_positions_exact():
    pts = (Vec3(0.1, 0.2, 1.1), Vec3(-0.4, 0.5, 1.3))
    cfg = _scenario(spawn=SpawnSpec(positions=pts), duration=0.1, formation_time=0.0)
    trace = run_scenario(cfg)
    pos = trace.records[0].positions
    assert tuple(pos[0]) == (0.1, 0.2, 1.1) and tuple(pos[1]) == (-0.4, 0.5, 1.3)


def test_diverging_rollout_raises_without_numpy_warnings():
    # Noise of 1e308 overflows the decision arithmetic before the plant state
    # stops being finite; tick() keeps numpy quiet for every caller, also one
    # that loops over it without run().
    cfg = build_scenario(3, "none", "PFC", "B", 0, duration=12.0, noise_sigma=1e308)
    sim = Simulation(cfg)
    for drive in (lambda: run_scenario(cfg), sim.tick):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match=r"^tick 0 \(t=0 s\), agent 0: plant position"):
                drive()


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
                cands = [Vec3(*q) for q in ladder[:, 0, 1:].T.tolist()]
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


@pytest.mark.parametrize("delay", [0, 3])
def test_position_history_holds_only_the_delay_window(delay):
    # The tick reads the positions obs_delay_ticks back and keeps no older ones.
    sim = Simulation(_scenario(duration=5.0, formation_time=1.0, obs_delay_ticks=delay))
    records = []
    for k in range(50):
        records.append(sim.tick())
        assert len(sim._position_history) == min(k + 1, delay + 1)
        assert sim._position_history[0] is records[max(0, k - delay)].positions


def test_delay_past_the_run_gives_the_bytes_of_a_whole_run_delay():
    # Every tick of both runs observes the spawn positions; a delay of 2**63
    # must not size the position history by itself (an OverflowError once).
    def trace_csv(delay):
        buf = io.StringIO()
        write_trace_csv(run_scenario(_scenario(duration=1.0, formation_time=0.5, noise_sigma=0.05,
                                               obs_delay_ticks=delay)), buf)
        return buf.getvalue()

    assert trace_csv(2**63) == trace_csv(_scenario(duration=1.0, formation_time=0.5).tick_count)


def test_tick_past_the_run_raises_and_keeps_the_trace():
    # The position history holds the run's ticks only, so a fourth tick of a
    # 3-tick run would observe the wrong delay; it raises before it touches
    # the world.
    cfg = _scenario(duration=0.3, formation_time=0.0, noise_sigma=0.05, obs_delay_ticks=5)
    sim = Simulation(cfg)
    records = tuple(sim.tick() for _ in range(cfg.tick_count))
    state = sim._state.copy()
    for _ in range(2):
        with pytest.raises(RuntimeError, match=r"^tick 3: the run has 3 ticks, all taken$"):
            sim.tick()
    assert sim.tick_index == 3 and np.array_equal(sim._state, state)
    got, want = io.StringIO(), io.StringIO()
    write_trace_csv(Trace(config=cfg, records=records), got)
    write_trace_csv(run_scenario(cfg), want)
    assert got.getvalue() == want.getvalue()


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
    # Rejected where the spawn is declared, naming the field relative to the
    # spawn (config.parse prefixes "spawn."), instead of an OverflowError or a
    # bare ValueError from Simulation().
    with pytest.raises(ConfigError) as exc:
        _scenario(spawn=SpawnSpec(**spawn), duration=0.1, formation_time=0.0)
    assert re.match(rf"{named}: ", f"spawn.{exc.value}"), str(exc.value)


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
    write_trace_csv(replace(trace, records=()), p1)  # no records: the header alone
    assert p1.read_text() == ",".join(engine.TRACE_COLUMNS) + "\n"


def _split_trace_csv(monkeypatch, parts):
    """A short rollout that write_trace_csv splits into `parts` parts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)
    monkeypatch.setattr(engine, "_CSV_PART_ROWS", 1)
    return run_scenario(_scenario(duration=1.0, formation_time=0.5))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the trace CSV is split only where os.fork exists")
def test_split_trace_csv_raises_when_a_part_fails(monkeypatch, tmp_path):
    trace = _split_trace_csv(monkeypatch, 3)
    parent, write_records = os.getpid(), engine._write_records

    def fail_in_children(fh, records):
        if os.getpid() != parent:
            raise RuntimeError("part writer fault")
        write_records(fh, records)

    monkeypatch.setattr(engine, "_write_records", fail_in_children)
    with pytest.raises(RuntimeError, match=r"^trace CSV part 1 of 3: its writer exited with status 1$"):
        write_trace_csv(trace, tmp_path / "trace.csv")
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the trace CSV is split only where os.fork exists")
def test_split_trace_csv_passes_on_a_failing_dest(monkeypatch):
    trace = _split_trace_csv(monkeypatch, 3)

    class FullAfterHeader(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError("no space left on device")
            return super().write(text)

    dest = FullAfterHeader()
    with pytest.raises(OSError, match="no space left"):
        write_trace_csv(trace, dest)
    assert dest.getvalue() == ",".join(engine.TRACE_COLUMNS) + "\n"
    _assert_no_child_left()
