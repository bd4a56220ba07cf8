"""Flock-wide decision kernel tests.

The simulator scores every agent of a tick in one pass over the snapshot's
neighbour pair lists.  Neighbour sums add each agent's pairs left to right
into +0.0, so an agent without neighbours keeps +0.0.  Every row of that
pass must equal the public batch-of-1 call for the
same agent (evaluate_gradient, evaluate_cost, spc_setpoint,
pfc_setpoint) bit for bit, compared with float.hex so -0.0 and NaN payloads
count too, and relabelling the agents of a batch must permute its rows
exactly.  The tick's private hand-offs (the snapshot's pair rows, the
every-agent-has-a-neighbour flag, the plant dispatch without fly()'s
checks) must give the bits of the paths they stand in for.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial, reduce
from operator import add

import numpy as np
import pytest

from flockspc import (
    ControllerConfig,
    CostParams,
    LLCConfig,
    Obstacle,
    Vec3,
    build_scenario,
    evaluate_cost,
    evaluate_gradient,
    fly,
    hardware_scenario,
    pfc_setpoint,
    run_scenario,
    spc_setpoint,
    tick_cost_params,
    tick_observation,
)
from flockspc.controller import _decide
from flockspc.engine import DivergenceError, _advance, _snapshot
from flockspc.llc import _BLOCK_ROWS, _step_plant
from flockspc.model import _cost_terms, _gradient, _neighborhoods, _one_neighborhood, _pair_sum
from flockspc.engine import _pair_noise, _round_keys
from test_trace_digests import CASES as DIGEST_CASES

CASES = 120


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel().tolist()]


def _params(rng, i, pos):
    """Cost params cycling through zero weights, no target, obstacles with an
    agent inside one, the clamp region, a flat and a NaN gradient."""
    if i % 10 == 9:  # flat: every gradient is exactly 0, every agent holds
        return CostParams(0.0, 0.0, 0.0, 0.0)
    if i % 10 == 5:  # cohesion +-inf against target -inf: NaN or inf norms, every agent holds
        return CostParams(w_coh=1e300, w_sep=0.0, w_tar=1e300, w_obs=0.0,
                          target=Vec3(1e20, 0.0, 1.0))
    weights = rng.uniform(0.1, 200.0, size=4)
    weights[rng.uniform(size=4) < 0.2] = 0.0
    obstacles = ()
    if i % 3:
        xy = rng.uniform(-3.0, 3.0, size=(int(rng.choice((3, 11))), 2))
        if i % 7 == 1:
            xy[0] = pos[0, :2]  # agent 0 sits on an obstacle's axis
        obstacles = tuple(Obstacle(float(x), float(y), float(r))
                          for (x, y), r in zip(xy, rng.uniform(0.05, 0.6, size=len(xy))))
    return CostParams(
        *weights.tolist(),
        r_drone=float(rng.choice((0.0, 0.07, 0.3))),  # 0.3 clamps neighbours nearer than 0.6
        zero_hat=float(rng.choice((1e-6, 0.05))),
        target=None if i % 4 == 3 else Vec3(*rng.uniform(-4.0, 4.0, size=3)),
        obstacles=obstacles,
    )


def _flock(i):
    """Seeded flock: n from 1 to 40, finite and infinite r_h, coincident
    agents, per-pair observation noise; returns (observed, seen, counts,
    params, rows), seen holding the (k, 3) neighbour observations, agent by
    agent in order, counts[i] of them agent i's, rows (k,) each one's agent."""
    rng = np.random.default_rng(1000 + i)
    n = 1 + i % 40
    pos = rng.uniform(-1.0, 1.0, size=(n, 3)) * (0.2, 1.0, 3.0)[i % 3]
    if i % 10 == 5:
        pos[:, 0] *= 1e10
    if n > 2 and i % 5 == 0:
        pos[1] = pos[0]  # two agents in the same place
    r_h = math.inf if i % 2 else float(rng.uniform(0.3, 2.5))
    sigma = (0.0, 0.05)[(i // 2) % 2]
    noise = None
    if sigma > 0.0:
        noise = partial(_pair_noise, _round_keys(i), 2**32 - 1 - i, sigma=sigma)
    observed, counts, _, seen, rows = _snapshot(pos, np.arange(n), r_h, noise)
    return observed, seen, counts, _params(rng, i, pos), rows


def _views(seen, counts):
    """Each agent's neighbour observations (h_i, 3), in row order."""
    return np.split(seen, np.cumsum(counts)[:-1])


def _controllers(rng):
    return (
        ControllerConfig(kind="SPC", epsilon=float(rng.uniform(0.01, 0.3)),
                         n_star=int(rng.integers(1, 6)), dynamic_n=True),
        ControllerConfig(kind="SPC", epsilon=0.06, n_star=int(rng.integers(1, 6)),
                         dynamic_n=False),
        ControllerConfig(kind="PFC", pfc_gain=float(rng.uniform(0.001, 0.02))),
    )


def test_cases_reach_the_edges():
    # The generator covers what the kernel must get right.
    counts, flat, nan, moved = set(), 0, 0, 0
    for i in range(CASES):
        observed, seen, hood_counts, params, _ = _flock(i)
        counts.update(hood_counts.tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            d = _decide(observed, _neighborhoods(seen, hood_counts), params, _controllers(
                np.random.default_rng(i))[0])
        flat += int((d.grad_norms == 0.0).sum())
        nan += int(np.isnan(d.grad_norms).sum())
        moved += int((d.chosen_m > 0).sum())
    assert 0 in counts and max(counts) >= 17 and len(counts) >= 30, sorted(counts)
    assert flat > 0 and nan > 0 and moved > 0, (flat, nan, moved)


@pytest.mark.parametrize("part", range(4))
def test_flock_kernel_rows_equal_batch_of_one(part):
    for i in range(part, CASES, 4):
        observed, seen, counts, params, _ = _flock(i)
        n = observed.shape[0]
        hoods = _neighborhoods(seen, counts)
        assert hoods.counts.tolist() == counts.tolist()
        views = _views(seen, counts)
        rng = np.random.default_rng(i)
        points = observed[:, None] + rng.normal(0.0, 0.3, size=(n, int(rng.integers(1, 4)), 3))
        cfgs = _controllers(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = _gradient(observed, hoods, params)
            terms = _cost_terms(points.transpose(2, 0, 1), hoods, params)
            decisions = [_decide(observed, hoods, params, cfg) for cfg in cfgs]
            for a in range(n):
                p, nbr = Vec3(*observed[a].tolist()), views[a]
                g = evaluate_gradient(p, nbr, params)
                assert _hex(grad[:, a]) == _hex([tuple(v) for v in g.__dict__.values()]), (i, a)
                for j, point in enumerate(points[a]):
                    c = evaluate_cost(point, nbr, params)
                    assert _hex(terms[:, a, j]) == _hex((c.coh, c.sep, c.tar, c.obs)), (i, a, j)
                for cfg, d in zip(cfgs, decisions):
                    setpoint = spc_setpoint if cfg.kind == "SPC" else pfc_setpoint
                    sp = setpoint(p, nbr, params, cfg)
                    c = sp.cost
                    assert _hex(d.setpoints[a]) == _hex(tuple(sp.position)), (i, a, cfg)
                    assert _hex(d.costs[a]) == _hex((c.total, c.coh, c.sep, c.tar, c.obs))
                    assert _hex(d.grad_norms[a]) == _hex(sp.grad_norm)
                    one = _decide(observed[a:a + 1], _one_neighborhood(nbr), params, cfg)
                    assert (d.n_candidates[a], d.chosen_m[a]) == (one.n_candidates[0],
                                                                  one.chosen_m[0]), (i, a, cfg)


def test_relabelling_permutes_rows_exactly():
    # Agent a of the relabelled batch is agent perm[a] of the original, with
    # the same view of its neighbours: every output row moves with it.
    for i in range(CASES):
        observed, seen, counts, params, _ = _flock(i)
        n = observed.shape[0]
        perm = np.random.default_rng(i).permutation(n)
        views = _views(seen, counts)
        hoods = _neighborhoods(seen, counts)
        moved = _neighborhoods(np.concatenate([views[a] for a in perm]), counts[perm])
        assert moved.counts.tolist() == hoods.counts[perm].tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            assert _hex(_gradient(observed[perm], moved, params)) == _hex(
                _gradient(observed, hoods, params)[:, perm])
            for cfg in _controllers(np.random.default_rng(i)):
                want = _decide(observed, hoods, params, cfg)
                got = _decide(observed[perm], moved, params, cfg)
                for name, values in want._asdict().items():
                    assert _hex(getattr(got, name)) == _hex(values[perm]), (i, name, cfg)


@pytest.mark.byte_identity
def test_neighbour_sums_run_left_to_right_and_padding_adds_nothing():
    """The cost and gradient kernels sum the pairs per agent with
    np.bincount, whose order of addition numpy does not document; this pins
    it on every numpy.  Nine neighbours whose cohesion and separation sums
    differ between numpy's .sum() (pairwise from 8 values up) and a
    left-to-right sum."""
    rng = np.random.default_rng(8)
    for _ in range(1000):
        p = rng.uniform(-1.0, 1.0, size=3)
        nbr = p + rng.normal(0.0, 1.0, size=(9, 3))
        diff = p - nbr
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2
        inv = 1.0 / np.maximum(np.sqrt(d2), 1e-6) ** 2
        coh, sep = (reduce(add, v.tolist(), 0.0) / 9 for v in (d2, inv))
        if coh != float(d2.sum()) / 9 and sep != float(inv.sum()) / 9:
            break
    else:
        pytest.fail("no neighbour set tells the two summation orders apart")
    params = CostParams(w_coh=1.0, w_sep=1.0, w_tar=1.0, w_obs=0.0, target=Vec3(3.0, -2.0, 1.0))
    c = evaluate_cost(p, nbr, params)
    assert (c.coh, c.sep) == (coh, sep)

    # Agent 0 has those nine neighbours among three others it does not see,
    # agent 1 has twelve, agent 2 has none.
    seen = p + rng.normal(0.0, 1.0, size=(3, 12, 3))
    near = np.ones((3, 12), dtype=bool)
    near[0, [1, 5, 11]] = False
    seen[0, near[0]] = nbr
    near[2] = False
    observed = np.array([p, p + 0.5, p - 0.5])
    hoods = _neighborhoods(seen[near], near.sum(axis=1))
    assert hoods.nbr.shape == (21, 3)
    grad = _gradient(observed, hoods, params)
    terms = _cost_terms(observed.T[:, :, None], hoods, params)  # m = 1, as in a PFC pass
    # No neighbours: +0.0 sums, cohesion and separation (a -0.0 would reach the CSV).
    zero = [(0.0).hex()] * 3
    assert _hex(hoods.sums[2]) == _hex(grad[0, 2]) == _hex(grad[1, 2]) == zero
    assert _hex(terms[:2, 2, 0]) == zero[:2]
    cfgs = (ControllerConfig(kind="SPC"), ControllerConfig(kind="PFC"))
    decisions = [_decide(observed, hoods, params, cfg) for cfg in cfgs]
    for a in range(3):
        one_hood = _one_neighborhood(seen[a][near[a]])
        assert _hex(hoods.sums[a]) == _hex(one_hood.sums[0])
        assert _hex(grad[:, a]) == _hex(_gradient(observed[a:a + 1], one_hood, params)[:, 0])
        assert _hex(terms[:, a]) == _hex(_cost_terms(observed[a:a + 1].T[:, :, None], one_hood,
                                                     params)[:, 0])
        for cfg, d in zip(cfgs, decisions):
            one = _decide(observed[a:a + 1], one_hood, params, cfg)
            for name, values in one._asdict().items():
                assert _hex(getattr(d, name)[a]) == _hex(values[0]), (a, name, cfg.kind)
    for d in decisions:
        assert _hex(d.costs[0, 1:3]) == _hex((coh, sep))
        assert _hex(d.costs[2, 1:3]) == zero[:2]


PFC_CASES = 120


def _pfc_flock(i):
    """Seeded flock for the PFC pass: each weight 0 in turn, 0, 3 or 11
    obstacles with agent 0 on an axis or inside a cylinder, an r_drone that
    clamps close pairs, agents without neighbours, coincident agents, and
    coordinates near 8e15 m, where PFC runs leave the arena; returns
    (observed, seen, counts, params) as _flock does."""
    rng = np.random.default_rng(5000 + i)
    n = 1 + i % 13
    pos = rng.uniform(-1.0, 1.0, size=(n, 3)) * (0.3, 1.5)[i % 2]
    if i % 6 == 2:
        pos[n // 2:, 2] += 8e15  # half the flock far up in z
    if i % 6 == 5:
        pos += rng.uniform(7.9e15, 8.1e15, size=3)  # all of it: 1 m apart or coincident
    if n > 2 and i % 4 == 1:
        pos[1] = pos[0]
    weights = rng.uniform(0.1, 200.0, size=4)
    if i % 5 < 4:
        weights[i % 5] = 0.0
    k = (0, 3, 11)[i % 3]
    xy, radii = rng.uniform(-2.0, 2.0, size=(k, 2)), rng.uniform(0.05, 0.6, size=k)
    if k:
        xy[0] = pos[0, :2] + (0.0, 0.5)[i % 2] * radii[0]  # on the axis or inside the cylinder
    params = CostParams(
        *weights.tolist(),
        r_drone=float(rng.choice((0.0, 0.07, 0.3))),
        zero_hat=float(rng.choice((1e-6, 0.05))),
        target=None if i % 7 == 3 else Vec3(*rng.uniform(-4.0, 4.0, size=3)),
        obstacles=tuple(Obstacle(*c, r) for c, r in zip(xy.tolist(), radii.tolist())),
    )
    noise = None
    if i % 4 == 2:
        noise = partial(_pair_noise, _round_keys(i), 7, sigma=0.05)
    observed, counts, _, seen, _ = _snapshot(pos, np.arange(n), (math.inf, 0.6)[(i // 2) % 2],
                                              noise)
    return observed, seen, counts, params


@pytest.mark.byte_identity
def test_pfc_costs_equal_evaluate_cost():
    """A PFC decision takes its own-position cost terms, recorded in the
    trace, from the gradient pass; evaluate_cost scores the same point in
    _cost_terms, a pass of its own, so it is an oracle for them.  (The
    batch-of-1 comparison in test_flock_kernel_rows_equal_batch_of_one runs
    the same pass on both sides.)  The generator must reach every edge it is
    written for."""
    edges = {"empty": 0, "sep_clamp": 0, "obs_clamp": 0, "coincident": 0, "far": 0}
    zero_weights, obstacle_counts = set(), set()
    cfg = ControllerConfig(kind="PFC")
    for i in range(PFC_CASES):
        observed, seen, counts, params = _pfc_flock(i)
        d = _decide(observed, _neighborhoods(seen, counts), params, cfg)
        for a, nbr in enumerate(_views(seen, counts)):
            c = evaluate_cost(observed[a], nbr, params)
            assert _hex(d.costs[a]) == _hex((c.total, c.coh, c.sep, c.tar, c.obs)), (i, a)
            dist = np.sqrt(((observed[a] - nbr) ** 2).sum(axis=1))
            edges["empty"] += len(nbr) == 0
            edges["sep_clamp"] += int((dist - 2.0 * params.r_drone < params.zero_hat).sum())
            edges["coincident"] += int((dist == 0.0).sum())
            edges["far"] += bool(np.abs(observed[a]).max() > 1e15)
            for o in params.obstacles:
                gap = math.hypot(observed[a, 0] - o.x, observed[a, 1] - o.y) - o.radius
                edges["obs_clamp"] += gap - params.r_drone < params.zero_hat
        zero_weights.update(j for j, w in enumerate((params.w_coh, params.w_sep, params.w_tar,
                                                     params.w_obs)) if w == 0.0)
        obstacle_counts.add(len(params.obstacles))
    assert min(edges.values()) > 0, edges
    assert zero_weights == {0, 1, 2, 3} and obstacle_counts == {0, 3, 11}


@pytest.mark.byte_identity
def test_pfc_rollout_costs_equal_evaluate_cost():
    """Every recorded cost row of a PFC rollout through the eleven
    cylinders (the pfc_B_eleven digest case) is evaluate_cost at the
    agent's observed position against the snapshot it observed that tick."""
    trace = run_scenario(DIGEST_CASES["pfc_B_eleven"]())
    assert trace.config.controller.kind == "PFC" and trace.config.cost.w_obs > 0.0
    for k, rec in enumerate(trace.records):
        params = tick_cost_params(trace, k)
        for agent, p in enumerate(rec.observed_self):
            nbr = [q for j, q in tick_observation(trace, k, agent) if j != agent]
            c = evaluate_cost(p, nbr, params)
            assert _hex(rec.costs[agent]) == _hex((c.total, c.coh, c.sep, c.tar, c.obs)), (k, agent)


def test_holders_keep_their_position_and_movers_their_bits():
    # SPC steps every ladder along the gradient with a holder's zeroed, so a
    # holder's padded rows repeat its position.  Agents 1 (no neighbours, no
    # target weight: a flat gradient), 2 (a finite gradient whose norm
    # overflows) and 4 (at +inf: a NaN gradient) hold between movers 0 and 3.
    params = CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0, r_drone=0.07,
                        target=Vec3(2.0, 1.0, 1.4))
    observed = np.array([[0.0, 0.0, 1.0], [-3.0, 2.0, 1.2], [1e300, 0.0, 0.0],
                         [0.3, -0.2, 1.4], [math.inf, 0.0, 1.0]])
    views = [np.array([[0.4, 0.1, 1.1], [-0.3, 0.2, 0.9]]), np.empty((0, 3)),
             np.array([[-1e300, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]),
             np.array([[0.0, 0.0, 1.0]])]
    hoods = _neighborhoods(np.concatenate(views), np.array([len(v) for v in views]))
    for cfg in (ControllerConfig(kind="SPC"), ControllerConfig(kind="SPC", dynamic_n=False)):
        with np.errstate(over="ignore", invalid="ignore"):
            d = _decide(observed, hoods, params, cfg)
            for a in (0, 3):  # movers
                one = _decide(observed[a:a + 1], _one_neighborhood(views[a]), params, cfg)
                for name, values in one._asdict().items():
                    assert _hex(getattr(d, name)[a]) == _hex(values[0]), (a, name)
        assert (d.n_candidates[[0, 3]] > 0).all() and (d.chosen_m[[0, 3]] > 0).all()
        for a in (1, 2, 4):  # holders
            assert (d.n_candidates[a], d.chosen_m[a]) == (0, 0), a
            assert _hex(d.setpoints[a]) == _hex(observed[a]), a
        assert d.grad_norms[1] == 0.0 and d.grad_norms[2] == math.inf
        assert math.isnan(d.grad_norms[4])


def test_neighbourhood_flag_takes_the_unmasked_forms_with_the_same_bits():
    # all_have is set when every agent has a neighbour; the gradient (with
    # and without its cost terms) and the cost terms then skip their has
    # masks.  On a connected flock both forms give the same bits.  With an
    # isolated agent the flag is off, and forcing it on moves only the
    # isolated agents' rows.  The snapshot's pair rows give the
    # neighbourhoods that rebuilding them from the counts gives.
    seen_flags = set()
    for i in range(0, CASES, 2):
        observed, seen, counts, params, rows = _flock(i)
        n = observed.shape[0]
        hoods = _neighborhoods(seen, counts, rows)
        for got, want in zip(hoods, _neighborhoods(seen, counts)):
            assert got is want if isinstance(got, bool) else _hex(got) == _hex(want), i
        assert hoods.all_have == bool((counts > 0).all()) and hoods.sums.dtype == np.float64
        seen_flags.add(hoods.all_have)
        points = observed.T[:, :, None] + np.random.default_rng(i).normal(0.0, 0.3, size=(3, n, 2))
        kept = counts > 0
        outputs = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for flag in (False, True):
                h = hoods._replace(all_have=flag)
                costs = np.zeros((n, 4))
                outputs[flag] = (_gradient(observed, h, params), _gradient(observed, h, params, costs),
                                 costs, _cost_terms(points, h, params))
        for off, on in zip(outputs[False], outputs[True]):
            axis = 1 if off.ndim == 3 else 0  # (5, n, 3) and (4, n, m) planes, (n, 4) rows
            assert _hex(np.compress(kept, off, axis)) == _hex(np.compress(kept, on, axis)), i
            if hoods.all_have:
                assert _hex(off) == _hex(on), i
    assert seen_flags == {False, True}


def test_pair_sums_are_float64_without_pairs():
    # np.bincount gives int64 zeros for no pairs; the cost planes take the
    # sums by out= writes, which reject them.  Checked on the kernel and on
    # a whole hardware-preset rollout in which no agent sees another.
    hoods = _neighborhoods(np.empty((0, 3)), np.zeros(3, np.int32))
    assert hoods.sums.dtype == np.float64 and _hex(hoods.sums) == [(0.0).hex()] * 9
    assert _pair_sum(np.empty((0, 2)), np.empty(0, np.intp), 3).dtype == np.float64
    trace = run_scenario(replace(hardware_scenario(0), r_h=1e-3))
    for rec in trace.records:
        assert rec.n_neighbors.tolist() == [0] * 4
        assert rec.costs.dtype == np.float64 and _hex(rec.costs[:, 1:3]) == [(0.0).hex()] * 8


@pytest.mark.parametrize("family", ["A", "B"])
def test_plant_dispatch_equals_fly(family):
    # The engine steps the plant by llc._step_plant, fly() without its
    # argument checks: at 1, _BLOCK_ROWS - 1 and _BLOCK_ROWS rows (family
    # B's array step from there on) it gives fly()'s bits, non-finite
    # values included, in a new array, and leaves its input as it was.
    rng = np.random.default_rng(36)
    cfg = LLCConfig(family=family)
    for n in (1, _BLOCK_ROWS - 1, _BLOCK_ROWS):
        for steps in (1, 10):
            start = rng.uniform(-3.0, 3.0, size=(n, 8))
            refs = start[:, :3] + rng.uniform(-4.0, 4.0, size=(n, 3))
            if steps == 10:
                start[rng.integers(n), rng.integers(8)] = math.inf
            before = _hex(start)
            states = start.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                fly(states, refs, cfg, 0.01, steps)
                got = _step_plant(start, refs, cfg, 0.01, steps)
            assert got.shape == (n, 8) and got.dtype == np.float64 and got is not start
            assert _hex(got) == _hex(states), (n, steps)
            assert _hex(start) == before, (n, steps)


def test_advance_names_the_diverging_agent_as_before():
    # _advance replays a tick step by step only when it diverged.  Agent
    # positions leave the float range at the tenth physics step; the text
    # is pinned, and the state it was given stays as it was.
    cases = (
        (hardware_scenario(0), 2, "tick 5 (t=0.5 s), agent 2: plant position must be finite, got "
         "Vec3(x=inf, y=0.7012586556400746, z=0.8059070806341092)"),
        (build_scenario(_BLOCK_ROWS, "none", "SPC", "B", 0), _BLOCK_ROWS - 2,
         f"tick 5 (t=0.5 s), agent {_BLOCK_ROWS - 2}: plant position must be finite, got "
         "Vec3(x=inf, y=5.780304887561424, z=5.755276524464324)"),
    )
    for cfg, agent, text in cases:
        n = cfg.agent_count
        state = np.zeros((n, 8))
        state[:, :3] = np.arange(3.0 * n).reshape(n, 3) / 10.0
        state[agent, 0], state[agent, 3] = 1.7e308, 1e308
        before = _hex(state)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                _advance(state, np.ones((n, 3)), cfg, 5)
        assert str(exc.value) == text
        assert _hex(state) == before
