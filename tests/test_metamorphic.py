"""Exact metamorphic relations of whole rollouts: a mirrored or turned world
gives the mirrored or turned trace, bit for bit.

Each case runs with noise off from explicit spawn positions (the original's
box spawn), so the rollout is a function of the geometry alone.  Mapping
every spawn position, waypoint target and obstacle centre by the mirror
(x, y, z) -> (x, -y, z) or the quarter turn (x, y, z) -> (-y, x, z) must map
every recorded position, velocity, observed position and setpoint the same
way, and leave every cost, gradient norm, neighbour count, candidate count
and chosen candidate as it was.

Both hold exactly because each kernel is built from operations that commute
with the maps: negation is exact and commutes with every correctly rounded
operation, the tilt limits are symmetric, and the quarter turn only swaps
the x and y squares of a sum whose other term follows them (x*x + y*y + z*z
and y*y + x*x + z*z are the same float).  So a kernel that sums its squares
x, z, y, or an axis that reads another axis' value, breaks a relation.  A
zero may change sign: the mirror of a +0.0 starting velocity is -0.0, and
the mirrored run starts at rest with +0.0.  Coincident agents and agents on
an obstacle axis take a fixed +x direction, which no map keeps; the cases
have neither, and the tests check that.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from flockspc import Obstacle, SpawnSpec, Vec3, Waypoint, build_scenario, run_scenario
from flockspc.engine import _spawn_positions
from flockspc.llc import _BLOCK_ROWS

pytestmark = pytest.mark.byte_identity

# The flock forms at the origin, then heads for a goal 1 s in, so the
# dynamic candidate count changes within the run.
_WAYPOINTS = (Waypoint(0.0, Vec3(0.0, 0.0, 1.4)), Waypoint(1.0, Vec3(3.0, 0.0, 1.4)))


def _case(kind, family, layout, seed, n=9, r_h=0.9, delay=0, duration=1.5):
    cfg = build_scenario(n, layout, kind, family, seed=seed, duration=duration, noise_sigma=0.0)
    cfg = replace(cfg, waypoints=_WAYPOINTS, r_h=r_h, obs_delay_ticks=delay)
    spawn = SpawnSpec(positions=tuple(Vec3(*p) for p in _spawn_positions(cfg).tolist()))
    return replace(cfg, spawn=spawn)


CASES = {
    "spc_A_three": lambda: _case("SPC", "A", "three", seed=11, r_h=float("inf")),
    "spc_B_eleven": lambda: _case("SPC", "B", "eleven", seed=12),
    "spc_A_eleven_delayed": lambda: _case("SPC", "A", "eleven", seed=13, delay=2),
    "pfc_A_three_delayed": lambda: _case("PFC", "A", "three", seed=14, delay=2),
    "pfc_B_eleven": lambda: _case("PFC", "B", "eleven", seed=15, r_h=float("inf")),
    "spc_A_none": lambda: _case("SPC", "A", "none", seed=16),
    # A family B flock of at least _BLOCK_ROWS agents, so fly() takes the array step.
    "spc_B_none_block": lambda: _case("SPC", "B", "none", seed=17, n=_BLOCK_ROWS + 3, duration=1.0),
}

# (x, y, z) -> mapped, as a function of the three coordinates.
MAPS = {
    "mirror": lambda x, y, z: (x, -y, z),
    "quarter_turn": lambda x, y, z: (-y, x, z),
}


def _mapped_config(cfg, f):
    def point(v):
        return Vec3(*f(v.x, v.y, v.z))

    obstacles = tuple(Obstacle(*f(o.x, o.y, 0.0)[:2], o.radius) for o in cfg.obstacles)
    return replace(
        cfg,
        spawn=SpawnSpec(positions=tuple(map(point, cfg.spawn.positions))),
        waypoints=tuple(Waypoint(w.time, point(w.target)) for w in cfg.waypoints),
        obstacles=obstacles,  # ScenarioConfig hands them to its cost params
    )


def _map_rows(rows, f):
    return np.stack(f(rows[:, 0], rows[:, 1], rows[:, 2]), axis=1)


def _bits(values):
    # The int64 patterns of the values, with -0.0 read as +0.0.
    return (np.asarray(values, dtype=float) + 0.0).view(np.int64)


def _check_apart(cfg, records):
    # No pair of agents and no agent and obstacle axis coincide at any tick.
    centres = np.array([(o.x, o.y) for o in cfg.obstacles]).reshape(-1, 2)
    for rec in records:
        p = rec.positions
        d = p[:, None] - p[None]
        d2 = (d * d).sum(axis=2)
        np.fill_diagonal(d2, 1.0)
        assert (d2 > 0.0).all(), rec.index
        a = p[:, None, :2] - centres[None]
        assert ((a * a).sum(axis=2) > 0.0).all(), rec.index


@pytest.mark.parametrize("name", sorted(CASES))
def test_mirrored_and_turned_worlds_give_mapped_traces(name):
    """Pins that every kernel of the tick (snapshot, gradient, cost terms,
    SPC ladders and choice, PFC step, both plant families and the array
    step) commutes exactly with the mirror in y and the quarter turn about
    z: the mapped scenario's positions, velocities, observed positions and
    setpoints are the mapped originals bit for bit (up to the sign of a
    zero), and its costs, gradient norms, neighbour counts, candidate counts
    and chosen candidates are the originals'.  A same-bits kernel edit that
    reorders a sum of squares or mixes the axes fails it."""
    cfg = CASES[name]()
    assert cfg.noise_sigma == 0.0 and cfg.llc.tilt_min == -cfg.llc.tilt_max
    base = run_scenario(cfg).records
    _check_apart(cfg, base)
    for map_name, f in MAPS.items():
        got = run_scenario(_mapped_config(cfg, f)).records
        assert len(got) == len(base)
        for want, rec in zip(base, got):
            where = (name, map_name, want.index)
            for field in ("positions", "velocities", "observed_self", "setpoints"):
                expected = _map_rows(getattr(want, field), f)
                assert np.array_equal(_bits(getattr(rec, field)), _bits(expected)), where + (field,)
            for field in ("costs", "grad_norms"):
                assert np.array_equal(np.asarray(getattr(rec, field)).view(np.int64),
                                      np.asarray(getattr(want, field)).view(np.int64)), where + (field,)
            for field in ("n_neighbors", "n_candidates", "chosen_m"):
                assert getattr(rec, field).tolist() == getattr(want, field).tolist(), where + (field,)


def test_cases_cover_the_matrix():
    """Pins the metamorphic matrix: SPC and PFC, families A and B, each
    obstacle layout, delays 0 and 2, r_h finite and infinite, and a flock
    on fly()'s array step."""
    cfgs = [make() for make in CASES.values()]
    assert {c.controller.kind for c in cfgs} == {"SPC", "PFC"}
    assert {c.llc.family for c in cfgs} == {"A", "B"}
    assert {len(c.obstacles) for c in cfgs} == {0, 3, 11}
    assert {c.obs_delay_ticks for c in cfgs} == {0, 2}
    assert {c.r_h for c in cfgs} == {0.9, float("inf")}
    assert any(c.llc.family == "B" and c.agent_count >= _BLOCK_ROWS for c in cfgs)
