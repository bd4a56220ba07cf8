"""Trace byte lock: SHA-256 digests of write_trace_csv for seven short fixed
rollouts covering SPC/PFC, LLC families A/B, runs with and without obstacles,
one noisy run with a delayed observation, and one family B flock large
enough for fly()'s array step; and of the step_trajectory rows of both LLC
families, tilt column included.

write_trace_csv splits a trace into parts written by forked children; the
rollouts here are checked to give the same bytes whatever the part count.

A change that moves any of these digests changes the simulator's arithmetic
and must say why in CHANGES.md.  No recorded value goes through a
SIMD-dispatched transcendental ufunc, so the digests hold whatever SIMD
targets numpy dispatches, and every recorded sum adds in an order the code
writes out (obstacle terms left to right over K, neighbour pairs in
bincount's order, which test_flock_kernel pins), not in numpy's pairwise
order, so the digests are checked on every numpy.  Obstacle distances are
the sqrt of the summed squares, not libm's hypot; every digest case also
runs with np.hypot made to raise.  Every test here is marked byte_identity.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import flockspc.engine as engine
from flockspc import (
    LLCConfig,
    Vec3,
    Waypoint,
    build_scenario,
    run_scenario,
    step_trajectory,
    write_trace_csv,
)
from flockspc.llc import _BLOCK_ROWS

pytestmark = pytest.mark.byte_identity

# Start at the origin, then head for a goal 1 s in so the dynamic candidate
# count changes within the run.
_WAYPOINTS = (Waypoint(0.0, Vec3(0.0, 0.0, 1.4)), Waypoint(1.0, Vec3(3.0, 0.0, 1.4)))


def _preset(kind, family, layout, seed, noise=0.0, r_h=math.inf, delay=0, n=10, duration=2.0):
    cfg = build_scenario(n, layout, kind, family, seed=seed, duration=duration, noise_sigma=noise)
    return replace(cfg, waypoints=_WAYPOINTS, r_h=r_h, obs_delay_ticks=delay)


CASES = {
    "spc_A_none": lambda: _preset("SPC", "A", "none", seed=1),
    "spc_B_eleven": lambda: _preset("SPC", "B", "eleven", seed=2),
    "pfc_A_three": lambda: _preset("PFC", "A", "three", seed=3),
    "pfc_B_none": lambda: _preset("PFC", "B", "none", seed=4),
    "pfc_B_eleven": lambda: _preset("PFC", "B", "eleven", seed=5),
    "spc_A_eleven_noisy_delayed": lambda: _preset(
        "SPC", "A", "eleven", seed=6, noise=0.1, r_h=0.9, delay=2
    ),
    # A family B flock of at least _BLOCK_ROWS agents, so fly() takes the array step.
    "spc_B_three_block": lambda: _preset("SPC", "B", "three", seed=8, n=64, duration=1.0),
}

DIGESTS = {
    "spc_A_none": "c3dfb5a42cdca7dea21507ab84c484ac46bd073796351324bab645fb1256baab",
    "spc_B_eleven": "f8b9065402df789e7606b156dd72c836cd41551cf6824a43725bef66dbaa1b09",
    "pfc_A_three": "b56ee4d4e1bece8f556da98f49f8001fa4d1643c340ec6a285cefe7cb43e51be",
    "pfc_B_none": "0ba658b9d2b876a845a8fa003c906d2b94e82ba45d32627ce5e6bab8ebce4776",
    "pfc_B_eleven": "aeb8472d02b21965399eba003b499ab0daabce957e0103ebc5f4408b84fb9174",
    "spc_A_eleven_noisy_delayed": "5c2bd0dc9e87e9897f8357671b25c4829bb7c3d79de7364b00316cb290d2816b",
    "spc_B_three_block": "42523e0944315e99895fb199d55b82c20b560fa9163ea4aa1af6eebacd67c484",
}

# step_trajectory(LLCConfig(family=F), 1.0, duration=3.0, dt=0.001).tobytes()
STEP_DIGESTS = {
    "A": "c33cb5865c3e23c34618122a6b3de0682d2c5508a5648223ab67fe92d941337d",
    "B": "7e912e9c5693d32a81fcc5c4045c1a5f07b535c26d286ca34087745a56643733",
}


def _digest(cfg) -> str:
    buf = io.StringIO()
    write_trace_csv(run_scenario(cfg), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest(name):
    cfg = CASES[name]()
    assert name.endswith("_block") == (cfg.llc.family == "B" and cfg.agent_count >= _BLOCK_ROWS)
    digest = _digest(cfg)
    assert digest == DIGESTS[name], f"{name}: trace bytes changed ({digest})"


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_rollouts_call_no_libm_hypot(monkeypatch, name):
    # np.hypot is libm's hypot, whose last bit may differ between C
    # libraries; a rollout that calls it again fails here at once.
    def hypot(*args, **kwargs):
        raise AssertionError("np.hypot called in a rollout")

    monkeypatch.setattr(np, "hypot", hypot)
    assert _digest(CASES[name]()) == DIGESTS[name], name


@pytest.mark.parametrize("family", sorted(STEP_DIGESTS))
def test_step_response_digest(family):
    rows = step_trajectory(LLCConfig(family=family), 1.0, duration=3.0, dt=0.001)
    digest = hashlib.sha256(rows.tobytes()).hexdigest()
    assert digest == STEP_DIGESTS[family], f"family {family}: step-response bytes changed ({digest})"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the trace CSV is split only where os.fork exists")
@pytest.mark.parametrize("name", sorted(CASES))
def test_split_trace_csv_bytes_do_not_depend_on_parts(monkeypatch, tmp_path, name):
    # The part count follows the CPU affinity; a part minimum of one row
    # lets these short rollouts split.
    trace = run_scenario(CASES[name]())
    monkeypatch.setattr(engine, "_CSV_PART_ROWS", 1)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    parts = {}
    for k in (1, 2, 3, 7):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=k: set(range(k)), raising=False)
        buf, path = io.StringIO(), tmp_path / f"{k}.csv"
        write_trace_csv(trace, buf)
        write_trace_csv(trace, path)
        assert path.read_bytes() == buf.getvalue().encode(), k
        parts[k] = buf.getvalue()
    assert len(forks) == 2 * (1 + 2 + 6)
    assert parts[2] == parts[3] == parts[7] == parts[1]
