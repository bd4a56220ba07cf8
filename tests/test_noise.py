"""Observation noise stream tests.

Each (seed, tick, observer, observed) pair draws its three standard normals
from its own Philox4x32-10 counter block, mapped through Wichura's AS241.
These tests pin the generator to the published known answers and the
transform to the standard library's AS241, check the distribution over many
pairs, and check that the simulator's two draw schedules (per tick for the
pairs in range, or a block of every pair for small flocks) give the same
trace bytes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import math
import statistics
import sys

import numpy as np
import pytest

import flockspc.engine as engine
from flockspc import (
    ScenarioConfig,
    build_scenario,
    observation_stream,
    run_scenario,
    tick_observation,
    write_trace_csv,
)
from flockspc.engine import _inverse_normal, _pair_noise, _philox, _round_keys


def _words(seed, counter):
    a = np.array([[counter[0]], [counter[2]]], dtype=np.uint32)
    b = np.array([[counter[1]], [counter[3]]], dtype=np.uint32)
    a, b = _philox(_round_keys(seed), a, b)
    return [f"{int(w[0]):08x}" for w in (a[0], b[0], a[1], b[1])]


@pytest.mark.byte_identity
def test_philox_known_answers():
    """Random123's kat_vectors for philox4x32_10: key (k0, k1) is (seed &
    0xffffffff, seed >> 32).  A wrong Philox word moves every noisy trace;
    this names it before any digest fails."""
    assert _words(0, (0, 0, 0, 0)) == ["6627e8d5", "e169c58d", "bc57ac4c", "9b00dbd8"]
    ones = 0xFFFFFFFF
    assert _words(2**64 - 1, (ones,) * 4) == ["408f276d", "41c83b0e", "a20bc7c6", "6d5451fd"]


@pytest.mark.byte_identity
def test_observation_stream_rejects_aliasing_seeds():
    """The key reads 64 bits of the seed: 2**64 would replay seed 0's
    normals and -1 those of 2**64 - 1, and so that seed's trace bytes.  The
    stream rejects both."""
    for bad in (2**64, -1, True, 1.0):
        with pytest.raises(ValueError, match=r"^seed: must be an integer in \[0, 2\*\*64\)"):
            observation_stream(bad, 3, 1, 0)
    first, last = observation_stream(0, 3, 1, 0), observation_stream(2**64 - 1, 3, 1, 0)
    assert first.shape == last.shape == (3,) and not np.array_equal(first, last)


def _python_inv_cdf():
    """statistics' pure-Python AS241, loaded without its C accelerator:
    Python float arithmetic, math.log and math.sqrt."""
    spec = importlib.util.find_spec("statistics")
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("_statistics")
    sys.modules["_statistics"] = None  # its import now raises ImportError
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["_statistics"]
        else:
            sys.modules["_statistics"] = saved
    return module._normal_dist_inv_cdf


@pytest.mark.byte_identity
def test_inverse_normal_matches_statistics():
    """Pins AS241, which maps every noise word to the normal that the trace
    records, bit for bit to statistics' pure-Python AS241 over about 150 000
    u, region edges and tails included.

    statistics.NormalDist.inv_cdf is AS241 too.  Its pure-Python form is
    the exact oracle: the kernel repeats its operations, so the two agree
    bit for bit, tails included (np.log there would differ in the last
    bit on some inputs under AVX-512).  The C accelerator NormalDist uses
    may fuse multiply-adds where the compiler does, hence 2 ulp there; on
    x86-64 it agrees bit for bit as well."""
    edge = 0.5 - 0.425
    fixed = [2.0**-33, 1.0 - 2.0**-33, 2.0**-32 * 1.5, 0.5 - 2.0**-33, 0.5 + 2.0**-33, 0.5]
    for centre in (edge, 1.0 - edge):
        fixed += [centre, math.nextafter(centre, 0.0), math.nextafter(centre, 1.0)]
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2**32, size=50_000)
    tail = rng.integers(0, int(edge * 2**32), size=100_000)
    tail[1::2] = 2**32 - 1 - tail[1::2]
    u = np.concatenate((fixed, (np.concatenate((words, tail)) + 0.5) * 2.0**-32))
    got = _inverse_normal(u).tolist()
    exact, inv_cdf = _python_inv_cdf(), statistics.NormalDist().inv_cdf
    for p, x in zip(u.tolist(), got):
        assert x.hex() == exact(p, 0.0, 1.0).hex(), p.hex()
        want = inv_cdf(p)
        assert abs(x - want) <= 2 * math.ulp(want), (p.hex(), x, want)
    assert (np.abs(u - 0.5) > 0.425).sum() > 100_000  # mostly tails


def test_pair_noise_moments_and_independence():
    # 100 ticks x 30 x 30 ordered pairs, three normals each.
    t, i, j = np.indices((100, 30, 30)).reshape(3, -1)
    z = _pair_noise(_round_keys(5), t, i, j, 1.0)
    assert z.shape == (90_000, 3)
    flat = z.ravel()
    assert abs(flat.mean()) < 0.01
    assert abs(flat.var() - 1.0) < 0.015
    assert abs((np.abs(flat) > 1.959963984540054).mean() - 0.05) < 0.003
    grid = z.reshape(100, 30, 30, 3)
    limit = 5.0 / math.sqrt(z.shape[0])
    off = ~np.eye(30, dtype=bool)  # (i, i) is its own transpose
    pairs = {
        "x-y of a pair": (z[:, 0], z[:, 1]),
        "y-z of a pair": (z[:, 1], z[:, 2]),
        "(i, j) - (j, i)": (grid[:, off, 0], grid.transpose(0, 2, 1, 3)[:, off, 0]),
        "(i, j) - (i, j+1)": (grid[:, :, :-1, 0], grid[:, :, 1:, 0]),
        "(i, j) - (i+1, j)": (grid[:, :-1, :, 0], grid[:, 1:, :, 0]),
        "tick t - t+1": (grid[:-1, ..., 0], grid[1:, ..., 0]),
    }
    for name, (a, b) in pairs.items():
        r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(r) < limit, (name, r)
    # Different seeds give unrelated noise for the same pairs.
    other = _pair_noise(_round_keys(6), t, i, j, 1.0)
    assert abs(np.corrcoef(flat, other.ravel())[0, 1]) < limit


@pytest.mark.byte_identity
def test_pair_noise_depends_on_the_counter_only():
    """Pins batch independence: a pair's noise drawn alone has the bits it
    has in a block of 75 pairs over three ticks, so the small-flock block
    and the per-tick draws give every pair the same noise."""
    keys = _round_keys(2**40 + 9)
    t, i, j = np.indices((3, 5, 5)).reshape(3, -1)
    block = _pair_noise(keys, t + 7, i, j, 0.3)
    for row in np.random.default_rng(0).permutation(len(t)).tolist():
        one = _pair_noise(keys, 7 + int(t[row]), i[row:row + 1], j[row:row + 1], 0.3)
        assert block[row].tobytes() == one[0].tobytes()
    assert not np.array_equal(block, _pair_noise(_round_keys(9), t + 7, i, j, 0.3))


def test_observation_stream_is_what_tick_observation_adds():
    # The public stream, scaled by sigma, is the noise of every replayed
    # observation, bit for bit.
    cfg = build_scenario(6, "none", "SPC", "B", seed=2**33 + 4, duration=1.0, noise_sigma=0.2)
    trace = run_scenario(cfg)
    for k in (0, 4, 9):
        truth = trace.records[k].positions
        for agent in range(cfg.agent_count):
            for j, p in tick_observation(trace, k, agent):
                want = truth[j] + 0.2 * observation_stream(cfg.seed, k, agent, j)
                assert tuple(p) == tuple(want.tolist()), (k, agent, j)
    for bad in (-1, 2**32):
        with pytest.raises(ValueError, match=rf"^tick: must be in \[0, 2\*\*32\), got {bad}$"):
            observation_stream(0, bad, 0, 0)
        with pytest.raises(ValueError, match=rf"^observed: must be in \[0, 2\*\*32\), got {bad}$"):
            observation_stream(0, 0, 0, bad)



def test_observation_stream_takes_integers_only():
    # A bool or a float would be truncated to another pair's counter word.
    for bad in (True, 1.5):
        for position, name in enumerate(("tick", "observer", "observed")):
            args = [3, 0, 1]
            args[position] = bad
            with pytest.raises(ValueError, match=f"^{name}: must be an integer, got {bad!r}"):
                observation_stream(0, *args)
    want = observation_stream(5, 3, 0, 1)
    for kind in (np.int32, np.int64, np.uint32, np.uint64):
        got = observation_stream(5, kind(3), kind(0), kind(1))
        assert got.tobytes() == want.tobytes(), kind

def _digest(cfg: ScenarioConfig) -> str:
    buf = io.StringIO()
    write_trace_csv(run_scenario(cfg), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.byte_identity
@pytest.mark.parametrize("n, layout, family", [(4, "none", "A"), (9, "three", "B")])
def test_block_schedule_gives_the_pair_bytes(monkeypatch, n, layout, family):
    """Small flocks read their noise from a block of every pair's noise;
    larger ones draw the pairs in range each tick.  Both give each pair the
    same bits, so the trace is the same whichever a flock takes."""
    cfg = build_scenario(n, layout, "SPC", family, seed=n, duration=3.0, noise_sigma=0.1)
    assert n <= engine._BLOCK_AGENTS
    block = _digest(cfg)
    monkeypatch.setattr(engine, "_BLOCK_PAIRS", 3 * n * n)  # blocks of 3 ticks: 30 = 10 x 3
    assert _digest(cfg) == block
    monkeypatch.setattr(engine, "_BLOCK_PAIRS", 7 * n * n)  # the last block is cut short
    assert _digest(cfg) == block
    monkeypatch.setattr(engine, "_BLOCK_AGENTS", 0)  # every flock draws per tick
    assert _digest(cfg) == block
