"""Trace byte lock: SHA-256 digests of write_trace_csv for seven short fixed
rollouts covering SPC/PFC, LLC families A/B, runs with and without obstacles,
one noisy run with a delayed observation, and one family B flock large
enough for fly()'s array step.

A change that moves any of these digests changes the simulator's arithmetic
and must say why in CHANGES.md.  Numpy picks SIMD kernels at run time, so the
bits may depend on the host: the digests are checked only where the numpy
version and the enabled SIMD targets match the host they were recorded on.
Elsewhere each rollout is run twice in-process and the two digests must match.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from flockspc import Vec3, Waypoint, build_scenario, run_scenario, write_trace_csv
from flockspc.llc import _BLOCK_ROWS

try:  # numpy >= 2
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # pragma: no cover - numpy 1.x
    from numpy.core import _multiarray_umath as _umath

# Recorded with numpy 2.4.6 on Python 3.11.7, x86-64 with AVX-512.
RECORDED_NUMPY = "2.4.6"
RECORDED_SIMD = ["X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]

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
    "spc_A_none": "9780325a4538942867e562139f43b79c35eb680696d588cc7c308accb2182e6f",
    "spc_B_eleven": "c9daedd46c95d8e8042636d11fe20d4b26c3c35057f37d8ece8c1b0e88bdbce5",
    "pfc_A_three": "e05f06df7dff14f8a05780fb85a738c4e317de09a13572e39e924c198069d26b",
    "pfc_B_none": "1b63da372435678b6206e841a9ea7dca6b13a7b8f68ccc250f05e0f10e895a1d",
    "pfc_B_eleven": "d5a16754b75c6063a47b16008745161590138fac21a6b780bb0664a01e0c377b",
    "spc_A_eleven_noisy_delayed": "60afeea0e3b3fc74f7bcfcd3f89dcc8d65ad70e92753bb875401e5696380ad88",
    "spc_B_three_block": "f9c61f1c31ee0dfe57c3128c17b4d78d8a1771f90f0f91d9eadc746fbe5e9544",
}


def _host_simd() -> list[str]:
    enabled = _umath.__cpu_features__
    return [t for t in [*_umath.__cpu_baseline__, *_umath.__cpu_dispatch__] if enabled.get(t)]


def _digest(cfg) -> str:
    buf = io.StringIO()
    write_trace_csv(run_scenario(cfg), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest(name):
    cfg = CASES[name]()
    assert name.endswith("_block") == (cfg.llc.family == "B" and cfg.agent_count >= _BLOCK_ROWS)
    digest = _digest(cfg)
    if np.__version__ == RECORDED_NUMPY and _host_simd() == RECORDED_SIMD:
        assert digest == DIGESTS[name], f"{name}: trace bytes changed ({digest})"
    else:
        assert _digest(cfg) == digest, f"{name}: two in-process rollouts differ"
