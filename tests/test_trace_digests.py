"""Trace byte lock: SHA-256 digests of write_trace_csv for six short fixed
rollouts covering SPC/PFC, LLC families A/B, runs with and without obstacles,
and one noisy run with a delayed observation.

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


def _preset(kind, family, layout, seed, noise=0.0, r_h=math.inf, delay=0):
    cfg = build_scenario(10, layout, kind, family, seed=seed, duration=2.0, noise_sigma=noise)
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
}

DIGESTS = {
    "spc_A_none": "c7d46b6d430dcc0d4baa51a54d2ef20788c7777317c1067ffeb0501d8532250a",
    "spc_B_eleven": "24fef2bee5c4b5cd059c16c7a7f81effccc725559a8a7a921788a6495ffe86dc",
    "pfc_A_three": "4ddcc29470991e8c97cfe414f413b9a21285330bee217751ee122b081845d3b0",
    "pfc_B_none": "193232d87c0f64b10827b9126058a1a9c458954d0599243d9e34a5e55fd1ec09",
    "pfc_B_eleven": "5ac18de95b3cde1b26ef1a258873768f136211c85c12948bbaf782256c5d953f",
    "spc_A_eleven_noisy_delayed": "60afeea0e3b3fc74f7bcfcd3f89dcc8d65ad70e92753bb875401e5696380ad88",
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
    digest = _digest(cfg)
    if np.__version__ == RECORDED_NUMPY and _host_simd() == RECORDED_SIMD:
        assert digest == DIGESTS[name], f"{name}: trace bytes changed ({digest})"
    else:
        assert _digest(cfg) == digest, f"{name}: two in-process rollouts differ"
