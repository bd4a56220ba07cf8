"""Pair-keyed observation noise: a counter-based normal stream.

Observer i's noise on its view of agent j at control tick k under scenario
seed s is three standard normals from one Philox4x32-10 block (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011):

  key      (s & 0xffffffff, (s >> 32) & 0xffffffff)
  counter  (k, i, j, 1), the last word naming the observe purpose
  words    w0, w1, w2 -> u = (w + 0.5) * 2**-32, exact and inside (0, 1)
  normals  Wichura's AS241 (PPND16; Applied Statistics 37(3), 1988) of u

Every pair has its own counter, so one vectorised call draws any batch of
pairs and a pair's bits do not depend on the batch.  Ticks and agents must
fit 32-bit counter words; ScenarioConfig rejects runs that do not.

No SIMD-dispatched transcendental ufunc (np.log, np.exp, np.power with an
exponent other than 2) feeds a value: Philox is integer arithmetic, AS241's
central region is + - * / only, and its tails take math.log per element,
never np.log, whose SIMD kernels differ in the last bit between CPUs.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .model import _INTEGER, _SEED, ConfigError

__all__ = ["observation_stream"]

_MASK32 = (1 << 32) - 1
_PURPOSE_OBSERVE = 1

# Philox4x32-10's multipliers of counter words 0 and 2, and its Weyl key bumps.
_PHILOX_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
# Columns of the low and high 32-bit halves of a uint64 viewed as two uint32.
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


@lru_cache(maxsize=64)
def _round_keys(seed: int) -> np.ndarray:
    """The ten Philox round keys of the key (seed & 0xffffffff,
    (seed >> 32) & 0xffffffff), as a read-only (10, 2, 1) uint32 array."""
    key = (seed & _MASK32, (seed >> 32) & _MASK32)
    keys = np.array([[[(k + r * w) & _MASK32] for k, w in zip(key, _PHILOX_W)]
                     for r in range(10)], dtype=np.uint32)
    keys.flags.writeable = False
    return keys


def _philox(keys: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox4x32-10 of k counters held as a = words (0, 2) and b = words
    (1, 3), each (2, k) uint32; returns the output words in the same layout."""
    for rk in keys:
        # (c0 M0, c2 M1), exact in uint64.  Next round: words (0, 2) are
        # (hi(c2 M1) ^ c1 ^ k0, hi(c0 M0) ^ c3 ^ k1), words (1, 3) are
        # (lo(c2 M1), lo(c0 M0)).
        halves = np.multiply(a, _PHILOX_M, dtype=np.uint64).view(np.uint32)
        a = np.bitwise_xor(b, halves[::-1, _HI::2])
        a ^= rk
        b = halves[::-1, _LO::2]
    return a, b


# Wichura's AS241 (PPND16; Applied Statistics 37(3), 1988) as
# statistics.NormalDist.inv_cdf evaluates it: numerator and denominator
# coefficients from the highest power down, one (2, 1) column per power.
_AS241_CENTRAL = np.array([
    (2.5090809287301226727e+3, 5.2264952788528545610e+3),
    (3.3430575583588128105e+4, 2.8729085735721942674e+4),
    (6.7265770927008700853e+4, 3.9307895800092710610e+4),
    (4.5921953931549871457e+4, 2.1213794301586595867e+4),
    (1.3731693765509461125e+4, 5.3941960214247511077e+3),
    (1.9715909503065514427e+3, 6.8718700749205790830e+2),
    (1.3314166789178437745e+2, 4.2313330701600911252e+1),
    (3.3871328727963666080e+0, 1.0),
])[:, :, None]
_AS241_TAIL = np.array([
    (7.74545014278341407640e-4, 1.05075007164441684324e-9),
    (2.27238449892691845833e-2, 5.47593808499534494600e-4),
    (2.41780725177450611770e-1, 1.51986665636164571966e-2),
    (1.27045825245236838258e+0, 1.48103976427480074590e-1),
    (3.64784832476320460504e+0, 6.89767334985100004550e-1),
    (5.76949722146069140550e+0, 1.67638483018380384940e+0),
    (4.63033784615654529590e+0, 2.05319162663775882187e+0),
    (1.42343711074968357734e+0, 1.0),
])[:, :, None]


def _horner(coef: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(c7 r + c6) r + ... + c0 for both rows of coef (8, 2, 1): (2, m)."""
    p = coef[0] * r
    for c in coef[1:-1]:
        p += c
        p *= r
    p += coef[-1]
    return p


def _inverse_normal(u: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of u (m,), all in [2**-33, 1 - 2**-33], by
    AS241, bit for bit statistics.NormalDist().inv_cdf on the same libm.
    The central region |u - 0.5| <= 0.425 is + - * / only; each tail value
    takes one math.log.  The far-tail branch (r > 5) needs u < 1.4e-11, so
    it never runs: sqrt(-log(2**-33)) < 4.8."""
    q = u - 0.5
    num, den = _horner(_AS241_CENTRAL, 0.180625 - q * q)
    x = num * q / den
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        qt = q[tail]
        r = np.where(qt <= 0.0, u[tail], 1.0 - u[tail]).tolist()
        logs = np.fromiter(map(math.log, r), float, len(r))
        num, den = _horner(_AS241_TAIL, np.sqrt(-logs) - 1.6)
        xt = num / den
        x[tail] = np.negative(xt, out=xt, where=qt < 0.0)
    return x


def _pair_noise(keys: np.ndarray, ticks: int | np.ndarray, observers: np.ndarray,
                observed: np.ndarray, sigma: float) -> np.ndarray:
    """Observation noise (k, 3) of the pairs (observers[i], observed[i]) (k,)
    at ticks (a scalar or (k,)): sigma times the three standard normals of
    each pair's Philox4x32-10 counter (tick, observer, observed,
    _PURPOSE_OBSERVE) under the round keys `keys`, output words w0, w1, w2
    mapped to u = (w + 0.5) * 2**-32 and then through AS241.  A pair's noise
    depends on its counter only, not on the batch it is drawn in."""
    a = np.empty((2, observed.shape[0]), dtype=np.uint32)
    b = np.empty_like(a)
    a[0], a[1] = ticks, observed
    b[0], b[1] = observers, _PURPOSE_OBSERVE
    a, b = _philox(keys, a, b)
    u = np.empty((observed.shape[0], 3))
    u[:, 0], u[:, 1], u[:, 2] = a[0], b[0], a[1]
    u += 0.5
    u *= 2.0**-32  # exact, inside (0, 1)
    return sigma * _inverse_normal(u.ravel()).reshape(u.shape)


def observation_stream(seed: int, tick: int, observer: int, observed: int) -> np.ndarray:
    """The three standard normals (3,) behind `observer`'s noisy x, y, z of
    `observed` at control tick `tick` under scenario seed `seed`."""
    _SEED.check(seed, "seed")
    for name, value in (("tick", tick), ("observer", observer), ("observed", observed)):
        _INTEGER.check(value, name)
        if not 0 <= value <= _MASK32:
            raise ConfigError(name, f"must be in [0, 2**32), got {value}")
    return _pair_noise(_round_keys(seed), tick, np.array([observer]), np.array([observed]), 1.0)[0]


