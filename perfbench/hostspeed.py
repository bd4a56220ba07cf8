"""Host-speed probe: rescales timings to one fixed host speed.

A shared 2-core host's speed can halve and recover within seconds, and stay
slow for a whole run.  Such a drift slows all code alike, so the benchmark
runs a fixed piece of reference work between pieces of measured work and
multiplies each measured time by REFERENCE_S over the reference times seen
around it.  A change to the package cannot change the reference work, so a
slower package still reads slower; a slower host does not.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Seconds reference_work() takes at the nominal speed: about its median on a quiet
# 2-core Intel Xeon (AVX-512) VM, Python 3.11.7, numpy 2.4.6.
REFERENCE_S = 0.0011
# Measured seconds between two probes, and how far from a piece of measured
# time (in measured seconds, either side) the probes that scale it lie.
PERIOD_S = 0.02
WINDOW_S = 0.05


def reference_work() -> float:
    """Fixed mix of interpreter work and small numpy calls, like a tick's."""
    acc = 0.0
    a = np.arange(12.0).reshape(4, 3)
    for i in range(150):
        b = a * 1.0001 + i
        d = np.sqrt((b * b).sum(axis=1))
        acc += float(d.min())
        row = tuple(float(v) for v in b[0])
        acc += math.atan(row[0] * 1e-3) + sum(row)
    return acc


class SpeedProbe:
    """Probes the host every `period_s` of measured time; scales each
    measured piece by the median of the probes within WINDOW_S of it."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.pieces: list[float] = []
        self.probes: list[tuple[float, float]] = []  # (measured time before it, seconds)
        self._clock = 0.0
        self._since = 0.0

    def measured(self, seconds: float) -> None:
        self.pieces.append(seconds)
        self._clock += seconds
        self._since += seconds
        if self._since >= self.period_s:
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.probes.append((self._clock, time.perf_counter() - start))
        self._since = 0.0

    def scale(self) -> float:
        """Scale for the whole span probed so far."""
        if not self.probes:
            self.probe()
        return REFERENCE_S / statistics.median(s for _, s in self.probes)

    def scaled_pieces(self) -> list[float]:
        if not self.probes or self.probes[-1][0] < self._clock:
            self.probe()
        at = [clock for clock, _ in self.probes]
        out = []
        end = 0.0
        for seconds in self.pieces:
            start, end = end, end + seconds
            lo = bisect.bisect_left(at, start - WINDOW_S)
            # at least the first probe taken after the piece
            hi = max(bisect.bisect_right(at, end + WINDOW_S), bisect.bisect_left(at, end) + 1)
            window = [s for _, s in self.probes[lo:hi]]
            out.append(seconds * REFERENCE_S / statistics.median(window))
        return out
