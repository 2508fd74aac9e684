"""Reference clock: wall time re-expressed at a fixed machine speed.

The host this benchmark was written on runs the same code up to 1.6 times
slower for spells of seconds to minutes (other tenants share its cores),
so wall times of identical runs spread by more than the benchmark's
bounds.  The clock therefore times a small fixed piece of work
(`reference_work`) between ops, at least every EVERY_S seconds, and
converts any interval of the run into reference seconds: the time it
would have taken had the reference work run in REFERENCE_S, that is

    reference seconds = integral over the interval of REFERENCE_S / r(t)

where r(t) is the reference work's duration, interpolated linearly
between samples (each the median of three neighbours, so one sample hit
by a short stall does not move the factor).  Time spent inside the
samples themselves is left out.  Wall times are kept next to every
converted figure.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import mpmath
import numpy as np

# Duration of reference_work() at the nominal machine speed: its median on
# the 2-core Xeon VM the baseline was taken on (Python 3.11), so reference
# seconds there read about as wall seconds.
REFERENCE_S = 0.008
EVERY_S = 0.5
_MATRIX = np.exp(1j * np.arange(121 * 121).reshape(121, 121) / 97.0)


def reference_work() -> float:
    """Fixed work in the library's proportions.

    An interpreter-bound integer loop, exact rational arithmetic, 256-bit
    mpmath arithmetic (the resummation's kind of work) and two dense
    complex products of the size of a cap-cutoff photon shell (the Stokes
    kernels' kind).  Timed in experiments against the library's own ops,
    this mix tracked the host's drift better than any one of its parts.
    """
    s = 0
    for i in range(20_000):
        s += i * i
    a, b = Fraction(1), Fraction(1, 3)
    for i in range(1, 200):
        a, b = b, a + b * Fraction(i, i + 7)
    with mpmath.workprec(256):
        x = mpmath.mpf(1)
        for i in range(1, 400):
            x = x * i / (x + 3)
    m = _MATRIX @ _MATRIX
    m = m @ _MATRIX
    return s + b.denominator % 7 + float(x) + abs(m[0, 0])


class ReferenceClock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each sample
        self._knots: tuple[list[float], list[float]] | None = None
        self._bounds: tuple[list[float], list[float]] | None = None

    def sample(self) -> None:
        start = time.monotonic()
        reference_work()
        self.samples.append((start, time.monotonic()))
        self._knots = self._bounds = None

    def maybe_sample(self) -> None:
        if not self.samples or time.monotonic() - self.samples[-1][1] >= EVERY_S:
            self.sample()

    def knots(self) -> tuple[list[float], list[float]]:
        """Sample midpoints and the speed factor REFERENCE_S / duration there."""
        if self._knots is None:
            if not self.samples:
                raise ValueError("the reference clock has no samples")
            mids = [0.5 * (a + b) for a, b in self.samples]
            durations = [b - a for a, b in self.samples]
            factors = [
                REFERENCE_S / statistics.median(durations[max(0, i - 1) : i + 2])
                for i in range(len(durations))
            ]
            self._knots = (mids, factors)
        return self._knots

    def speed(self) -> float:
        """Median machine speed over the run, relative to the nominal one."""
        return statistics.median(self.knots()[1])

    def _factor(self, t: float) -> float:
        mids, factors = self.knots()
        i = bisect_right(mids, t)
        if i == 0:
            return factors[0]
        if i == len(mids):
            return factors[-1]
        t0, t1 = mids[i - 1], mids[i]
        return factors[i - 1] + (factors[i] - factors[i - 1]) * (t - t0) / (t1 - t0)

    def _integral(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        mids = self.knots()[0]
        points = [a, *mids[bisect_right(mids, a) : bisect_left(mids, b)], b]
        values = [self._factor(t) for t in points]
        return sum(
            0.5 * (t1 - t0) * (v0 + v1)
            for t0, t1, v0, v1 in zip(points, points[1:], values, values[1:])
        )

    def _paused(self, a: float, b: float) -> list[tuple[float, float]]:
        """The parts of [a, b] spent sampling (samples are in time order)."""
        if self._bounds is None:
            self._bounds = ([s for s, _ in self.samples], [e for _, e in self.samples])
        starts, ends = self._bounds
        first, last = bisect_right(ends, a), bisect_left(starts, b)
        return [(max(a, s), min(b, e)) for s, e in self.samples[first:last]]

    def wall(self, a: float, b: float) -> float:
        """Wall seconds in [a, b], less the time spent sampling."""
        return (b - a) - sum(e - s for s, e in self._paused(a, b))

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds in [a, b], less the time spent sampling."""
        return self._integral(a, b) - sum(self._integral(s, e) for s, e in self._paused(a, b))
