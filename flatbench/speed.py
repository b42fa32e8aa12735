"""Timing at a nominal machine speed, measured with fixed calibration work.

The benchmark was sized on a 2-vCPU virtual machine whose speed swings with
the load of other tenants: the same pure-Python loop took 0.085 s to 0.16 s
within seconds, on either vCPU, and the wall time of the same workload moved
by 2x between runs ten minutes apart.  No choice of workload or estimator
makes raw wall times repeat on such a machine.

So every timing is also taken in *nominal seconds*: the measured seconds
divided by the machine's slowdown at that moment, where the slowdown is the
time of a fixed piece of calibration work (`calibrate`) divided by its
time on the unloaded machine (`NOMINAL_S`).  The work runs just before and
just after each timed call and, from a SIGALRM timer, every `TICK_S`
seconds during it; the slowdown of a call is the mean over those samples,
and the time the samples themselves take is subtracted from the call's
time.  Raw seconds are kept next to the nominal ones in the benchmark's
result files.

The calibration work is what flatkit spends its time on: a sparse
polynomial product over dicts of exponent tuples with `Fraction`
coefficients.  A tight integer and `Fraction` loop slows down less than
flatkit when the machine is loaded.  Over 4 minutes of two flatkit
questions asked in turn, while their raw times spread 0.48 (quartile
distance over median), the slope of log nominal on log raw time of 6-second
blocks was 0.28 with such a loop and 0.07 with the polynomial product, and
the blocks' nominal spread 0.054 and 0.049 (`analyze`), 0.089 and 0.074
(`verify`).  The cyclic garbage
collector is off while it runs, so its time does not depend on the size of
the caller's heap.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

# calibrate() on the unloaded 2-vCPU machine the benchmark was sized on
# (fastest of many samples there).
NOMINAL_S = 0.0059
TICK_S = 0.25


def _poly(rng: random.Random) -> dict[tuple[int, ...], Fraction]:
    return {
        tuple(rng.randrange(4) for _ in range(6)): Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        for _ in range(40)
    }


_rng = random.Random(2)
_LEFT, _RIGHT = _poly(_rng), _poly(_rng)


def calibrate() -> float:
    """Seconds taken by a fixed sparse polynomial product."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict[tuple[int, ...], Fraction] = {}
        for ma, ca in _LEFT.items():
            for mb, cb in _RIGHT.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Times calls in raw and nominal seconds (see the module docstring)."""

    def __init__(self) -> None:
        self._last = calibrate()
        self._during: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        sample = calibrate()
        self._during.append((time.perf_counter() - start, sample))

    def call(self, fn, *args):
        """fn(*args) -> (result, raw seconds, nominal seconds)."""
        before = self._last
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._last = calibrate()
        raw = elapsed - sum(spent for spent, _ in self._during)
        samples = [before] + [s for _, s in self._during] + [self._last]
        return result, raw, raw * NOMINAL_S / statistics.fmean(samples)
