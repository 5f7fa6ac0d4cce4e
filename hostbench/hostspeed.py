"""The host's current speed, from a fixed reference computation.

The benchmark's hosts are shared.  The same code runs up to twice as slow
for minutes at a time, with CPU time tracking wall time, so the slowdown
is in the processor, not in scheduling.  Raw host times therefore spread
by 10-24% between runs of identical work.  The benchmark times a fixed
computation of its own (never the program under test) between its timed
calls and scales a whole pass to a host on which that computation takes
``REFERENCE_S`` seconds, using the mean of the pass's readings.  One
reading is a few milliseconds and noisier than the calls it sits between,
so scaling each call by its neighbouring readings adds noise; the mean
over a pass keeps the correction for the host's speed during the run and
averages that noise out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds the reference computation takes at the reference speed: about
#: its median on an unloaded 2-CPU Python 3.11 host.
REFERENCE_S = 1.5e-3


class _Cell:
    """A method-call and dict-lookup target, like the loop contexts."""

    def __init__(self) -> None:
        self.values: dict[int, float] = {}

    def load(self, key: int) -> float:
        return self.values.get(key, 0.0)

    def store(self, key: int, value: float) -> None:
        self.values[key] = value


def _reference_once() -> float:
    t0 = time.perf_counter()
    cell = _Cell()
    for i in range(2500):
        key = i & 63
        cell.store((key * 7 + 3) & 63, cell.load(key) * 0.5 + i)
    data = np.arange(2048, dtype=np.float64)
    index = np.arange(0, 2048, 3)
    for _ in range(30):
        data[index] = data[index] * 0.5 + 1.0
        np.flatnonzero(data > 10.0)
    return time.perf_counter() - t0


def reference_s() -> float:
    """Current duration of the reference computation (median of 3)."""
    return statistics.median(_reference_once() for _ in range(3))


def at_reference_speed(elapsed: float, readings: list[float]) -> float:
    """``elapsed`` host seconds, scaled to the reference speed using the
    reference durations (:func:`reference_s`) read while they passed."""
    return elapsed * REFERENCE_S / statistics.fmean(readings)
