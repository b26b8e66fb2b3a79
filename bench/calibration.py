"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed changes by a
third or more from one minute to the next, for every kind of work alike: the
wall time of one fixed call swings as much as the time of a pure-Python loop
run just before it.  So each end-to-end time is scaled to a reference speed.
Around every timed measurement the benchmark runs a block of calibration
units, a fixed mix of work that does not depend on the program, and scales
the measurement by ``REFERENCE_UNIT_S`` over the mean unit time of the blocks
just before and just after it.  A change to the program moves the scaled time
as it moves the wall time; a change in the machine's speed moves both the
wall time and the calibration, and mostly cancels.
"""

from __future__ import annotations

import time

import numpy as np

# Close to the median time of one unit on a 2-vCPU Xeon VM at 2.1 GHz
# (Python 3.11, numpy 2.4, one BLAS thread), whose medians over single runs
# ranged from 0.017 to 0.023 s.  Scaled times are wall times at this speed.
REFERENCE_UNIT_S = 0.020
# A block lasts about this share of the measurement before it, so a long
# call is compared with a longer stretch of the machine's speed.
BLOCK_SHARE = 0.1
MAX_UNITS = 50
FIRST_BLOCK_S = 0.5


class Calibration:
    """Scale factors for consecutive measurements, from calibration blocks
    run between them."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.Philox(0))
        self._small = rng.standard_normal((300, 30))
        self._vector = rng.standard_normal(30)
        self._large = rng.standard_normal(1 << 18)  # 2 MiB, past the L2 cache
        self.units: list[float] = []
        # The length of the first measurement is not known yet.
        self._last = self._block(FIRST_BLOCK_S)

    def _unit(self) -> float:
        """Seconds for one unit: interpreter loops, small matrix products
        and passes over a large array, as in a CLI call."""
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        y = self._vector
        for _ in range(300):
            y = self._small.T @ (self._small @ y)
            y /= np.abs(y).max()
        z = self._large
        for _ in range(10):
            z = np.sqrt(z * z + 1.0)
        return time.perf_counter() - start

    def _block(self, seconds: float) -> float:
        """Mean unit time over a block of about `seconds`, at least one unit."""
        count = max(1, min(MAX_UNITS, round(seconds / REFERENCE_UNIT_S)))
        units = [self._unit() for _ in range(count)]
        self.units.extend(units)
        return sum(units) / count

    def scale(self, seconds: float) -> float:
        """Factor for a measurement of `seconds` that has just ended."""
        before, self._last = self._last, self._block(BLOCK_SHARE * seconds)
        return REFERENCE_UNIT_S / ((before + self._last) / 2)
