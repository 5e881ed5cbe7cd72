"""The machine's current speed, from a fixed kernel timed between items.

On a shared virtual machine the speed of the same code drifts by tens of
percent over minutes while the program under test stays the same. Timing a
fixed kernel between items tracks that drift: dividing a time by ``factor()``
expresses it on a reference machine, one on which the kernel takes
``REFERENCE_S``. The kernel has an interpreter-bound half (int bitmasks, dict
and set updates, as in the GF(2) code) and a numpy half (sign products and a
tensordot over a 2**17 state, as in the simulator), because the two halves
drift differently. Measured on a shared 2-vCPU Xeon in 12- to 15-second
windows over three minutes, scaling by this kernel cut the coefficient of
variation of branch-cert items from 0.13 to 0.05, of wide-register items
from 0.09 to 0.06 and of cli-mix processes from 0.07 to 0.03.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010
EVERY_S = 0.25  # sampling interval while items run
WINDOW = 5  # the factor is the median of this many recent samples

_INDEX = np.arange(2**17)
_PROJECTOR = np.array([0.6, 0.8j])


def kernel() -> complex:
    """Fixed work with an interpreter-bound and a numpy-bound half."""
    acc, table, seen = 0, {}, set()
    for i in range(20_000):
        acc ^= (acc << 1 | i) & 0xFFFF_FFFF_FFFF
        table[i & 1023] = acc
        seen.add(i * 7 & 4095)
    sign = np.ones(_INDEX.size)
    for s in range(6):
        sign *= 1.0 - 2.0 * ((_INDEX >> s) & (_INDEX >> (s + 1)) & 1)
    amps = sign.astype(complex).reshape(2**6, 2, -1)
    return np.tensordot(_PROJECTOR, amps, axes=([0], [1])).sum() + acc + len(table) + len(seen)


class Speed:
    """Speed samples of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the kernel, to leave out of wall time
        self._last = 0.0

    def sample(self, times: int = 1):
        for _ in range(times):
            start = perf_counter()
            kernel()
            self._last = perf_counter()
            self.samples.append(self._last - start)
            self.spent += self._last - start

    def sample_if_due(self):
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Recent kernel time over the reference time; above 1 on a slow spell."""
        return statistics.median(self.samples[-WINDOW:]) / REFERENCE_S

    def mean_factor(self, since: int) -> float:
        """The factor averaged over time since sample ``since``: samples come at
        even intervals, so a slow spell weighs by its length, not by the
        number of items that ran in it."""
        recent = self.samples[since:]
        return statistics.fmean(recent) / REFERENCE_S if recent else self.factor()
