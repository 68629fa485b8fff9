"""Request timings scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed changes in
phases of seconds: a fixed Python loop swings between 10 and 17 ms, and a
library call with it. Those phases hit every CPU-bound Python/numpy loop
alike, so the benchmark times a fixed calibration block next to the
requests, at least every CAL_EVERY seconds, and scales each request by
CAL_REF over the calibration time in force around it. The result reads in
*reference seconds*: what the request would take on a host that runs the
calibration block in CAL_REF seconds. A change to the library moves the
request times and not the calibration, so it shows in full; a host phase
moves both and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_EVERY = 0.1        # seconds between calibrations
CAL_REF = 0.003        # calibration seconds on the reference host

_A = np.random.default_rng(0).standard_normal((6, 6)) * (1 + 0.5j)
_H = _A @ _A.conj().T


def _python_part(n):
    acc = {}
    for i in range(n):
        key = i % 17
        acc[key] = acc.get(key, 0.0) + (i * 0.5) ** 2
    return sum(acc.values())


def calibration_block():
    """A fixed mix of interpreter work and small numpy kernels, like a request."""
    _python_part(6000)
    for _ in range(30):
        np.linalg.qr(_A)
        np.linalg.eigvalsh(_H)
        np.linalg.solve(_H, _A)


class Clock:
    """Calibrates as a run goes; converts request seconds to reference seconds.

    ``mark()`` before a request returns the index of the calibration in
    force; ``scale(index)`` after the run gives the factor for a request
    timed under it: CAL_REF over the median of the calibrations around it
    (one before, the one in force and the two after).
    """

    def __init__(self):
        self.cal = []
        self.last = -float("inf")

    def calibrate(self):
        t0 = time.perf_counter()
        calibration_block()
        self.last = time.perf_counter()
        self.cal.append(self.last - t0)

    def mark(self):
        if time.perf_counter() - self.last > CAL_EVERY:
            self.calibrate()
        return len(self.cal) - 1

    def scale(self, index):
        window = self.cal[max(0, index - 1):index + 3]
        return CAL_REF / statistics.median(window)

    def speed(self):
        """Median calibration time over the run, for the human-readable lines."""
        return statistics.median(self.cal)
