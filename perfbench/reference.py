"""A fixed reference kernel that measures how fast the host runs right now.

Other tenants of a shared host slow every process on it, by up to 1.8x,
for seconds to minutes at a time, and they slow the package and this
kernel by similar factors (not equal ones: where wall times rose by half,
scaled op times still rose by up to a tenth).  The benchmark times the kernel between consecutive ops
and scales each op's wall time by SECONDS over the kernel's mean time
before and after it: the op's time on a host as fast as a quiet one.
The kernel calls no package code, so a change to the package moves the
scaled times as much as it moves the wall times.

Its three parts mirror the package's kinds of work: interpreted
arithmetic, scalar draws from a numpy generator in a Python loop (as
sample_limit makes them) and array arithmetic (as the kinetics and the
simulation do).
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on a quiet 2-core host (Python 3.11, numpy 2.4)
SECONDS = 0.018

_ARRAY = np.random.default_rng(0).standard_normal(50_000)


def kernel() -> float:
    total = 0.0
    for i in range(100_000):
        total += (i % 7) * 0.5
    binomial = np.random.default_rng(1).binomial
    x = 1
    for _ in range(10_000):
        x = binomial(x + 3, 0.5)
    for _ in range(10):
        total += float(np.exp(-np.abs(np.cumsum(np.sort(_ARRAY))))[-1])
    return total + x


def timed() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Scaler:
    """Times the kernel between ops and scales each op's time to a quiet host.

    The first timing is taken on construction; scale() is called right
    after each op and times the kernel again, so every op lies between two
    timings and consecutive ops share one.
    """

    def __init__(self):
        timed()  # warm the kernel's code and data
        self.last = timed()

    def scale(self, seconds: float) -> float:
        now = timed()
        factor = SECONDS / (0.5 * (self.last + now))
        self.last = now
        return seconds * factor
