"""Machine-speed reference: a fixed slice of work that shares no code with regsing.

The benchmark machine is shared, and the same work runs 10-40 % slower
or faster in phases lasting from under a second to minutes.  The timed loops run one reference
slice before every request and scale each request's time by
``NOMINAL_MS / median time of the slices around it``, so a slow phase
slows the slices and the requests alike and mostly cancels.  A change to
regsing cannot change the slice: it is plain Python complex arithmetic,
small numpy arrays and ``cmath``, the same kinds of work as regsing's
F evaluations.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

import numpy as np

# slice time on an idle Intel Xeon vCPU (Python 3.11, numpy 2.4); it
# only fixes the unit of the scaled times
NOMINAL_MS = 1.4

_ORDERS = (0.0, 0.3, -0.45, 0.8)
_POINTS = tuple(complex(0.7 * k, 0.2 * k - 0.5) for k in range(1, 9))
_COEFFS = np.linspace(1.0, 0.01, 24) / np.arange(1, 25)


def _series_j(order: float, z: complex, terms: int = 24) -> complex:
    """J_order(z) by its power series."""
    half = z / 2.0
    term = half**order / math.gamma(order + 1.0)
    total = term
    q = -(half * half)
    for k in range(1, terms):
        term *= q / (k * (k + order))
        total += term
    return total


def work() -> complex:
    """One slice: Bessel series, polynomial and exponential evaluations."""
    acc = 0j
    for order in _ORDERS:
        for z in _POINTS:
            j = _series_j(order, z)
            u = np.polyval(_COEFFS, z * z / 4.0)
            acc += j * complex(u) + cmath.exp(-z) * cmath.log(z)
    return acc


def slice_ms() -> float:
    t0 = time.perf_counter()
    work()
    return (time.perf_counter() - t0) * 1e3


class Meter:
    """Reference slices, one before each request (or set-up probe)."""

    # a request's speed is the median of the slices this many ticks before
    # and after it: the host's phases change within a second, and wider
    # windows followed them less well (quartile spread of det p50 over six
    # noisy runs: 0.014 with 2, 0.05 with 50, 0.25 with one factor per run)
    WINDOW = 2

    def __init__(self):
        self.samples: list[float] = []

    def tick(self) -> None:
        self.samples.append(slice_ms())

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def scales(self) -> list[float]:
        """One factor per tick: NOMINAL_MS over the median of the slices
        within WINDOW ticks of it."""
        return [
            NOMINAL_MS / statistics.median(self.samples[max(0, i - self.WINDOW): i + self.WINDOW + 1])
            for i in range(len(self.samples))
        ]
