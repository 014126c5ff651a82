"""Timings scaled to a reference host speed.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores changes with their load: a fixed piece of Python
runs up to 1.5x slower for seconds or minutes at a time, in wall time and
in process CPU time alike. Taking the fastest of repeated passes does not
help when a slow spell covers a whole run.

So every run also times a fixed calibration kernel, which never calls
lsrkit, every ``TICK_SECONDS`` between the items it times. A timed item
is reported in reference seconds: its measured time times
``REFERENCE_SECONDS`` over the median kernel time measured around it.
On a host whose kernel time is ``REFERENCE_SECONDS`` the two are equal.
A change to lsrkit moves the measured time and not the kernel's.

The kernel time is the geometric mean of four parts, each of which
slows down with some of the workloads' work: interpreted dict and integer
work, small numpy matrix products, a pass over an array larger than the
L2 cache, and scattered lookups in a dict larger than it. Scaling does
not remove all of the drift: on a 2-CPU x86 host, training steps and
encodes timed over 3 s windows spread 0.05 to 0.10 (quartile distance
over median) scaled, against 0.08 to 0.24 as measured.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from statistics import median

import numpy as np

# Kernel time, in seconds, that reported figures are scaled to: the
# kernel's time on a quiet 2-CPU x86 host, where reference time and
# measured time agree.
REFERENCE_SECONDS = 4.5e-4
# The kernel runs between timed items at most this often.
TICK_SECONDS = 0.1
# Kernel times within this distance of a timed item calibrate it ...
WINDOW_SECONDS = 0.3
# ... or, when there are fewer, this many nearest ones.
NEAREST = 5

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((16, 64))
_B = _RNG.standard_normal((64, 64)) / 8.0
_LARGE = _RNG.standard_normal((1024, 1024))
_TABLE = {i * 7919 % 1_000_003: i for i in range(300_000)}
_PROBES = _RNG.permutation(list(_TABLE))[:3000].tolist()


def _interpreted() -> int:
    counts: dict[int, int] = {}
    for j in range(1500):
        counts[j & 127] = counts.get(j & 127, 0) + j
    return len(counts)


def _small_matrices() -> float:
    x = _A
    for _ in range(30):
        x = np.tanh(x @ _B)
    return float(x.sum())


def _large_array() -> float:
    y = _LARGE * 1.0001
    return float(np.exp(y[:64]).sum())


def _scattered_lookups() -> int:
    table = _TABLE
    return sum(table[key] for key in _PROBES)


KERNEL_PARTS = (_interpreted, _small_matrices, _large_array, _scattered_lookups)


def kernel_seconds() -> float:
    """One timing of the kernel: the geometric mean of its parts' times."""
    product = 1.0
    for part in KERNEL_PARTS:
        start = time.perf_counter()
        part()
        product *= time.perf_counter() - start
    return product ** (1.0 / len(KERNEL_PARTS))


class HostClock:
    """Kernel times through a run, and timings scaled by them."""

    def __init__(self, warmup: int = NEAREST):
        self.stamps: list[float] = []
        self.kernel_seconds: list[float] = []
        self._last = float("-inf")
        for _ in range(warmup):
            self.calibrate()

    def calibrate(self) -> None:
        start = time.perf_counter()
        seconds = kernel_seconds()
        end = time.perf_counter()
        self.stamps.append(0.5 * (start + end))
        self.kernel_seconds.append(seconds)
        self._last = end

    def tick(self) -> None:
        """Calibrate unless the kernel ran within the last TICK_SECONDS."""
        if time.perf_counter() - self._last >= TICK_SECONDS:
            self.calibrate()

    def local_kernel_seconds(self, start: float, end: float) -> float:
        """Median kernel time around the interval [start, end]."""
        lo = bisect_left(self.stamps, start - WINDOW_SECONDS)
        hi = bisect_right(self.stamps, end + WINDOW_SECONDS)
        if hi - lo < NEAREST:
            mid = bisect_left(self.stamps, 0.5 * (start + end))
            lo = max(0, min(mid - NEAREST // 2, len(self.stamps) - NEAREST))
            hi = lo + NEAREST
        return median(self.kernel_seconds[lo:hi])

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval's length in reference seconds."""
        return (end - start) * REFERENCE_SECONDS / self.local_kernel_seconds(start, end)
