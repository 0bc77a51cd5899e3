"""Timing helpers: a speed calibration kernel and order statistics.

The shared host this benchmark runs on changes speed by up to ~1.8x within
seconds, more than any change worth measuring.  Each op is therefore
preceded by a ``Calibrator`` call, a fixed kernel of pure-Python work and
memory-bound numpy/scipy work (the two kinds an hkxor op mixes), and its
time is scaled to the speed at which that kernel takes ``CAL_REF_S``:
``t * CAL_REF_S / kernel_seconds``.  The kernel calls nothing in hkxor and
runs with the garbage collector off, so the program's heap does not change
its time.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

CAL_REF_S = 0.040  # kernel time that defines reference speed
CAL_ITERS = 20_000  # pure-Python rounds of the kernel; CAL_REF_S holds for this count only
_CAL_TABLE = {i: i * 2654435761 & 0xFFFF for i in range(4096)}
PERCENTILES = (50, 90, 95, 99, 99.9)
MIN_BEYOND = 10  # samples a reported tail percentile must have beyond it


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (p in [0, 100]); p=50 is the median."""
    if not values:
        raise ValueError("no samples")
    data = sorted(values)
    pos = (len(data) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def highest_reportable(count: int) -> float | None:
    """The highest of PERCENTILES with at least MIN_BEYOND of ``count`` samples beyond it."""
    beyond = [p for p in PERCENTILES
              if count * (100 - Fraction(str(p))) >= 100 * MIN_BEYOND]
    return beyond[-1] if beyond else None


class Calibrator:
    """Times the fixed kernel; its arrays are built once per process."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n = 50_000
        self._stream = np.ones(1_000_000)  # 8 MB, beyond the caches
        self._matrix = sp.csr_matrix((np.ones(n), (rng.integers(0, n, n), rng.integers(0, n, n))),
                                     shape=(n, n))
        self._vector = rng.standard_normal(n)

    def __call__(self) -> float:
        """Seconds for the kernel: xorshift arithmetic, table lookups, small tuples in a
        dict, array sums and sparse matrix-vector products."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            x = 88172645463325252
            acc = 0
            seen: dict[tuple[int, int], int] = {}
            for _ in range(CAL_ITERS):
                x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
                x ^= x >> 7
                x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
                acc += _CAL_TABLE[x & 4095] + (x & (x >> 11)).bit_count()
                key = (x & 1023, (x >> 10) & 1023)
                seen[key] = seen.get(key, 0) + 1
            seen.clear()
            for _ in range(6):
                self._stream.sum()
            for _ in range(20):
                self._matrix @ self._vector
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def at_reference_speed(seconds: float, kernel_seconds: float) -> float:
    """A time measured while the kernel took ``kernel_seconds``, scaled to reference speed."""
    return seconds * CAL_REF_S / kernel_seconds
