"""Machine-speed calibration for the timings.

The machines this benchmark runs on share their cores with other tenants,
and the speed a process gets drifts by up to 50% over tens of seconds.  On
a 2-vCPU Intel Xeon guest (2.1 GHz), the raw median pass time of 35-40 s
runs spread by 9-24% (quartile distance over median) from run to run; the
same passes scaled by this kernel, run right before and right after each
call, spread by 2-8%.

The kernel is fixed code that does what the package does most: build small
NumPy arrays in a Python loop, solve 3x3 systems, take outer and matrix
products.  It calls nothing in ``bicausal``, so no change to the program
moves it.  A time t measured next to a kernel time k is reported as
``t * REFERENCE_S / k``: seconds on a machine where the kernel takes
REFERENCE_S.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.1
ROUNDS = 1500
CHUNKS = 7


def _chunk_seconds() -> float:
    start = time.perf_counter()
    acc = 0.0
    rhs = np.array([1.0, 2.0, 3.0])
    for i in range(ROUNDS):
        x = 0.001 * (i % 100)
        m = np.array([[1.0 + x, -x, 0.0], [x, 1.0 + x, 0.0], [x * x, 0.5, 1.0]])
        v = np.linalg.solve(m, rhs)
        g = np.outer(v, v) + np.diag([x, 1.0, 2.0])
        acc += float(v @ g @ v) + math.cos(x)
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Time of 4 * ROUNDS kernel rounds, from the median of CHUNKS shorter runs.

    The median drops a chunk that a short burst of contention slowed down.
    """
    return 4.0 * statistics.median(_chunk_seconds() for _ in range(CHUNKS))


def scale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A time measured between two kernel runs, in reference seconds."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
