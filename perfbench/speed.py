"""Scaling of measured times to a fixed machine speed.

On a shared host the speed of one CPU drifts by a third or more within a
minute as neighbours come and go, which swamps run-to-run comparisons of wall
time.  The benchmark therefore times a fixed reference kernel after every
timed section and scales the section's wall time by

    REFERENCE_S / (mean of the kernel's times just before and just after)

so every reported time is "seconds on a machine where the kernel takes
REFERENCE_S".  The kernel belongs to the benchmark and never changes; it
mixes interpreter work and small numpy operations the way the program's
per-point code does (a cyclic Jacobi sweep on a fixed 4x4 matrix), so it
slows down with the host the way the program does.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: kernel repetitions per measurement (about 40 ms on a 2-CPU Xeon VM)
REPEATS = 100
#: reference duration of one measurement; defines the benchmark's second
REFERENCE_S = 0.04

_MATRIX = np.array([[4.0, 1.0, 0.5, 0.2],
                    [1.0, 3.0, 0.3, 0.1],
                    [0.5, 0.3, 2.0, 0.4],
                    [0.2, 0.1, 0.4, 1.0]])


def kernel() -> float:
    """Six fixed cyclic Jacobi sweeps with explicit rotation matrices."""
    a = _MATRIX.copy()
    k = a.shape[0]
    v = np.eye(k)
    for _ in range(6):
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p, q]
                tau = (a[q, q] - a[p, p]) / (2.0 * apq) if abs(apq) > 1e-300 else 1e300
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(k)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return float(np.abs(a).max() + np.abs(v).max())


def measure() -> float:
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return time.perf_counter() - t0


class Speedometer:
    """Speed factors that turn wall seconds into reference seconds."""

    def __init__(self):
        kernel()  # first-call costs stay out of the first measurement
        self.last = measure()

    def factor(self) -> float:
        """Factor for the section that just ended: call right after it.  The
        previous call's kernel time serves as the measurement before it."""
        now = measure()
        f = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return f
