"""Reference kernel: readings of the machine's current speed.

On a shared machine the same code runs up to 35% faster in one minute than
in another. Every execution the benchmark times is read against this kernel
just before and just after it, and its time is multiplied by
``NOMINAL_S / mean(the two readings)``, i.e. reported at the speed where the
kernel takes ``NOMINAL_S``. A slowdown hits interpreted big-number work,
dense numpy work and small-array Python work by different amounts, so the
kernel does some of each, in about the mix the workloads do. It uses mpmath,
numpy and the standard library only, never the package under test, so a
change to the package cannot move it.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import mpmath
import numpy as np

NOMINAL_S = 0.008


def _work() -> None:
    # high-precision mpf and Fraction arithmetic (generator, moments)
    with mpmath.workprec(800):
        x = mpmath.mpf(2) / 3
        acc = mpmath.mpf(0)
        for k in range(170):
            acc += x * k / (k + 1)
    fr = Fraction(0)
    for k in range(1, 85):
        fr = fr * Fraction(3, 7) + Fraction(k, 2**53)
    # rank-one updates of a dense array (simplex pivots)
    t = np.add.outer(np.linspace(0.0, 1.0, 300), np.linspace(0.0, 2.0, 260))
    for k in range(16):
        row = t[k] / (t[k, k] + 1.0)
        t -= np.outer(t[:, k], row) * 1e-3
    # small arrays driven from Python (grids, residuals, short LPs)
    a = np.linspace(0.0, 1.0, 40)
    for k in range(120):
        b = a * k + 1.0
        float(b.max() - b.min()) + sum(a[:4].tolist())
    fr = Fraction(0)
    for k in range(1, 30):
        fr = fr * Fraction(3, 7) + Fraction(k, 2**20)


def reading() -> float:
    """Seconds taken by one run of the kernel (about 8 ms on a quiet box)."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(readings: list[float]) -> float:
    """Factor that takes times measured next to these readings to the
    nominal speed."""
    return NOMINAL_S / statistics.median(readings)
