"""A fixed computation that gauges the host's speed between timed segments.

The benchmark's host is a share of a busy machine: each vCPU runs at full
speed or about 1.4 to 1.5 times slower, flipping within seconds and for
minutes at a time, so a raw wall time says as much about the neighbours as
about parieq. The benchmark therefore runs this yardstick right before and
right after every timed segment and scales the segment's time by
``NOMINAL_S / (mean of the two yardstick times)``: the time the segment would
have taken at the speed at which the yardstick takes ``NOMINAL_S``.

The yardstick is no part of parieq and does not change with it. It does the
three kinds of work the workloads do, in pure Python and small numpy calls:
bisection for the fixed point of a closed-form response map, adaptive Simpson
on a smooth density, and a damped iteration over numpy arrays of 2000 beliefs.
It allocates no cycles and runs with the garbage collector off, so the size
of parieq's heap does not reach it.
"""

import gc
import math
import time

import numpy as np

NOMINAL_S = 0.030  # its time on a 2-core Xeon KVM guest at the faster speed

_BELIEFS = np.linspace(0.0005, 0.9995, 2000)
_WEALTHS = np.full(2000, 1.0 / 2000)


def _cdf(a: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return x ** a * (1.0 + a * (1.0 - x))


def _fixed_point(kappa: float, a: float) -> float:
    lo, hi = 1.0 - kappa, kappa
    for _ in range(52):
        p = 0.5 * (lo + hi)
        d1 = 1.0 - _cdf(a, min(p / kappa, 1.0))
        d2 = _cdf(a, max(1.0 - (1.0 - p) / kappa, 0.0))
        if d1 / (d1 + d2 + 1e-12) > p:
            lo = p
        else:
            hi = p
    return 0.5 * (lo + hi)


def _simpson(f, a, fa, m, fm, b, fb, whole, tol):
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_simpson(f, a, fa, lm, flm, m, fm, left, 0.5 * tol)
            + _simpson(f, m, fm, rm, frm, b, fb, right, 0.5 * tol))


def _integral(width: float) -> float:
    def f(x):
        return math.exp(-0.5 * ((x - 0.4) / width) ** 2) * (1.0 + x * x)
    fa, fm, fb = f(0.0), f(0.5), f(1.0)
    return _simpson(f, 0.0, fa, 0.5, fm, 1.0, fb, (fa + 4.0 * fm + fb) / 6.0, 1e-10)


def _iterate(kappa: float) -> float:
    p = 0.5
    for _ in range(120):
        d1 = float(_WEALTHS[_BELIEFS > p / kappa].sum())
        d2 = float(_WEALTHS[_BELIEFS < 1.0 - (1.0 - p) / kappa].sum())
        p += 0.3 * (d1 / (d1 + d2 + 1e-12) - p)
    return p


def work() -> float:
    """The fixed computation; returns a checksum of its results."""
    total = 0.0
    for i in range(300):
        total += _fixed_point(0.55 + 0.4 * (i % 40) / 40.0, 1.5 + 0.1 * (i % 7))
    for i in range(24):
        total += _integral(0.05 + 0.005 * i)
    for i in range(9):
        total += _iterate(0.6 + 0.04 * i)
    return total


def measure() -> float:
    """Wall time of one ``work()``, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        work()
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()
