"""Adaptive Simpson integration for scalar functions on bounded intervals.

adaptive_simpson integrates to the absolute tolerance QUAD_TOL. simpson_panels
runs an adaptive pass over [0, 1] to a tolerance relative to the integral and
returns the accepted half-panels with their samples, from which from_density
builds its cumulative once.
"""

from typing import Callable

from .errors import QuadratureError

QUAD_TOL = 1e-10
PANEL_TOL = 1e-13  # simpson_panels' tolerance, relative to the integral over [0, 1]
MAX_DEPTH = 40

Panel = tuple[float, float, float, float, float]  # (lo, hi, f(lo), f(mid), f(hi))


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float,
             fb: float) -> tuple[float, float, float]:
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"adaptive Simpson exceeded max depth {MAX_DEPTH} on [{a}, {b}]")
    half = 0.5 * tol
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, half, depth + 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, half, depth + 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate f over [a, b] to absolute tolerance QUAD_TOL.

    Uses recursive Simpson halving with Richardson correction; recursion is
    capped at MAX_DEPTH, beyond which a QuadratureError is raised.
    """
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, b, fb, m, fm, whole, QUAD_TOL, 0)


def _positive_quadratic(f0: float, fm: float, f1: float) -> bool:
    # q(t) = f0 + b t + c t^2 through (0, f0), (1/2, fm), (1, f1); its ends
    # are positive samples, so only a convex q with its vertex inside (0, 1)
    # can dip, and its minimum there is f0 - b^2 / (4c)
    b = 4.0 * fm - 3.0 * f0 - f1
    c = 2.0 * (f0 - 2.0 * fm + f1)
    return c <= 0.0 or b >= 0.0 or -b >= 2.0 * c or b * b < 4.0 * c * f0


def _panels(f, a, fa, b, fb, m, fm, whole, tol, mid_tol, depth, out):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    # the whole panel's quadratic integrated over [a, m] against the left
    # half's Simpson sum: the error of a cumulative read inside a panel,
    # about 16 times that of the half-panels' quadratics
    inside = (b - a) / 24.0 * (5.0 * fa + 8.0 * fm - fb) - left
    if (abs(left + right - whole) <= 15.0 * tol and abs(inside) <= mid_tol
            and _positive_quadratic(fa, flm, fm) and _positive_quadratic(fm, frm, fb)):
        out.append((a, m, fa, flm, fm))
        out.append((m, b, fm, frm, fb))
        return
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"adaptive Simpson exceeded max depth {MAX_DEPTH} on [{a}, {b}]")
    half = 0.5 * tol
    _panels(f, a, fa, m, fm, lm, flm, left, half, mid_tol, depth + 1, out)
    _panels(f, m, fm, b, fb, rm, frm, right, half, mid_tol, depth + 1, out)


def simpson_panels(f: Callable[[float], float]) -> list[Panel]:
    """Accepted half-panels (lo, hi, f(lo), f(mid), f(hi)) covering [0, 1], in order.

    An adaptive Simpson pass to a tolerance of PANEL_TOL times the integral
    I over [0, 1], split between the panels by halving it at each depth as
    adaptive_simpson does. A panel is kept when its Simpson difference is
    within that share, its midpoint cumulative (see _panels) is within
    16 PANEL_TOL I, and the quadratic through each half's three samples is
    positive on that half. The sum of the half-panels' Simpson sums is then
    within about PANEL_TOL I of I, and the integral of the quadratics up to
    any point within about 2 PANEL_TOL I of f's. I is estimated by the first
    Simpson sum; when the pass finds less than half of that estimate, it is
    run again relative to what it found. Recursion beyond MAX_DEPTH raises
    QuadratureError. Every half-panel width is a power of 2.
    """
    fa, fb = f(0.0), f(1.0)
    m, fm, whole = _simpson(f, 0.0, fa, 1.0, fb)
    scale = whole
    while True:
        out: list[Panel] = []
        tol = PANEL_TOL * scale
        _panels(f, 0.0, fa, 1.0, fb, m, fm, whole, tol, 16.0 * tol, 0, out)
        total = sum((hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
                    for lo, hi, flo, fmid, fhi in out)
        if total >= 0.5 * scale:
            return out
        scale = total
