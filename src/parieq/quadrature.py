"""Adaptive Simpson integration for scalar functions on bounded intervals."""

from typing import Callable

from .errors import QuadratureError

QUAD_TOL = 1e-10
MAX_DEPTH = 40


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
