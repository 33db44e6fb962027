"""Adaptive Simpson integrator: exactness, tolerance, depth guard, and its
inline half-panel sums against a reference that calls _simpson per half."""

import math
import re

import numpy as np
import pytest
from scipy import integrate

from parieq.errors import QuadratureError
from parieq.measure import tabulated, wedge
from parieq.quadrature import (MAX_DEPTH, PANEL_TOL, QUAD_TOL, _panels,
                               _positive_quadratic, _simpson, adaptive_simpson,
                               simpson_panels)


def test_exact_for_cubics():
    # Simpson integrates cubics exactly, so no refinement should be needed
    got = adaptive_simpson(lambda x: x**3 - 2 * x + 1, 0.0, 2.0)
    assert got == pytest.approx(2.0**4 / 4 - 4.0 + 2.0, abs=1e-13)


def test_oscillatory_integrand_vs_scipy():
    f = lambda x: math.exp(-x) * math.cos(12 * x)
    want, _ = integrate.quad(f, 0.0, 3.0, limit=200)
    assert adaptive_simpson(f, 0.0, 3.0) == pytest.approx(want, abs=1e-9)


def test_kinked_integrand_converges():
    f = lambda x: abs(x - 1 / 3)
    want = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
    assert adaptive_simpson(f, 0.0, 1.0) == pytest.approx(want, abs=1e-9)


def test_empty_and_reversed_intervals():
    assert adaptive_simpson(lambda x: 1.0, 0.5, 0.5) == 0.0
    assert adaptive_simpson(lambda x: 1.0, 0.7, 0.2) == 0.0


def test_depth_guard_on_discontinuity():
    # a jump never satisfies the halving error estimate: the local error and
    # the per-level tolerance both shrink like 2^-depth
    step = lambda x: 0.0 if x < math.pi / 6 else 1.0
    with pytest.raises(QuadratureError):
        adaptive_simpson(step, 0.0, 1.0)


class TestSimpsonPanels:
    DENSITIES = [lambda x: 1.0 + x * x, lambda x: math.exp(-40.0 * x),
                 lambda x: 1e-20 + (x - 0.3) ** 4]

    @pytest.mark.parametrize("f", DENSITIES)
    def test_panels_tile_the_unit_interval_in_dyadic_steps(self, f):
        panels = simpson_panels(f)
        assert panels[0][0] == 0.0 and panels[-1][1] == 1.0
        assert all(a[1] == b[0] for a, b in zip(panels, panels[1:]))
        for lo, hi, f_lo, f_mid, f_hi in panels:
            assert math.frexp(hi - lo)[0] == 0.5  # a power of 2
            assert (f_lo, f_mid, f_hi) == (f(lo), f(0.5 * (lo + hi)), f(hi))

    @pytest.mark.parametrize("f", DENSITIES)
    def test_every_quadratic_is_positive(self, f):
        t = np.linspace(0.0, 1.0, 1001)
        for _, _, f0, fm, f1 in simpson_panels(f):
            q = f0 + t * (4.0 * fm - 3.0 * f0 - f1) + t * t * 2.0 * (f0 - 2.0 * fm + f1)
            assert q.min() > 0.0

    def test_tolerance_is_relative_to_the_integral(self):
        # the same shape at two scales (powers of 2, so every sum scales
        # exactly): the pass splits both alike
        shape = lambda x: math.exp(-40.0 * x)
        small = simpson_panels(lambda x: 2.0**-40 * shape(x))
        large = simpson_panels(lambda x: 2.0**40 * shape(x))
        assert [p[:2] for p in small] == [p[:2] for p in large]
        total = sum((hi - lo) / 6.0 * (a + 4.0 * b + c) for lo, hi, a, b, c in small)
        want = 2.0**-40 * (1.0 - math.exp(-40.0)) / 40.0
        assert abs(total - want) <= 2 * PANEL_TOL * want

    def test_tolerance_follows_the_integral_not_the_first_estimate(self):
        # the first Simpson sum samples the peak at 0.5 and reads 125 times
        # the integral; relative to it, the pass was off by 7e-13
        f = lambda x: 1e-6 + math.exp(-((x - 0.5) / 0.003) ** 2)
        total = sum((hi - lo) / 6.0 * (a + 4.0 * b + c)
                    for lo, hi, a, b, c in simpson_panels(f))
        want = 1e-6 + 0.003 * math.sqrt(math.pi)
        assert abs(total - want) <= 2 * PANEL_TOL * want

    def test_depth_guard_on_discontinuity(self):
        with pytest.raises(QuadratureError):
            simpson_panels(lambda x: 0.5 if x < math.pi / 6 else 1.0)


# --------------------------------------------------------------------------
# the recursions as written with one _simpson call per half-panel: the
# reference that the inline half-panel sums match bit for bit
# --------------------------------------------------------------------------

def _reference_adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"adaptive Simpson exceeded max depth {MAX_DEPTH} on [{a}, {b}]")
    half = 0.5 * tol
    return (_reference_adaptive(f, a, fa, m, fm, lm, flm, left, half, depth + 1)
            + _reference_adaptive(f, m, fm, b, fb, rm, frm, right, half, depth + 1))


def _reference_adaptive_simpson(f, a, b):
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _reference_adaptive(f, a, fa, b, fb, m, fm, whole, QUAD_TOL, 0)


def _reference_panels(f, a, fa, b, fb, m, fm, whole, tol, mid_tol, depth, out):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
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
    _reference_panels(f, a, fa, m, fm, lm, flm, left, half, mid_tol, depth + 1, out)
    _reference_panels(f, m, fm, b, fb, rm, frm, right, half, mid_tol, depth + 1, out)


def _reference_simpson_panels(f):
    fa, fb = f(0.0), f(1.0)
    m, fm, whole = _simpson(f, 0.0, fa, 1.0, fb)
    scale = whole
    while True:
        out = []
        tol = PANEL_TOL * scale
        _reference_panels(f, 0.0, fa, 1.0, fb, m, fm, whole, tol, 16.0 * tol, 0, out)
        total = sum((hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
                    for lo, hi, flo, fmid, fhi in out)
        if total >= 0.5 * scale:
            return out
        scale = total


def _recorded(f):
    # f and the list of the points it is called at, in order
    seen = []
    return (lambda x: seen.append(x) or f(x)), seen


def _exp_quadratic(a, b):
    # the quadrature_solve workload's smooth density shape
    return lambda p: math.exp(a * p + b * p * p)


INLINE_SEED = 39
_rng = np.random.default_rng(INLINE_SEED)
_SHAPES = {
    **{f"wedge({n})": wedge(n).density for n in (1, 10, 100, 2**20)},
    "tabulated": tabulated([(0.0, 1.0), (0.35, 1.8), (0.7, 0.6), (1.0, 1.2)]).density,
    "exp": _exp_quadratic(float(_rng.uniform(0.2, 0.4)), float(_rng.uniform(-1.0, -0.8))),
}
# each shape alone and under diffuse_subjective_profit's two edge weights at a
# seeded (kappa, p*), over seeded intervals, the whole band, an interval whose
# end is a wedge knee or a knot, an empty and a reversed interval
_INTERVALS = ([tuple(sorted(_rng.uniform(0.0, 1.0, 2).tolist())) for _ in range(6)]
              + [(0.0, 1.0), (2.0**-20, 1.0), (0.1, 1.0), (0.0, 0.35), (0.7, 0.7),
                 (0.7, 0.2)])
# more of the workload's exp-quadratic densities, a and b drawn from its ranges
_EXP_QUADRATICS = [_exp_quadratic(float(a), float(b))
                   for a, b in zip(_rng.uniform(0.2, 0.4, 8), _rng.uniform(-1.0, -0.8, 8))]
_WEIGHTS = [(float(k), float(k * _rng.uniform(0.3, 0.95)))
            for k in _rng.uniform(0.55, 0.95, 2)]


def _integrands():
    for name, dens in _SHAPES.items():
        yield name, dens
        for kappa, p_star in _WEIGHTS:
            yield (f"{name}*edge1({kappa:.3f},{p_star:.3f})",
                   lambda p, d=dens, k=kappa, s=p_star: d(p) * (k * p / s - 1.0))
            yield (f"{name}*edge2({kappa:.3f},{p_star:.3f})",
                   lambda p, d=dens, k=kappa, s=p_star:
                   d(p) * (k * (1.0 - p) / (1.0 - s) - 1.0))


class TestInlineHalfPanels:
    @pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in _integrands()])
    def test_adaptive_simpson_is_the_simpson_call_recursion_bit_for_bit(self, f):
        # same sums and the same density evaluations in order; wedge(2**20)
        # on [0, 0.35] exceeds MAX_DEPTH at its knee on both sides
        for a, b in _INTERVALS:
            got_f, got_at = _recorded(f)
            want_f, want_at = _recorded(f)
            try:
                want = _reference_adaptive_simpson(want_f, a, b)
            except QuadratureError as err:
                with pytest.raises(QuadratureError, match=re.escape(str(err))):
                    adaptive_simpson(got_f, a, b)
            else:
                assert adaptive_simpson(got_f, a, b).hex() == want.hex(), (a, b)
            assert got_at == want_at, (a, b)

    def test_a_deep_kink_raises_on_both_sides(self):
        step = lambda x: 0.0 if x < math.pi / 6 else 1.0
        with pytest.raises(QuadratureError) as want:
            _reference_adaptive_simpson(step, 0.0, 1.0)
        with pytest.raises(QuadratureError, match=re.escape(str(want.value))):
            adaptive_simpson(step, 0.0, 1.0)
        with pytest.raises(QuadratureError) as want:
            _reference_simpson_panels(step)
        with pytest.raises(QuadratureError, match=re.escape(str(want.value))):
            simpson_panels(step)

    @pytest.mark.parametrize("f", [_SHAPES["exp"], *_EXP_QUADRATICS,
                                   *TestSimpsonPanels.DENSITIES])
    def test_simpson_panels_are_the_simpson_call_recursion_bit_for_bit(self, f):
        got = [tuple(x.hex() for x in panel) for panel in simpson_panels(f)]
        assert got == [tuple(x.hex() for x in panel)
                       for panel in _reference_simpson_panels(f)]

    @pytest.mark.parametrize("f", [_SHAPES["exp"], *_EXP_QUADRATICS],
                             ids=lambda f: "exp_quadratic")
    def test_panel_sums_decide_acceptance_to_the_last_bit(self, f):
        # a panel's half sums only decide whether it is kept. At the least
        # tolerance whose 15-fold covers the reference difference
        # |left + right - whole| (positive on these densities, whose
        # quadratics are positive), a panel is kept; a float below, it is
        # split, so a half sum off by an ulp either way moves a panel
        for a, b in _INTERVALS[:7]:
            fa, fb = f(a), f(b)
            m, fm, whole = _simpson(f, a, fa, b, fb)
            left, right = _simpson(f, a, fa, m, fm)[2], _simpson(f, m, fm, b, fb)[2]
            delta = abs(left + right - whole)
            assert delta > 0.0
            tol = delta / 15.0
            while 15.0 * tol < delta:
                tol = math.nextafter(tol, math.inf)
            while 15.0 * math.nextafter(tol, 0.0) >= delta:
                tol = math.nextafter(tol, 0.0)
            kept = []
            for t in (tol, math.nextafter(tol, 0.0)):
                got, want = [], []
                _reference_panels(f, a, fa, b, fb, m, fm, whole, t, math.inf, 0, want)
                _panels(f, a, fa, b, fb, m, fm, whole, t, math.inf, 0, got)
                assert got == want, (a, b)
                kept.append(len(got))
            assert kept[0] == 2 < kept[1], (a, b)
