"""Adaptive Simpson integrator: exactness, tolerance, depth guard."""

import math

import numpy as np
import pytest
from scipy import integrate

from parieq.errors import QuadratureError
from parieq.quadrature import PANEL_TOL, adaptive_simpson, simpson_panels


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
