"""Adaptive Simpson integrator: exactness, tolerance, depth guard."""

import math

import pytest
from scipy import integrate

from parieq.errors import QuadratureError
from parieq.quadrature import adaptive_simpson


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
