"""Wealth-measure families: density values, interval masses, invariants.

Closed-form masses are cross-checked against the in-package adaptive Simpson
integrator and against scipy.integrate.quad as an outside reference.
"""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import parieq.measure as measure_mod
import parieq.quadrature as quadrature_mod
from parieq.equilibrium import _D, solve
from parieq.errors import DomainError, QuadratureError
from parieq.measure import (BeliefMeasure, from_density, gaussian_mixture,
                            mass, scaled, symmetrized_wedge, tabulated,
                            uniform, wedge)
from parieq.quadrature import QUAD_TOL, adaptive_simpson, simpson_panels
from parieq.response import MarketParams


def scipy_mass(density, lo, hi, points=None):
    val, _ = integrate.quad(density, lo, hi, points=points, limit=300)
    return val


# Gaussian mixtures whose means lie below 0, inside [0, 1] and above 1, so
# that their masses and moments take every erf/erfc branch
_WRITTEN_OUT_MIXTURES = [
    ([1.0, 0.5], [0.3, 0.75], [0.15, 0.1]),
    ([0.3, 1.2, 0.7], [-0.4, 0.5, 1.6], [0.2, 0.05, 0.3]),
    ([1.0, 2.0], [0.0, 1.0], [0.1, 0.3]),
    ([1.0, 0.5], [-2.0, 3.0], [0.5, 0.7]),
]


def _written_out_points(means):
    # both signed zeros, which a set or sort would merge, the band ends, the
    # means inside (0, 1] and seeded draws
    return [-0.0, 0.0] + sorted({5e-324, 0.05, 0.5, math.nextafter(1.0, 0.0), 1.0,
                                 *(mu for mu in means if 0.0 < mu <= 1.0),
                                 *np.random.default_rng(9).uniform(0.0, 1.0, 40).tolist()})


def _written_out_erf_sum(coefs, means, stddevs, lo, hi):
    # the sum over kernels of coef * (erf(z(hi)) - erf(z(lo))), from +0.0,
    # with erfc on a tail whose far end has |z| > 0.5
    out = 0.0
    for c, mu, sd in zip(coefs, means, stddevs):
        width = sd * math.sqrt(2.0)
        a, b = (lo - mu) / width, (hi - mu) / width
        if a < -0.5 and b < 0.0:
            out += c * (math.erfc(-b) - math.erfc(-a))
        elif b > 0.5 and a > 0.0:
            out += c * (math.erfc(a) - math.erfc(b))
        else:
            out += c * (math.erf(b) - math.erf(a))
    return out


class TestWedgeDensity:
    def test_order_one_is_uniform(self):
        assert wedge(1).density(0.7) == 1.0
        assert wedge(1).density(0.0) == 1.0

    def test_ramp_value_at_zero(self):
        assert wedge(3).density(0.0) == pytest.approx(4 + 1 / 3, abs=1e-12)

    def test_flat_branch(self):
        assert wedge(3).density(0.5) == pytest.approx(1 / 3, abs=1e-15)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            wedge(0)
        with pytest.raises(DomainError):
            wedge(True)  # a bool is an int, but not an order

    @pytest.mark.parametrize("n", [np.True_, 10.0, np.float64(10.0)], ids=repr)
    @pytest.mark.parametrize("family", [wedge, symmetrized_wedge])
    def test_rejects_an_order_that_is_not_an_integer(self, family, n):
        with pytest.raises(DomainError, match="integer"):
            family(n)

    @pytest.mark.parametrize("n", [10, 2**53], ids=["10", "2**53"])
    @pytest.mark.parametrize("family", [wedge, symmetrized_wedge])
    def test_a_numpy_order_is_taken_as_a_python_int(self, family, n):
        # np.int64's n(n - 1) overflows near 2**53; the order's Python int
        # keeps the constants, and so every bit
        m, want = family(np.int64(n)), family(n)
        assert m.kind == want.kind and m.floor == want.floor
        ps = [0.0, 1e-17, 0.5 / n, 1.0 / n, 0.3, 1.0]
        assert ([m.exact_mass(0.0, p).hex() for p in ps]
                == [want.exact_mass(0.0, p).hex() for p in ps])
        assert [m.density(p).hex() for p in ps] == [want.density(p).hex() for p in ps]


class TestSymmetrizedWedgeDensity:
    def test_center_value(self):
        # both arguments land on the flat branch
        assert symmetrized_wedge(100).density(0.5) == pytest.approx(0.01, abs=1e-15)

    def test_order_one_uniform(self):
        for p in (0.0, 0.3, 1.0):
            assert symmetrized_wedge(1).density(p) == 1.0

    def test_edge_value(self):
        expected = 0.5 * (198.01 + 0.01)
        assert symmetrized_wedge(100).density(0.0) == pytest.approx(expected, rel=1e-12)

    def test_mirror_symmetry(self):
        m = symmetrized_wedge(7)
        for p in (0.1, 0.25, 0.4):
            assert m.density(p) == pytest.approx(m.density(1 - p), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 2**20, 2**53])
    def test_one_wedge_call_gives_the_two_calls_bits(self, n):
        # at most one of p and 1 - p lies below the knee 1/n <= 0.5, so the
        # density asks the wedge only there and adds the cut for the other
        wedge_density, cut = measure_mod._wedge_density(n), 1.0 / n
        ps = {0.0, 0.5, 1.0, cut, 1.0 - cut,
              *np.random.default_rng(41).uniform(0.0, 1.0, 500).tolist()}
        for knee in (cut, 1.0 - cut):
            below = above = knee
            for _ in range(3):
                below, above = math.nextafter(below, -1.0), math.nextafter(above, 2.0)
                ps |= {below, above}
        ps = sorted(p for p in ps if 0.0 <= p <= 1.0)
        m = symmetrized_wedge(n)
        assert [m.density(p).hex() for p in ps] \
            == [(0.5 * (wedge_density(p) + wedge_density(1.0 - p))).hex() for p in ps]


# The wedge formulas written out in full, one evaluation per call. The
# families precompute their constants, and their closures must still give
# these bits: every committed sweep reference digit depends on them.
def _reference_wedge_cumulative(n, p):
    cut = 1.0 / n
    if p <= cut:
        return -n * (n - 1) * p * p + (2.0 * (n - 1) + cut) * p
    head = (n - 1) / n + cut * cut
    return head + (p - cut) * cut


def _reference_wedge_density(n, p):
    if p < 1.0 / n:
        return -2.0 * n * (n - 1) * p + 2.0 * (n - 1) + 1.0 / n
    return 1.0 / n


def _reference_wedge_mass(n, lo, hi):
    return _reference_wedge_cumulative(n, hi) - _reference_wedge_cumulative(n, lo)


REFERENCE_WEDGES = {
    "wedge": (wedge, _reference_wedge_mass, _reference_wedge_density),
    "symmetrized_wedge": (
        symmetrized_wedge,
        lambda n, lo, hi: 0.5 * (_reference_wedge_mass(n, lo, hi)
                                 + _reference_wedge_mass(n, 1.0 - hi, 1.0 - lo)),
        lambda n, p: 0.5 * (_reference_wedge_density(n, p)
                            + _reference_wedge_density(n, 1.0 - p))),
}


def _wedge_test_points(n):
    # the ends, 3 floats either side of both knees, 200 seeded draws
    points = {0.0, 1.0, *np.random.default_rng(2).uniform(0.0, 1.0, 200).tolist()}
    for knee in (1.0 / n, 1.0 - 1.0 / n):
        below = above = knee
        points.add(knee)
        for _ in range(3):
            below, above = math.nextafter(below, -1.0), math.nextafter(above, 2.0)
            points |= {below, above}
    return sorted(p for p in points if 0.0 <= p <= 1.0)


class TestWedgeFormulasBitForBit:
    @pytest.mark.parametrize("n", [1, 2, 10, 100, 2**40, 2**53])
    @pytest.mark.parametrize("family", sorted(REFERENCE_WEDGES))
    def test_mass_and_density_match_the_written_out_formulas(self, family, n):
        build, ref_mass, ref_density = REFERENCE_WEDGES[family]
        m, ps = build(n), _wedge_test_points(n)
        intervals = ([(0.0, p) for p in ps] + [(p, 1.0) for p in ps]
                     + list(zip(ps, ps[1:])))
        assert ([m.exact_mass(lo, hi).hex() for lo, hi in intervals]
                == [ref_mass(n, lo, hi).hex() for lo, hi in intervals])
        assert ([m.density(p).hex() for p in ps]
                == [ref_density(n, p).hex() for p in ps])


class TestGaussianMixtureDensity:
    def test_single_kernel_peak(self):
        got = gaussian_mixture([1.0], [0.5], [0.1]).density(0.5)
        assert got == pytest.approx(stats.norm.pdf(0.5, 0.5, 0.1), rel=1e-12)
        assert got == pytest.approx(1 / (0.1 * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_symmetric_pair(self):
        m = gaussian_mixture([1.0, 1.0], [0.3, 0.7], [0.1, 0.1])
        for p in (0.1, 0.42, 0.9):
            assert m.density(p) == pytest.approx(m.density(1 - p), rel=1e-12)

    def test_two_kernel_value_vs_scipy(self):
        got = gaussian_mixture([1.0, 1.0], [0.2, 0.8], [0.05, 0.05]).density(0.2)
        want = stats.norm.pdf(0.2, 0.2, 0.05) + stats.norm.pdf(0.2, 0.8, 0.05)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(7.9788456, abs=5e-7)

    @pytest.mark.parametrize("weights, means, stddevs", [
        ([1.0, 0.5], [0.3, 0.75], [0.15, 0.1]),
        ([1.1, 0.9, 1.05], [0.21, 0.49, 0.8], [0.25, 0.3, 0.24]),
    ])
    def test_density_matches_the_written_out_formula(self, weights, means, stddevs):
        # the family precomputes each kernel's coefficient; the sum written
        # out term by term must give the same bits
        def written_out(p):
            out = 0.0
            for wgt, mu, sd in zip(weights, means, stddevs):
                z = (p - mu) / sd
                out += wgt * measure_mod._INV_SQRT_2PI / sd * math.exp(-0.5 * z * z)
            return out

        m = gaussian_mixture(weights, means, stddevs)
        ps = [0.0, 1.0, *means, *np.random.default_rng(5).uniform(0.0, 1.0, 200).tolist()]
        assert [m.density(p).hex() for p in ps] == [written_out(p).hex() for p in ps]

    @pytest.mark.parametrize("weights, means, stddevs", _WRITTEN_OUT_MIXTURES)
    def test_mass_matches_the_written_out_formula(self, weights, means, stddevs):
        # the family takes each kernel's erf or erfc at the band ends 0.0
        # and 1.0 as at any other bound; every mass written out kernel by
        # kernel must give the same bits, on means below 0, inside [0, 1]
        # and above 1, which take each branch, mirrored kernels included.
        # erfc serves a tail whose far end has |z| > 0.5, erf the rest
        def written_out(lo, hi):
            return _written_out_erf_sum([0.5 * wgt for wgt in weights], means, stddevs,
                                        lo, hi)

        m = gaussian_mixture(weights, means, stddevs)
        ps = _written_out_points(means)
        pairs = [(lo, hi) for lo in ps for hi in ps if lo <= hi]
        want = [written_out(lo, hi).hex() for lo, hi in pairs]
        assert [m.exact_mass(lo, hi).hex() for lo, hi in pairs] == want
        los, his = (np.array(x) for x in zip(*pairs))
        assert [x.hex() for x in m.exact_mass_array(los, his).tolist()] == want
        # the band ends as floats, as _D_lanes and discretize pass them
        tops, bottoms = np.array(ps), np.array(ps)
        assert ([x.hex() for x in m.exact_mass_array(tops, 1.0).tolist()]
                == [written_out(lo, 1.0).hex() for lo in ps])
        assert ([x.hex() for x in m.exact_mass_array(0.0, bottoms).tolist()]
                == [written_out(0.0, hi).hex() for hi in ps])

    @pytest.mark.parametrize("weights, means, stddevs", _WRITTEN_OUT_MIXTURES)
    def test_moment_matches_the_written_out_formula(self, weights, means, stddevs):
        # the mass's erf sum with w mu / 2 as each kernel's coefficient, then
        # each kernel's bump w sd/sqrt(2 pi) (exp(-a^2) - exp(-b^2)), taken
        # as the exp at the end nearer the mean times an expm1
        def written_out(lo, hi):
            out = _written_out_erf_sum([0.5 * wgt * mu for wgt, mu in zip(weights, means)],
                                       means, stddevs, lo, hi)
            for wgt, mu, sd in zip(weights, means, stddevs):
                width = sd * math.sqrt(2.0)
                a, b = (lo - mu) / width, (hi - mu) / width
                c = wgt * sd * measure_mod._INV_SQRT_2PI
                rise = (hi - lo) / width * (a + b)
                if rise >= 0.0:
                    out -= c * math.exp(-a * a) * math.expm1(-rise)
                else:
                    out += c * math.exp(-b * b) * math.expm1(rise)
            return out

        m = gaussian_mixture(weights, means, stddevs)
        ps = _written_out_points(means)
        pairs = [(lo, hi) for lo in ps for hi in ps if lo <= hi]
        assert ([m.exact_moment(lo, hi).hex() for lo, hi in pairs]
                == [written_out(lo, hi).hex() for lo, hi in pairs])

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            gaussian_mixture([1.0, -1.0], [0.2, 0.8], [0.1, 0.1])
        with pytest.raises(DomainError):
            gaussian_mixture([1.0], [0.2], [0.0])


class TestMass:
    def test_wedge_total_mass_is_one(self):
        for n in range(1, 101):
            assert wedge(n).total_mass == pytest.approx(1.0, abs=QUAD_TOL)

    def test_uniform_subinterval(self):
        assert mass(wedge(1), 0.25, 0.75) == pytest.approx(0.5, abs=1e-14)

    def test_degenerate_interval(self):
        m = wedge(5)
        assert mass(m, 0.3, 0.3) == 0.0

    def test_domain_errors(self):
        m = uniform()
        with pytest.raises(DomainError):
            mass(m, 0.5, 0.2)
        with pytest.raises(DomainError):
            mass(m, -0.1, 0.5)
        with pytest.raises(DomainError):
            mass(m, 0.5, 1.1)

    @pytest.mark.parametrize("build", [
        lambda: tabulated([(0.0, 1e308), (1.0, 1e308)]),
        lambda: gaussian_mixture([1e308, 1e308], [0.3, 0.7], [0.2, 0.2]),
        lambda base=scaled(uniform(), 1e308): scaled(base, 2.0),  # base built beforehand
    ], ids=["tabulated", "gaussian_mixture", "scaled"])
    def test_infinite_total_mass_rejected(self, build):
        # every density value is positive, but the mass overflows
        with pytest.raises(DomainError, match="total mass must be finite"):
            build()

    @pytest.mark.parametrize("n", [1, 3, 10, 100])
    def test_closed_form_matches_quadrature(self, n):
        m = wedge(n)
        for lo, hi in [(0.0, 1.0), (0.0, 0.003), (0.001, 0.5), (0.35, 0.9)]:
            exact = mass(m, lo, hi)
            quad = adaptive_simpson(m.density, lo, hi)
            ref = scipy_mass(m.density, lo, hi,
                             points=[1 / n] if lo < 1 / n < hi else None)
            assert exact == pytest.approx(quad, abs=5 * QUAD_TOL)
            assert exact == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 100])
    def test_symmetrized_closed_form_matches_quadrature(self, n):
        m = symmetrized_wedge(n)
        for lo, hi in [(0.0, 1.0), (0.0, 0.02), (0.4, 0.99)]:
            exact = mass(m, lo, hi)
            quad = adaptive_simpson(m.density, lo, hi)
            assert exact == pytest.approx(quad, abs=5 * QUAD_TOL)

    def test_gaussian_mixture_mass_vs_normal_cdf(self):
        m = gaussian_mixture([0.7, 1.3], [0.35, 0.6], [0.2, 0.15])
        for lo, hi in [(0.0, 1.0), (0.2, 0.5), (0.0, 0.1)]:
            want = (0.7 * (stats.norm.cdf(hi, 0.35, 0.2) - stats.norm.cdf(lo, 0.35, 0.2))
                    + 1.3 * (stats.norm.cdf(hi, 0.6, 0.15) - stats.norm.cdf(lo, 0.6, 0.15)))
            assert mass(m, lo, hi) == pytest.approx(want, abs=1e-9)


class TestTabulated:
    def test_linear_interpolation(self):
        m = tabulated([(0.0, 1.0), (0.5, 3.0), (1.0, 1.0)])
        assert m.density(0.25) == pytest.approx(2.0, rel=1e-14)
        assert m.density(0.5) == pytest.approx(3.0, rel=1e-14)

    def test_mass_matches_trapezoid(self):
        knots = [(0.0, 1.0), (0.2, 0.5), (0.7, 2.0), (1.0, 1.5)]
        m = tabulated(knots)
        # trapezoid rule is exact for a piecewise-linear density
        want = 0.0
        for (x0, v0), (x1, v1) in zip(knots, knots[1:]):
            want += 0.5 * (v0 + v1) * (x1 - x0)
        assert m.total_mass == pytest.approx(want, abs=1e-9)

    def test_rejects_bad_knots(self):
        with pytest.raises(DomainError):
            tabulated([(0.0, 1.0), (0.5, 0.0), (1.0, 1.0)])  # nonpositive value
        with pytest.raises(DomainError):
            tabulated([(0.1, 1.0), (1.0, 1.0)])  # does not start at 0
        with pytest.raises(DomainError):
            tabulated([(0.0, 1.0), (0.4, 1.0), (0.4, 2.0), (1.0, 1.0)])  # ties
        with pytest.raises(DomainError):
            tabulated([(0.0, 1.0)])  # single knot

    @pytest.mark.parametrize("knots", [
        # the piece from 1e-310 rises by 1e10 over 1e-300: its slope overflows,
        # and the cumulative at 1e-310 would be 0 * inf = NaN
        [(0.0, 1.0), (1e-310, 1.0), (1e-300, 1e10), (1.0, 1.0)],
        [(0.0, 1.0), (1e-300, 1e10), (1.0, 1.0)],  # the same on the first piece
        [(0.0, 1e10), (1e-300, 1.0), (1.0, 1.0)],  # ... and falling
    ])
    def test_rejects_a_piece_whose_slope_overflows(self, knots):
        with pytest.raises(DomainError, match="slope overflows"):
            tabulated(knots)


class TestClosedForms:
    """Tabulated and mixture masses against scipy, to near float resolution."""

    KNOTS = [(0.0, 0.8), (0.27, 1.6), (0.5, 0.7), (0.73, 1.5), (1.0, 1.1)]

    def test_tabulated_matches_scipy_on_subintervals(self):
        m = tabulated(self.KNOTS)
        xs = [x for x, _ in self.KNOTS]
        rng = np.random.default_rng(0)
        intervals = [tuple(sorted(rng.uniform(0.0, 1.0, 2))) for _ in range(40)]
        # ends exactly at knots, including 0 and 1
        intervals += [(0.0, 1.0), (0.0, 0.27), (0.27, 0.5), (0.5, 1.0),
                      (0.0, 0.4), (0.6, 1.0), (0.27, 0.9), (0.1, 0.73),
                      (0.73, 0.73 + 1e-9), (1.0 - 1e-9, 1.0)]
        for lo, hi in intervals:
            inner = [x for x in xs if lo < x < hi] or None
            want, _ = integrate.quad(m.density, lo, hi, points=inner,
                                     epsabs=1e-14, epsrel=1e-13, limit=300)
            assert mass(m, lo, hi) == pytest.approx(want, abs=1e-13), (lo, hi)

    def test_mixture_far_tails_match_normal_cdf(self):
        weights, means, sds = (0.9, 1.4), (0.45, 0.55), (0.03, 0.02)
        m = gaussian_mixture(weights, means, sds)
        # both ends beyond mu +- 6 sd for every kernel
        for lo, hi in [(0.0, 0.2), (0.1, 0.25), (0.0, 1e-3),
                       (0.7, 1.0), (0.8, 0.95), (0.999, 1.0)]:
            want = 0.0
            for w, mu, sd in zip(weights, means, sds):
                assert min(abs(lo - mu), abs(hi - mu)) > 6 * sd
                if hi < mu:
                    want += w * (stats.norm.cdf(hi, mu, sd) - stats.norm.cdf(lo, mu, sd))
                else:
                    want += w * (stats.norm.sf(lo, mu, sd) - stats.norm.sf(hi, mu, sd))
            assert mass(m, lo, hi) == pytest.approx(want, abs=1e-13), (lo, hi)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(upper=st.booleans(), width=st.floats(0.005, 0.09),
           frac=st.floats(0.0, 1.0))
    def test_mixture_same_side_tails_keep_relative_accuracy(self, upper, width, frac):
        # on a far tail erf(hi) - erf(lo) cancels to 0.0, though the floor
        # proves a mass of at least 1e-42 on any interval 4e-4 wide; with
        # both ends on one side of every mean the mass is a same-side tail
        # difference, and no cancellation happens there
        weights, means, sds = (1.0, 1.0), (0.7, 0.9), (0.05, 0.05)
        m = gaussian_mixture(weights, means, sds)
        a, b = (0.9, 1.0) if upper else (0.0, 0.7)  # one side of both means
        lo = a + 1e-9 + frac * (b - a - 2e-9 - width)
        hi = lo + width
        want = 0.0
        for w, mu, sd in zip(weights, means, sds):
            assert (lo > mu) if upper else (hi < mu)
            if upper:
                want += w * (stats.norm.sf(lo, mu, sd) - stats.norm.sf(hi, mu, sd))
            else:
                want += w * (stats.norm.cdf(hi, mu, sd) - stats.norm.cdf(lo, mu, sd))
        assert want > 0.0
        assert mass(m, lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0), (lo, hi)


class TestScaled:
    def test_density_and_mass_scale(self):
        base = wedge(100)
        half = scaled(base, 0.5)
        assert half.total_mass == pytest.approx(0.5 * base.total_mass, rel=1e-12)
        assert half.density(0.3) == pytest.approx(0.5 * base.density(0.3), rel=1e-14)
        assert mass(half, 0.2, 0.9) == pytest.approx(
            0.5 * mass(base, 0.2, 0.9), rel=1e-12)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(DomainError):
            scaled(uniform(), 0.0)


def _near_knees() -> list[float]:
    # three floats either side of each wedge knee and tabulated knot in the
    # zoo, and of the steep tabulated density's knot at 0.5, with the
    # mirrored knee of symmetrized_wedge(100) included
    near = []
    for knee in (1.0 / 10, 1.0 / 100, 1.0 - 1.0 / 100, 0.3, 0.5):
        down = up = knee
        for _ in range(3):
            down, up = math.nextafter(down, 0.0), math.nextafter(up, 1.0)
            near += [down, up]
        near.append(knee)
    return near


def _family_zoo() -> list[BeliefMeasure]:
    return [
        uniform(),
        wedge(1),
        wedge(10),
        wedge(100),
        symmetrized_wedge(100),
        gaussian_mixture([1.0, 0.5], [0.3, 0.75], [0.15, 0.1]),
        tabulated([(0.0, 0.5), (0.3, 2.0), (1.0, 1.0)]),
        scaled(wedge(100), 0.5),
    ]


# the 64 floats below 1, where _D takes d1 at a candidate within a few ulps
# of kappa
_BELOW_ONE = [math.nextafter(1.0, 0.0)]
for _ in range(63):
    _BELOW_ONE.append(math.nextafter(_BELOW_ONE[-1], 0.0))

# tabulated measures drawn from numpy seed 0: 2 to 6 knots, interior knots
# uniform in (0, 1), values uniform in [0.001, 2). Without each piece's cap
# at its right knot's cumulative, 36 of them have a negative tail mass on
# _BELOW_ONE, at worst -4.0e-16 of the total
TAIL_FUZZ_SEED, TAIL_FUZZ_MEASURES = 0, 4000


def _tail_fuzz_measures():
    rng = np.random.default_rng(TAIL_FUZZ_SEED)
    for _ in range(TAIL_FUZZ_MEASURES):
        k = int(rng.integers(2, 7))
        xs = [0.0, *np.sort(rng.uniform(0.0, 1.0, k - 2)).tolist(), 1.0]
        yield tabulated(list(zip(xs, rng.uniform(0.001, 2.0, k).tolist())))


class TestInvariants:
    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_positivity_on_fine_grid(self, m):
        assert min(m.density(i / 10_000) for i in range(10_001)) > 0.0

    @pytest.mark.parametrize("m", [
        *(pytest.param(m, id=f"zoo{i}-{m.kind}") for i, m in enumerate(_family_zoo())),
        pytest.param(tabulated([(0.0, 1.0), (1.0, 0.001)]), id="falling-2-knots"),
        pytest.param(tabulated([(0.0, 1.0), (0.5, 1.0), (1.0, 0.001)]), id="falling-3-knots"),
    ])
    def test_tail_masses_below_one_are_not_negative(self, m):
        negative = [(x, mass(m, x, 1.0)) for x in _BELOW_ONE if not mass(m, x, 1.0) >= 0.0]
        assert not negative, negative[:4]

    def test_tabulated_tail_masses_below_one_are_not_negative_on_the_fuzz(self):
        negative = [(m.kind, x, mass(m, x, 1.0)) for m in _tail_fuzz_measures()
                    for x in _BELOW_ONE if not mass(m, x, 1.0) >= 0.0]
        assert not negative, (len(negative), negative[:4])

    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_total_mass_matches_quadrature(self, m):
        assert m.total_mass == pytest.approx(
            adaptive_simpson(m.density, 0.0, 1.0), abs=5 * QUAD_TOL)

    @pytest.mark.parametrize("kappa", [0.55, 0.8, 0.95])
    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_d1_falls_and_d2_rises_across_the_band(self, m, kappa):
        band = np.linspace(1.0 - kappa, kappa, 401).tolist()
        d1, d2 = zip(*(_D(p, kappa, m) for p in band))
        assert all(b <= a for a, b in zip(d1, d1[1:]))
        assert all(a <= b for a, b in zip(d2, d2[1:]))

    @pytest.mark.parametrize("m", [*_family_zoo(), from_density(lambda p: 1.0 + p * p)],
                             ids=lambda m: m.kind)
    def test_scaling_multiplies_every_mass_exactly(self, m):
        tripled = scaled(m, 3.0)
        for lo, hi in [(0.0, 1.0), (0.0, 0.003), (0.001, 0.5), (0.35, 0.9), (0.4, 0.4)]:
            assert mass(tripled, lo, hi) == 3.0 * mass(m, lo, hi)
        assert tripled.total_mass == 3.0 * m.total_mass

    @pytest.mark.parametrize("m", [*_family_zoo(), from_density(lambda p: 1.0 + p * p),
                                   wedge(2**53), symmetrized_wedge(2**40),
                                   scaled(gaussian_mixture([1.0], [0.5], [0.3]), 3.0)],
                             ids=lambda m: m.kind)
    def test_array_mass_is_the_scalar_mass_bit_for_bit(self, m):
        rng = np.random.default_rng(7)
        lo, hi = np.sort(rng.uniform(0.0, 1.0, (2, 200)), axis=0)
        # interval ends the solver reaches: 0, 1, knots and the wedge knee
        lo[:4], hi[4:8] = 0.0, 1.0
        lo[8:12], hi[8:12] = [0.1, 0.0, 0.0, 0.25], [0.3, 0.01, 1e-13, 0.5]
        got = m.exact_mass_array(lo, hi)
        assert got.dtype == np.float64 and got.shape == lo.shape
        want = [m.exact_mass(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]

    @pytest.mark.parametrize("m", [*_family_zoo(), from_density(lambda p: 1.0 + p * p)],
                             ids=lambda m: m.kind)
    def test_float_lower_bound_broadcasts_bit_for_bit(self, m):
        # discretize passes the float 0.0 as the lower bound; it must give
        # the bits of an array of zeros, lane by lane
        rng = np.random.default_rng(11)
        for x in (np.arange(2001) / 2000, rng.uniform(0.0, 1.0, 1000), np.array(_near_knees())):
            got = m.exact_mass_array(0.0, x)
            assert got.dtype == np.float64 and got.shape == x.shape
            assert got.tobytes() == m.exact_mass_array(np.zeros_like(x), x).tobytes()

    @pytest.mark.parametrize("m", [*_family_zoo(), from_density(lambda p: 1.0 + p * p)],
                             ids=lambda m: m.kind)
    def test_float_upper_bound_broadcasts_bit_for_bit(self, m):
        # the grid solver's _D_lanes passes the float 1.0 as d1's upper
        # bound; it must give the bits of an array of ones, lane by lane
        rng = np.random.default_rng(17)
        for x in (np.arange(2001) / 2000, rng.uniform(0.0, 1.0, 1000), np.array(_near_knees())):
            got = m.exact_mass_array(x, 1.0)
            assert got.dtype == np.float64 and got.shape == x.shape
            assert got.tobytes() == m.exact_mass_array(x, np.ones_like(x)).tobytes()

    @pytest.mark.parametrize("m", [*_family_zoo(), from_density(lambda p: 1.0 + p * p),
                                   tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)])],
                             ids=lambda m: m.kind)
    def test_empty_interval_mass_is_positive_zero(self, m):
        # mass() and the grid solver's _D_lanes ask the measure itself for
        # the mass of [x, x], which the band's ends reach at 0 and 1; this is
        # the only check that every measure answers +0.0 there, and on every
        # pair of signed zeros, which mass() accepts
        xs = [0.0, 1.0, *_near_knees(), *np.random.default_rng(13).uniform(0.0, 1.0, 200).tolist()]
        positive_zero = lambda v: v == 0.0 and math.copysign(1.0, v) == 1.0
        for x in xs:
            assert positive_zero(m.exact_mass(x, x)), x
        a = np.array(xs)
        for got in (m.exact_mass_array(a, a), m.exact_mass_array(0.0, np.zeros(len(xs)))):
            assert got.dtype == np.float64 and got.shape == a.shape
            assert all(map(positive_zero, got.tolist()))
        for lo, hi in itertools.product((0.0, -0.0), repeat=2):
            assert positive_zero(mass(m, lo, hi)), (lo, hi)
            for got in (m.exact_mass_array(np.array([lo]), np.array([hi])),
                        m.exact_mass_array(lo, np.array([hi])),
                        m.exact_mass_array(np.array([lo]), hi)):
                assert got.shape == (1,) and positive_zero(got.item()), (lo, hi)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=st.floats(0.0, 1.0), idx=st.integers(0, 7))
    def test_additivity_at_any_split(self, a, idx):
        m = _family_zoo()[idx]
        lhs = mass(m, 0.0, a) + mass(m, a, 1.0)
        assert lhs == pytest.approx(m.total_mass, abs=2 * QUAD_TOL)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0),
           u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0), idx=st.integers(0, 7))
    def test_mass_monotone_in_interval(self, lo, hi, u, v, idx):
        lo, hi = sorted((lo, hi))
        # [lo2, hi2] nested inside [lo, hi] by construction
        lo2 = lo + u * (hi - lo)
        hi2 = lo2 + v * (hi - lo2)
        m = _family_zoo()[idx]
        assert mass(m, lo2, hi2) <= mass(m, lo, hi) + QUAD_TOL


def _plain_interval_masses(cum, cum_array=None):
    # _interval_masses without its band-end constants: cum(hi) - cum(lo)
    exact = lambda lo, hi: cum(hi) - cum(lo)
    return exact, None if cum_array is None else (
        lambda lo, hi: cum_array(hi) - cum_array(lo))


_DIFFERENCE_FAMILIES = [
    ("uniform", uniform), ("wedge(1)", lambda: wedge(1)), ("wedge(10)", lambda: wedge(10)),
    ("wedge(100)", lambda: wedge(100)), ("wedge(2**53)", lambda: wedge(2**53)),
    ("symmetrized_wedge(100)", lambda: symmetrized_wedge(100)),
    ("symmetrized_wedge(2**40)", lambda: symmetrized_wedge(2**40)),
    ("tabulated_v", lambda: tabulated([(0.0, 1e6), (0.5, 1e-6), (1.0, 1e6)])),
    ("from_density", lambda: from_density(lambda p: 1.0 + p * p)),
]
# the signed zeros, the least subnormal, knots, each wedge knee and its
# mirror, and the floats at and below 1
_BAND_END_POINTS = [-0.0, 0.0, 5e-324, 0.25, 0.5, 1.0 / 10, 1.0 / 100, 2.0**-40, 2.0**-53,
                    1.0 - 1.0 / 100, 1.0 - 2.0**-40, math.nextafter(1.0, 0.0), 1.0]


class TestBandEndConstants:
    """Each cumulative-difference family's mass is the plain difference's float.

    The families take cum(1.0) once and cum(hi) + 0.0 for a zero lower
    bound; that is cum(hi) - cum(lo) bit for bit, except that a zero comes
    out +0.0.
    """

    @pytest.mark.parametrize("scale", [None, 0.75])
    @pytest.mark.parametrize("build", [b for _, b in _DIFFERENCE_FAMILIES],
                             ids=[name for name, _ in _DIFFERENCE_FAMILIES])
    def test_mass_is_the_plain_difference(self, monkeypatch, build, scale):
        m = build()
        with monkeypatch.context() as patch:
            patch.setattr(measure_mod, "_interval_masses", _plain_interval_masses)
            plain = build()
        if scale is not None:
            m, plain = scaled(m, scale), scaled(plain, scale)
        # indices, not floats, key the pairs: -0.0 and 0.0 are one dict key
        pts = _BAND_END_POINTS
        pairs = [(i, j) for i, lo in enumerate(pts) for j, hi in enumerate(pts) if lo <= hi]
        want = {(i, j): (plain.exact_mass(pts[i], pts[j]) + 0.0).hex() for i, j in pairs}
        assert m.total_mass.hex() == plain.total_mass.hex()
        for i, j in pairs:
            assert mass(m, pts[i], pts[j]).hex() == want[i, j], (pts[i], pts[j])
        los, his = (np.array([pts[k] for k in side]) for side in zip(*pairs))
        got = m.exact_mass_array(los, his).tolist()
        assert [x.hex() for x in got] == [want[pair] for pair in pairs]
        for k, x in enumerate(pts):  # a float bound on either side
            above = [j for j, hi in enumerate(pts) if x <= hi]
            below = [i for i, lo in enumerate(pts) if lo <= x]
            got = m.exact_mass_array(x, np.array([pts[j] for j in above])).tolist()
            assert [v.hex() for v in got] == [want[k, j] for j in above], x
            got = m.exact_mass_array(np.array([pts[i] for i in below]), x).tolist()
            assert [v.hex() for v in got] == [want[i, k] for i in below], x


class TestPositivity:
    """Positivity is proven from the parameters where it can be, else sampled."""

    @pytest.mark.parametrize("build, scans", [
        (lambda: wedge(100), 0),
        (lambda: symmetrized_wedge(100), 0),
        (lambda: uniform(), 0),
        (lambda: tabulated([(0.0, 0.5), (0.3, 2.0), (1.0, 1.0)]), 0),
        (lambda: from_density(lambda p: 1.0 + p), 1),
        (lambda: gaussian_mixture([1.0, 0.5], [0.3, 0.75], [0.15, 0.1]), 0),
        (lambda base=wedge(100): scaled(base, 2.0), 0),  # base built beforehand
        # an unproven base leaves the product unproven
        (lambda base=from_density(lambda p: 1.0 + p): scaled(base, 2.0), 1),
        # both kernels underflow at their far ends; the scan finds it positive
        (lambda: gaussian_mixture([1, 1], [0.02, 0.98], [0.02, 0.02]), 1),
    ], ids=["wedge", "symmetrized_wedge", "uniform", "tabulated",
            "from_density", "gaussian_mixture", "scaled", "scaled_from_density",
            "gaussian_mixture_far_underflow"])
    def test_density_scans_per_construction(self, monkeypatch, build, scans):
        calls = []
        real = measure_mod._validate_density

        def counted(density, kind):
            calls.append(kind)
            return real(density, kind)

        monkeypatch.setattr(measure_mod, "_validate_density", counted)
        build()
        assert len(calls) == scans

    @pytest.mark.parametrize("build", [
        lambda: gaussian_mixture([1], [0.5], [0.005]),  # underflows at p = 0
        # the first coefficient overflows, so at p = 0 its term is inf * 0.0 = NaN
        lambda: gaussian_mixture([1e300, 1e300], [0.5, 0.5], [1e-10, 0.2]),
        lambda: scaled(wedge(100), 5e-324),  # underflows beyond the knee
        lambda: wedge(10**200),
        lambda: symmetrized_wedge(10**200),
        lambda: wedge(2**53 + 1),
        # on the piece ending at 0.75 + 2**-53, p = 0.75 gives t = 1 (p - 2**-54
        # and the piece width round alike) and the interpolant rounds to 0.0
        lambda: tabulated([(0.0, 1.0), (2.0**-54, 1.0), (0.75 + 2.0**-53, 1e-300),
                           (1.0, 1.0)]),
    ], ids=["gaussian_mixture", "gaussian_mixture_nan", "scaled", "wedge",
            "symmetrized_wedge", "wedge_above_2**53", "tabulated"])
    def test_vanishing_or_unproven_densities_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize("n", [2, 3, 99, 2**26 + 1, 10**12 + 39, 2**53 - 1, 2**53])
    def test_wedge_density_positive_just_below_the_knee(self, n):
        # the ramp cancels to near zero just below 1/n; the float result
        # must still reach the flat floor 1/n
        m, sym = wedge(n), symmetrized_wedge(n)
        p = 1.0 / n
        for _ in range(50):
            p = math.nextafter(p, 0.0)
            assert m.density(p) >= 1.0 / n
            assert sym.density(p) > 0.0 and sym.density(1.0 - p) > 0.0


def _log_uniform(lo: int, hi: int):
    # 10**e for e in [lo, hi]: a decade and a fraction of it, since hypothesis'
    # float draws alone crowd at simple values such as e = 0
    return st.builds(lambda decade, frac: 10.0 ** (decade + frac),
                     st.integers(lo, hi - 1), st.floats(0.0, 1.0))


# k = 1..3 kernels: (weights, means, stddevs)
MIXTURE_PARAMS = st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(_log_uniform(-300, 300), min_size=k, max_size=k),
    st.lists(st.floats(-1.0, 2.0), min_size=k, max_size=k),
    st.lists(_log_uniform(-12, 1), min_size=k, max_size=k)))
BELIEFS = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)


def _assert_floor_holds(m: BeliefMeasure, points) -> None:
    # a positive floor stands in for the scan, so the scan must pass, and the
    # floor must lie at or below the density wherever it is evaluated
    if m.floor > 0.0:
        measure_mod._validate_density(m.density, m.kind)
        near = {y for x in points for y in (math.nextafter(x, -1.0), x, math.nextafter(x, 2.0))}
        grid = [i / 10_000 for i in range(10_001)] + sorted(y for y in near if 0.0 <= y <= 1.0)
        assert all(m.density(p) >= m.floor for p in grid)


# shrinking a failure would rerun the 10,001-point checks for minutes; the
# drawn example is reported as it was found
FLOOR_SETTINGS = dict(deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate])


class TestFloor:
    """A positive floor is a proof: the density never falls below it."""

    @settings(max_examples=80, **FLOOR_SETTINGS)
    @given(params=MIXTURE_PARAMS, ps=BELIEFS)
    def test_mixture_floor_is_sound(self, params, ps):
        weights, means, sds = params
        try:
            m = gaussian_mixture(weights, means, sds)
        except DomainError:  # vanishes or overflows; the scan or the total said so
            return
        _assert_floor_holds(m, [0.0, 1.0, *means, *ps])

    @settings(max_examples=60, **FLOOR_SETTINGS)
    @given(params=MIXTURE_PARAMS, idx=st.integers(-1, 7),
           factors=st.lists(_log_uniform(-320, 300), min_size=1, max_size=3), ps=BELIEFS)
    def test_scaled_floor_is_sound(self, params, idx, factors, ps):
        weights, means, sds = params
        try:
            # idx -1 draws a mixture base, the rest a _family_zoo measure;
            # further factors nest scaled measures
            m = gaussian_mixture(weights, means, sds) if idx < 0 else _family_zoo()[idx]
            for factor in factors:
                m = scaled(m, factor)
        except DomainError:
            return
        _assert_floor_holds(m, [0.0, 1.0, *means, *ps])

    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    @settings(max_examples=3, **FLOOR_SETTINGS)
    @given(ps=BELIEFS)
    def test_family_zoo_floors_are_proven_and_sound(self, m, ps):
        assert m.floor > 0.0
        # knots, wedge knees and mixture means among the points
        _assert_floor_holds(m, [0.0, 1.0, 0.01, 0.1, 0.3, 0.75, *ps])


class TestFromDensity:
    def test_custom_density_round_trip(self):
        m = from_density(lambda p: 1.0 + p * p, kind="quadratic")
        assert m.total_mass == pytest.approx(4 / 3, abs=1e-9)
        assert mass(m, 0.0, 0.5) == pytest.approx(0.5 + 0.125 / 3, abs=1e-9)

    def test_rejects_vanishing_density(self):
        with pytest.raises(DomainError):
            from_density(lambda p: p, kind="vanishes-at-zero")

    def test_rejects_a_peak_the_pass_never_samples(self):
        # 1e-3 + N(0.4, 1e-3): the adaptive pass reads only the floor and would
        # report a total of 0.001 against 1.001; the positivity scan finds the peak
        def peaked(p):
            z = (p - 0.4) / 1e-3
            return 1e-3 + math.exp(-0.5 * z * z) / (1e-3 * math.sqrt(2 * math.pi))

        with pytest.raises(QuadratureError, match=r"p=0\.4\b"):
            from_density(peaked)


NARROW_BUMP_TOTAL = 1e-8 * (1e-3 + 0.01 * math.sqrt(math.pi))  # erf(50) is 1.0 in floats


def _narrow_bump(p):
    return 1e-8 * (1e-3 + math.exp(-((p - 0.5) / 0.01) ** 2))


def _exp_quadratic(p):
    return math.exp(0.3 * p - 0.9 * p * p)  # the benchmark's smooth density family


# (density, points where scipy.integrate.quad needs a breakpoint)
TABLE_DENSITIES = {
    "quadratic": (lambda p: 1.0 + p * p, []),
    "exp_quadratic": (_exp_quadratic, []),
    "narrow_bump": (_narrow_bump, [0.5]),
    # falls to 1e-20 at 0.3: the only one whose build splits for positivity
    "deep_dip": (lambda p: 1e-20 + (p - 0.3) ** 4, [0.3]),
}


def _edge_grid(density):
    # every piece edge with its float neighbours, inside [0, 1]
    edges = [lo for lo, *_ in simpson_panels(density)] + [1.0]
    near = {y for e in edges for y in (math.nextafter(e, -1.0), e, math.nextafter(e, 2.0))}
    return sorted(y for y in near if 0.0 <= y <= 1.0)


class TestFromDensityTable:
    """from_density's cumulative, built once at construction."""

    def test_small_total_is_relative_accurate(self):
        # a total far below any absolute quadrature tolerance
        m = from_density(_narrow_bump)
        assert abs(m.total_mass - NARROW_BUMP_TOTAL) <= 1e-12 * NARROW_BUMP_TOTAL

    @pytest.mark.parametrize("name", sorted(TABLE_DENSITIES))
    def test_masses_match_scipy(self, name):
        density, breaks = TABLE_DENSITIES[name]
        m = from_density(density)
        total = m.total_mass
        rng = np.random.default_rng(3)
        for lo, hi in np.sort(rng.uniform(0.0, 1.0, (60, 2)), axis=1).tolist():
            want, _ = integrate.quad(density, lo, hi, epsabs=1e-13 * total, epsrel=0.0,
                                     limit=500, points=[x for x in breaks if lo < x < hi] or None)
            assert abs(mass(m, lo, hi) - want) <= 1e-12 * total, (lo, hi)

    @pytest.mark.parametrize("name", sorted(TABLE_DENSITIES))
    def test_masses_nonnegative_at_piece_edges(self, name):
        density, _ = TABLE_DENSITIES[name]
        m = from_density(density)
        grid = _edge_grid(density)
        assert all(mass(m, a, b) >= 0.0 for a, b in zip(grid, grid[1:]))
        below = [mass(m, 0.0, x) for x in grid]
        assert all(a <= b for a, b in zip(below, below[1:]))

    def test_masses_nonnegative_inside_the_dip(self):
        # without the positivity split two pieces' quadratics dip below zero here
        m = from_density(TABLE_DENSITIES["deep_dip"][0])
        grid = np.linspace(0.29, 0.31, 20_001).tolist()
        assert all(mass(m, a, b) >= 0.0 for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("name", sorted(TABLE_DENSITIES))
    def test_solve_evaluates_no_density_and_no_quadrature(self, monkeypatch, name):
        calls = {"density": 0, "simpson": 0}
        density = TABLE_DENSITIES[name][0]

        def counted_density(p):
            calls["density"] += 1
            return density(p)

        m = from_density(counted_density)
        calls["density"] = 0
        real_simpson = quadrature_mod._simpson

        def counted_simpson(*args):
            calls["simpson"] += 1
            return real_simpson(*args)

        # every adaptive Simpson pass, of either integrator, starts with _simpson
        monkeypatch.setattr(quadrature_mod, "_simpson", counted_simpson)
        for kappa, q in [(0.6, 0.3), (0.8, 0.9)]:
            solve(MarketParams(kappa=kappa, q=q, w=1.0), m)
        assert calls == {"density": 0, "simpson": 0}

    def test_nan_the_scan_misses_is_a_domain_error(self):
        seen = set()
        simpson_panels(lambda p: seen.add(p) or _exp_quadratic(p))
        spot = 2.0**-5  # sampled by the build, not on the scan's grid i / 10,000
        assert spot in seen
        for bad in (math.nan, math.inf, 0.0):
            density = lambda p, bad=bad: bad if p == spot else _exp_quadratic(p)
            measure_mod._validate_density(density, "scan")  # the scan passes
            with pytest.raises(DomainError, match="positive and finite"):
                from_density(density)

    def test_discontinuous_density_fails_at_construction(self):
        with pytest.raises(QuadratureError):
            from_density(lambda p: 1.0 if p < math.pi / 6 else 2.0)


# --------------------------------------------------------------------------
# first moments
# --------------------------------------------------------------------------

def _moment_zoo() -> list[BeliefMeasure]:
    # every family with a first moment: uniform, Gaussian mixtures (narrow
    # kernels, means outside [0, 1], kernels so wide that their density is
    # all but flat), scaled over both, and from_density
    return [
        uniform(),
        gaussian_mixture([1.0, 0.5], [0.3, 0.75], [0.15, 0.1]),
        gaussian_mixture([0.9, 1.4], [0.45, 0.55], [0.03, 0.02]),
        gaussian_mixture([0.3, 1.2, 0.7], [-0.4, 0.5, 1.6], [0.2, 0.05, 0.3]),
        gaussian_mixture([1.0, 1.0, 1.0], [0.2, 0.5, 0.6], [10.0, 1e3, 1e6]),
        scaled(gaussian_mixture([1.0], [0.5], [0.3]), 3.0),
        scaled(uniform(), 0.5),
        *(from_density(density, name) for name, (density, _) in sorted(TABLE_DENSITIES.items())),
    ]


# where scipy.integrate.quad needs a breakpoint, by kind
_MOMENT_BREAKS = {"gaussian_mixture(k=2)": [0.3, 0.45, 0.55, 0.75],
                  "gaussian_mixture(k=3)": [0.5], "narrow_bump": [0.5], "deep_dip": [0.3]}


FAR_TAILS = [(0.0, 0.2), (0.1, 0.25), (0.0, 1e-3), (0.7, 1.0), (0.8, 0.95), (0.999, 1.0)]


def _moment_intervals() -> list[tuple[float, float]]:
    # seeded intervals, band ends, both far tails of the narrow kernels at
    # 0.45 and 0.55, and one a billionth wide
    rng = np.random.default_rng(21)
    out = [tuple(x) for x in np.sort(rng.uniform(0.0, 1.0, (40, 2)), axis=1).tolist()]
    xs = rng.uniform(0.0, 1.0, 10).tolist()
    out += [(0.0, x) for x in xs] + [(x, 1.0) for x in xs] + [(0.0, 1.0)]
    return out + FAR_TAILS + [(0.5, 0.5 + 1e-9)]


def _scipy_moment(m, lo, hi):
    # quad warns of roundoff where it cannot reach this tolerance, on some
    # mixture intervals and far tails; its result there is still what the
    # bounds below were measured against, and a looser tolerance moves it
    points = [x for x in _MOMENT_BREAKS.get(m.kind, []) if lo < x < hi] or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(lambda p: p * m.density(p), lo, hi, points=points,
                              epsabs=0.0, epsrel=1.2e-14, limit=500)[0]


def _old_mixture_mass(weights, means, stddevs):
    # gaussian_mixture's exact_mass as one loop over its kernels' w/2, as it
    # was before its erf sum took the coefficients as an argument, with the
    # erf sum's branches: erfc on a tail whose far end has |z| > 0.5
    erf, erfc = math.erf, math.erfc

    def ends(z):
        return erf(z), erfc(z), erfc(-z)

    widths = tuple(sd * math.sqrt(2.0) for sd in stddevs)
    kernels = tuple((0.5 * wgt, mu, width, ends((0.0 - mu) / width),
                     ends((1.0 - mu) / width))
                    for wgt, mu, width in zip(weights, means, widths))

    def exact(lo, hi):
        out, at0, at1 = 0.0, lo == 0.0, hi == 1.0
        for half_w, mu, width, end0, end1 in kernels:
            a, b = (lo - mu) / width, (hi - mu) / width
            if a < -0.5 and b < 0.0:
                out += half_w * ((end1[2] if at1 else erfc(-b))
                                 - (end0[2] if at0 else erfc(-a)))
            elif b > 0.5 and a > 0.0:
                out += half_w * ((end0[1] if at0 else erfc(a))
                                 - (end1[1] if at1 else erfc(b)))
            else:
                out += half_w * ((end1[0] if at1 else erf(b))
                                 - (end0[0] if at0 else erf(a)))
        return out
    return exact


# |moment - scipy's| / the moment of [0, 1], worst over _moment_intervals,
# rounded up in its third digit: 7.225e-16 on the three-kernel mixture with
# means outside [0, 1] among the closed forms (the wide mixture read
# 1.681e-15 while its mass term took erfc differences near 1, 3.449e-16
# now); 7.232e-14 on from_density's exp-quadratic, whose moment, like its
# mass, integrates the quadratics through its samples
MOMENT_BOUND, FROM_DENSITY_MOMENT_BOUND = 7.23e-16, 7.24e-14
# |moment - scipy's| / scipy's on the narrow mixture's FAR_TAILS: 2.770e-11
# on [0, 1e-3], where mu times the mass cancels against the kernel term by a
# factor of about 450 and exp(-z^2) at z = -15 carries z^2 times z's rounding
FAR_TAIL_REL_BOUND = 2.78e-11
# the worst additivity error in test_lies_between_the_ends_times_the_mass_and_
# adds_up, in ulps of 1 times the moment and the mass of [0, 1], rounded up
# in its third digit: 0.5755 on the narrow mixture, 0.3882 on the wide one
# (3.752 while its widest kernel's mass term took erfc differences near 1).
# No moment fell outside [lo mass, hi mass] at all
MOMENT_ROUNDING = 0.576


class TestFirstMoment:
    """exact_moment, the integral of p dmu, per family."""

    @pytest.mark.parametrize("m", [wedge(10), symmetrized_wedge(100), wedge(1),
                                   tabulated([(0.0, 0.5), (0.3, 2.0), (1.0, 1.0)]),
                                   scaled(wedge(100), 0.5)], ids=lambda m: m.kind)
    def test_the_knotted_families_have_none(self, m):
        assert m.exact_moment is None

    @pytest.mark.parametrize("m", _moment_zoo(), ids=lambda m: m.kind)
    def test_matches_scipy(self, m):
        bound = FROM_DENSITY_MOMENT_BOUND if m.kind in TABLE_DENSITIES else MOMENT_BOUND
        total = m.exact_moment(0.0, 1.0)
        worst = max((abs(m.exact_moment(lo, hi) - _scipy_moment(m, lo, hi)) / total, lo, hi)
                    for lo, hi in _moment_intervals())
        print(f"{m.kind}: worst |error| / total {worst[0]:.4g} on [{worst[1]}, {worst[2]}]")
        assert worst[0] <= bound, worst

    def test_far_tails_of_narrow_kernels_keep_relative_accuracy(self):
        m = gaussian_mixture([0.9, 1.4], [0.45, 0.55], [0.03, 0.02])
        errors = []
        for lo, hi in FAR_TAILS:
            assert min(abs(lo - 0.45) / 0.03, abs(hi - 0.55) / 0.02, abs(lo - 0.55) / 0.02,
                       abs(hi - 0.45) / 0.03) > 4.0
            want = _scipy_moment(m, lo, hi)
            errors.append((abs(m.exact_moment(lo, hi) - want) / want, lo, hi))
        print("worst relative error", max(errors))
        assert max(errors)[0] <= FAR_TAIL_REL_BOUND, max(errors)

    @pytest.mark.parametrize("m", _moment_zoo(), ids=lambda m: m.kind)
    def test_lies_between_the_ends_times_the_mass_and_adds_up(self, m):
        # lo mass <= moment <= hi mass, and the moments of [lo, x] and [x, hi]
        # add to that of [lo, hi], each within MOMENT_ROUNDING roundings of
        # the moment and the mass of [0, 1], the scales of the cumulatives and
        # erf sums the moments are differences of
        slack = (MOMENT_ROUNDING * sys.float_info.epsilon
                 * (m.exact_moment(0.0, 1.0) + m.total_mass))
        rng = np.random.default_rng(23)
        for lo, x, hi in np.sort(rng.uniform(0.0, 1.0, (200, 3)), axis=1).tolist():
            for a, b in ((lo, hi), (0.0, x), (x, 1.0)):
                ms, mom = mass(m, a, b), m.exact_moment(a, b)
                assert a * ms - slack <= mom <= b * ms + slack, (a, b)
            split = m.exact_moment(lo, x) + m.exact_moment(x, hi)
            assert abs(split - m.exact_moment(lo, hi)) <= slack, (lo, x, hi)

    @pytest.mark.parametrize("m", _moment_zoo(), ids=lambda m: m.kind)
    def test_empty_interval_moment_is_positive_zero(self, m):
        xs = [0.0, 1.0, 0.3, 0.45, 0.5, *np.random.default_rng(29).uniform(0.0, 1.0, 50).tolist()]
        positive_zero = lambda v: v == 0.0 and math.copysign(1.0, v) == 1.0
        for x in xs:
            assert positive_zero(m.exact_moment(x, x)), x
        for lo, hi in itertools.product((0.0, -0.0), repeat=2):
            assert positive_zero(m.exact_moment(lo, hi)), (lo, hi)

    @pytest.mark.parametrize("m", _moment_zoo(), ids=lambda m: m.kind)
    def test_scaled_moment_is_the_factor_times_the_base_bit_for_bit(self, m):
        ps = [0.0, 1e-300, 0.05, 0.3, 0.5, 0.77, 1.0]
        for factor in (3.0, 0.1, 1e-200):
            s = scaled(m, factor)
            for lo, hi in itertools.combinations_with_replacement(ps, 2):
                assert s.exact_moment(lo, hi) == factor * m.exact_moment(lo, hi), (lo, hi)

    @pytest.mark.parametrize("m", [m for m in [
        *_family_zoo(), *_moment_zoo(),
        # extreme mixtures that construction accepts
        gaussian_mixture([1e307, 1e307], [0.3, 0.7], [0.2, 0.2]),
        gaussian_mixture([1e300], [0.5], [1e5]),
        gaussian_mixture([1e-300], [0.5], [0.2]),
        gaussian_mixture([1.0, 1.0], [0.5, 0.5], [1e-6, 0.3]),
        gaussian_mixture([1.0], [0.5], [1e6]),
        gaussian_mixture([1.0, 1.0], [-3.0, 4.0], [1.0, 1.0]),
        gaussian_mixture([1e300, 1.0], [-40.0, 0.5], [1.0, 0.3]),
    ] if m.exact_moment is not None], ids=lambda m: m.kind)
    def test_moment_is_finite_wherever_the_mass_is(self, m):
        ps = sorted({0.0, 5e-324, 1e-300, 1e-9, 0.1, 0.3, 0.5, math.nextafter(0.5, 1.0),
                     0.5 + 1e-9, 0.7, 0.9, math.nextafter(1.0, 0.0), 1.0})
        for lo, hi in itertools.combinations_with_replacement(ps, 2):
            if math.isfinite(mass(m, lo, hi)):
                assert math.isfinite(m.exact_moment(lo, hi)), (lo, hi)

    @pytest.mark.parametrize("weights, means, stddevs", [
        ([1.7e308], [4.0], [1.0]),  # w mu / 2 overflows
        ([1e308], [0.5], [5.0]),  # w sd / sqrt(2 pi) overflows
    ])
    def test_a_mixture_whose_moment_coefficient_overflows_has_none(self, weights, means,
                                                                    stddevs):
        m = gaussian_mixture(weights, means, stddevs)
        assert math.isfinite(m.total_mass) and m.exact_moment is None

    @pytest.mark.parametrize("weights, means, stddevs", [
        ([1.0, 0.5], [0.3, 0.75], [0.15, 0.1]),
        ([0.3, 1.2, 0.7], [-0.4, 0.5, 1.6], [0.2, 0.05, 0.3]),
        ([1.0, 2.0], [0.0, 1.0], [0.1, 0.3]),
        ([1.1, 0.9, 1.05], [0.21, 0.49, 0.8], [0.25, 0.3, 0.24]),
    ])
    def test_mixture_mass_keeps_the_bits_of_the_old_loop(self, weights, means, stddevs):
        # the erf sum now serves the mass with the weights and the moment with
        # weight times mean; the mass must keep every bit
        old, m = _old_mixture_mass(weights, means, stddevs), gaussian_mixture(weights, means,
                                                                             stddevs)
        rng = np.random.default_rng(31)
        pairs = [tuple(x) for x in np.sort(rng.uniform(0.0, 1.0, (300, 2)), axis=1).tolist()]
        pairs += [(0.0, hi) for _, hi in pairs[:50]] + [(lo, 1.0) for lo, _ in pairs[:50]]
        pairs += [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (-0.0, 0.0), (0.0, -0.0)]
        assert [m.exact_mass(lo, hi).hex() for lo, hi in pairs] == [
            old(lo, hi).hex() for lo, hi in pairs]
