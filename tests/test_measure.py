"""Wealth-measure families: density values, interval masses, invariants.

Closed-form masses are cross-checked against the in-package adaptive Simpson
integrator and against scipy.integrate.quad as an outside reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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


class TestInvariants:
    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_positivity_on_fine_grid(self, m):
        assert min(m.density(i / 10_000) for i in range(10_001)) > 0.0

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


class TestPositivity:
    """Positivity is proven from the parameters where it can be, else sampled."""

    @pytest.mark.parametrize("build, scans", [
        (lambda: wedge(100), 0),
        (lambda: symmetrized_wedge(100), 0),
        (lambda: uniform(), 0),
        (lambda: tabulated([(0.0, 0.5), (0.3, 2.0), (1.0, 1.0)]), 0),
        (lambda: from_density(lambda p: 1.0 + p), 1),
        (lambda: gaussian_mixture([1.0, 0.5], [0.3, 0.75], [0.15, 0.1]), 1),
        (lambda base=wedge(100): scaled(base, 2.0), 1),  # base built beforehand
    ], ids=["wedge", "symmetrized_wedge", "uniform", "tabulated",
            "from_density", "gaussian_mixture", "scaled"])
    def test_density_scans_per_construction(self, monkeypatch, build, scans):
        calls = []
        real = measure_mod._validate_density

        def counted(density, kind):
            calls.append(kind)
            real(density, kind)

        monkeypatch.setattr(measure_mod, "_validate_density", counted)
        build()
        assert len(calls) == scans

    @pytest.mark.parametrize("build", [
        lambda: gaussian_mixture([1], [0.5], [0.005]),  # underflows at p = 0
        lambda: scaled(wedge(100), 5e-324),  # underflows beyond the knee
        lambda: wedge(10**200),
        lambda: symmetrized_wedge(10**200),
        lambda: wedge(2**53 + 1),
        # on the piece ending at 0.75 + 2**-53, p = 0.75 gives t = 1 (p - 2**-54
        # and the piece width round alike) and the interpolant rounds to 0.0
        lambda: tabulated([(0.0, 1.0), (2.0**-54, 1.0), (0.75 + 2.0**-53, 1e-300),
                           (1.0, 1.0)]),
    ], ids=["gaussian_mixture", "scaled", "wedge",
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


class TestFromDensity:
    def test_custom_density_round_trip(self):
        m = from_density(lambda p: 1.0 + p * p, kind="quadratic")
        assert m.total_mass == pytest.approx(4 / 3, abs=1e-9)
        assert mass(m, 0.0, 0.5) == pytest.approx(0.5 + 0.125 / 3, abs=1e-9)

    def test_rejects_vanishing_density(self):
        with pytest.raises(DomainError):
            from_density(lambda p: p, kind="vanishes-at-zero")


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

        # every adaptive Simpson step, of either integrator, goes through _simpson
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
