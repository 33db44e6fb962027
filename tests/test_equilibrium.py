"""Fixed-point machinery: action boundaries, stakes, response map, solver.

Boundary roots are cross-checked by dense-grid bracketing of their defining
equations with scipy refinement; fixed points are cross-checked by scipy
brentq on the same response map.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from conftest import (BASELINE_W, assert_equilibrium_properties, bundled_cases,
                      scenario_zoo)
from test_measure import _family_zoo
import parieq.equilibrium as equilibrium_mod
from parieq.equilibrium import (_DOMAIN_EPS, FP_TOL, _D, _bisect_decreasing,
                                compute_pbar1, compute_pbar2, phi, phi_context,
                                solve, solve_grid, zeta1, zeta2)
from parieq.errors import DomainError, NoEquilibriumError
from parieq.measure import (BeliefMeasure, from_density, mass, scaled, tabulated,
                            uniform, wedge)
from parieq.response import DiffuseAggregate, MarketParams, implied_probability
from parieq.scenario import build_measure, bundled_scenarios, load_scenario
from parieq.stackelberg import KAPPA_SEARCH_HI, KAPPA_SEARCH_LO


def grid_bracket_root(f, lo, hi, n=4001):
    """Independent root finder: dense scan for the sign change, then brentq."""
    xs = np.linspace(lo, hi, n)
    vals = [f(x) for x in xs]
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa == 0.0:
            return a
        if fa * fb < 0:
            return optimize.brentq(f, a, b, xtol=1e-13)
    return hi if vals[-1] == 0.0 else lo


class TestDiffuseTotals:
    def test_uniform_interval_masses(self):
        # thresholds at 0.6/0.8 = 0.75 and 1 - 0.4/0.8 = 0.5
        d1, d2 = _D(0.6, 0.8, uniform())
        assert d1 == pytest.approx(0.25, abs=1e-12)
        assert d2 == pytest.approx(0.5, abs=1e-12)

    def test_band_endpoints_empty_one_side(self):
        assert _D(0.8, 0.8, uniform())[0] == 0.0
        assert _D(0.2, 0.8, uniform())[1] == 0.0


class TestActionBoundaries:
    def test_zero_belief_collapses_upper(self):
        params = MarketParams(kappa=0.8, q=0.0, w=1.0)
        assert compute_pbar1(params, wedge(7)) == 0.8

    def test_full_belief_collapses_lower(self):
        params = MarketParams(kappa=0.8, q=1.0, w=1.0)
        assert compute_pbar2(params, wedge(7)) == pytest.approx(0.2, abs=1e-15)

    def test_uniform_boundaries_closed_form(self):
        # for the uniform measure the defining equations are linear in p:
        # pbar1 solves (0.8-p)/0.8 = 0.6 q, giving 0.8 - 0.48 q
        params = MarketParams(kappa=0.8, q=0.5, w=1.0)
        assert compute_pbar1(params, uniform()) == pytest.approx(0.56, abs=1e-9)
        assert compute_pbar2(params, uniform()) == pytest.approx(0.44, abs=1e-9)
        params9 = MarketParams(kappa=0.8, q=0.9, w=1.0)
        assert compute_pbar1(params9, uniform()) == pytest.approx(0.368, abs=1e-9)
        assert compute_pbar2(params9, uniform()) == pytest.approx(0.248, abs=1e-9)

    def test_roots_match_grid_bracketing(self):
        m = wedge(10)
        params = MarketParams(kappa=0.75, q=0.7, w=1.0)

        def ratio1_minus_q(p):
            d1 = mass(m, min(p / 0.75, 1.0), 1.0)
            d2 = mass(m, 0.0, max(1.0 - (1.0 - p) / 0.75, 0.0))
            return d1 / (0.75 * (d1 + d2)) - 0.7

        want = grid_bracket_root(ratio1_minus_q, 0.25, 0.75)
        assert compute_pbar1(params, m) == pytest.approx(want, abs=1e-8)

    def test_ordering_across_zoo(self):
        for sc in scenario_zoo(8):
            ctx = phi_context(sc.params, sc.measure)
            assert ctx.pbar2 < ctx.pbar1

    @pytest.mark.parametrize("fp_tol", [0.3, 0.5, math.inf])
    def test_coarse_tolerance_is_a_domain_error(self, fp_tol):
        # both boundaries stop at the band's midpoint, out of order; a plain
        # check, not an assert, so python -O keeps it
        params = MarketParams(kappa=0.8, q=0.5, w=1.0)
        with pytest.raises(DomainError, match="out of order"):
            phi_context(params, uniform(), fp_tol=fp_tol)
        with pytest.raises(DomainError, match="out of order"):
            solve(params, uniform(), fp_tol=fp_tol)
        with pytest.raises(DomainError, match="out of order"):
            solve_grid([0.7, 0.8], 0.5, 1.0, uniform(), fp_tol=fp_tol)

    def test_requires_majority_retention(self):
        with pytest.raises(DomainError):
            compute_pbar1(MarketParams(kappa=0.5, q=0.5, w=1.0), uniform())


class TestOptimalStakes:
    def setup_method(self):
        self.params = MarketParams(kappa=0.8, q=0.9, w=1.0)
        self.ctx = phi_context(self.params, uniform())

    def test_vanishes_at_both_ends(self):
        assert zeta1(self.ctx.pbar1, self.ctx) == pytest.approx(0.0, abs=1e-8)
        assert zeta1(0.8, self.ctx) == pytest.approx(0.0, abs=1e-12)
        assert zeta2(0.2, self.ctx) == pytest.approx(0.0, abs=1e-12)
        assert zeta2(self.ctx.pbar2, self.ctx) == pytest.approx(0.0, abs=1e-8)

    def test_interior_value(self):
        # d1 = 0.125, d2 = 0.625 at p = 0.7; stake = sqrt(0.72/0.28 * d1 d2) - d1
        assert zeta1(0.7, self.ctx) == pytest.approx(0.3232107285003978, abs=1e-10)

    def test_positive_in_the_open_interval(self):
        for p in np.linspace(self.ctx.pbar1 + 1e-3, 0.8 - 1e-3, 9):
            assert zeta1(p, self.ctx) > 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            zeta1(self.ctx.pbar1 - 0.01, self.ctx)
        with pytest.raises(DomainError):
            zeta2(self.ctx.pbar2 + 0.01, self.ctx)


class TestResponseMap:
    def test_endpoint_values_exact(self):
        for sc in bundled_cases():
            ctx = phi_context(sc.params, sc.measure)
            kappa = sc.params.kappa
            assert phi(1.0 - kappa, ctx) == 1.0
            assert phi(kappa, ctx) == 0.0

    @pytest.mark.parametrize("kappa", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_symmetric_center(self, kappa):
        ctx = phi_context(MarketParams(kappa=kappa, q=0.5, w=1.0), uniform())
        assert phi(0.5, ctx) == pytest.approx(0.5, abs=1e-12)

    def test_interior_value_with_active_bettor(self):
        ctx = phi_context(MarketParams(kappa=0.8, q=0.9, w=1.0), uniform())
        assert phi(0.7, ctx) == pytest.approx(0.41763534094248644, abs=1e-9)

    def test_clamps_float_dust_at_the_band_ends_and_rejects_more(self):
        ctx = phi_context(MarketParams(kappa=0.8, q=0.9, w=1.0), uniform())
        lo, hi = 1.0 - 0.8, 0.8
        for p in (math.nextafter(lo, 0.0), lo - 0.5 * _DOMAIN_EPS):
            assert phi(p, ctx) == phi(lo, ctx) == 1.0
        for p in (math.nextafter(hi, 1.0), hi + 0.5 * _DOMAIN_EPS):
            assert phi(p, ctx) == phi(hi, ctx) == 0.0
        for p in (lo - 2.0 * _DOMAIN_EPS, hi + 2.0 * _DOMAIN_EPS, math.nan):
            with pytest.raises(DomainError, match="candidate probability"):
                phi(p, ctx)

    def test_continuous_at_action_boundaries(self):
        ctx = phi_context(MarketParams(kappa=0.8, q=0.9, w=1.0), uniform())
        eps = 1e-9
        for b in (ctx.pbar1, ctx.pbar2):
            left = phi(b - eps, ctx)
            right = phi(b + eps, ctx)
            assert left == pytest.approx(right, abs=1e-5)

    def test_decreasing_on_grid(self):
        for sc in bundled_cases():
            ctx = phi_context(sc.params, sc.measure)
            kappa = sc.params.kappa
            grid = np.linspace(1.0 - kappa, kappa, 512)
            vals = [phi(p, ctx) for p in grid]
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


ZOO = _family_zoo()
MARKETS = dict(idx=st.integers(0, len(ZOO) - 1), kappa=st.floats(0.5001, 0.9999),
               q=st.floats(0.0, 1.0), w=st.floats(1e-10, 10.0))


class TestSolverProperties:
    """Invariants of phi and solve over drawn measures and markets, no slack."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**MARKETS)
    def test_phi_falls_from_one_to_zero(self, idx, kappa, q, w):
        ctx = phi_context(MarketParams(kappa=kappa, q=q, w=w), ZOO[idx])
        vals = [phi(p, ctx) for p in np.linspace(1.0 - kappa, kappa, 201).tolist()]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert phi(1.0 - kappa, ctx) == 1.0
        assert phi(kappa, ctx) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**MARKETS)
    def test_residual_is_the_true_one_and_budget_holds(self, idx, kappa, q, w):
        params, m = MarketParams(kappa=kappa, q=q, w=w), ZOO[idx]
        eq = solve(params, m)
        assert eq.residual == abs(phi(eq.p_star, phi_context(params, m)) - eq.p_star)
        assert eq.atomic.a1 + eq.atomic.a2 <= w


class TestSolve:
    def test_no_equilibrium_below_half(self):
        for kappa in (0.3, 0.4, 0.5):
            with pytest.raises(NoEquilibriumError):
                solve(MarketParams(kappa=kappa, q=0.5, w=1.0), uniform())

    def test_symmetric_fixed_point(self):
        eq = solve(MarketParams(kappa=0.8, q=0.5, w=1.0), uniform())
        assert eq.p_star == pytest.approx(0.5, abs=1e-9)
        assert eq.atomic.a1 == eq.atomic.a2 == 0.0
        assert eq.d1_star == pytest.approx(0.375, abs=1e-9)

    def test_one_sided_population_tracks_band_edge(self):
        eq = solve(MarketParams(kappa=0.8, q=0.0, w=1.0), wedge(100))
        assert eq.p_star == pytest.approx(0.20012192593680264, abs=1e-9)
        assert eq.atomic.a2 > 0.0
        assert eq.atomic.a1 == 0.0

    def test_matches_brentq_on_same_map(self):
        for sc in bundled_cases()[:4]:
            ctx = phi_context(sc.params, sc.measure)
            kappa = sc.params.kappa
            want = optimize.brentq(lambda p: phi(p, ctx) - p,
                                   1.0 - kappa, kappa, xtol=1e-13)
            eq = solve(sc.params, sc.measure)
            assert eq.p_star == pytest.approx(want, abs=1e-9)

    def test_residual_and_bounds_everywhere(self):
        for sc in bundled_cases() + scenario_zoo(10):
            eq = solve(sc.params, sc.measure)
            assert eq.residual <= FP_TOL
            assert_equilibrium_properties(eq, sc.params)

    def test_scale_equivariance(self):
        # scaling all wealth (measure and budget together) by c leaves p*
        # where it is and multiplies every wager by c
        for sc in bundled_cases() + scenario_zoo(20):
            base = solve(sc.params, sc.measure)
            for c in (0.25, 4.0):
                params = MarketParams(kappa=sc.params.kappa, q=sc.params.q,
                                      w=c * sc.params.w)
                eq = solve(params, scaled(sc.measure, c))
                assert abs(eq.p_star - base.p_star) <= FP_TOL, (sc.name, c)
                for got, want in ((eq.d1_star, base.d1_star),
                                  (eq.d2_star, base.d2_star),
                                  (eq.atomic.a1, base.atomic.a1),
                                  (eq.atomic.a2, base.atomic.a2)):
                    assert abs(got - c * want) <= 1e-8 * c * want, (sc.name, c)

    @staticmethod
    def _assert_exactly_scaled(m, rows):
        # scaling by a power of two multiplies every mass and every budget
        # exactly, so the solve must repeat its p* and scale its totals and
        # stakes with no rounding at all
        for c in (0.25, 4.0):
            mc = scaled(m, c)
            for kappa, q, w in rows:
                base = solve(MarketParams(kappa=kappa, q=q, w=w), m)
                eq = solve(MarketParams(kappa=kappa, q=q, w=c * w), mc)
                assert eq.p_star == base.p_star, (kappa, q, w, c)
                assert ((eq.d1_star, eq.d2_star, eq.atomic.a1, eq.atomic.a2)
                        == (c * base.d1_star, c * base.d2_star,
                            c * base.atomic.a1, c * base.atomic.a2)), (kappa, q, w, c)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_scale_equivariance_is_exact_on_the_bundled_sweeps(self, name):
        # every row of the bundled sweep --baseline, at both budgets
        sc = load_scenario(bundled_scenarios()[name])
        self._assert_exactly_scaled(
            sc.belief_measure,
            [(kappa, sc.q, w) for kappa in sc.kappa.kappas()
             for w in sorted({BASELINE_W, sc.w})])

    @pytest.mark.parametrize("m", _family_zoo() + [from_density(lambda p: 1.0 + p * p)],
                             ids=lambda m: m.kind)
    def test_scale_equivariance_is_exact_on_every_family(self, m):
        self._assert_exactly_scaled(
            m, [(kappa, q, w) for kappa in (0.5001, 0.55, 0.8, 0.95, 0.9999)
                for q in (0.0, 0.3, 0.9, 1.0) for w in (BASELINE_W, 1.0)])

    def test_self_consistency_of_reconstruction(self):
        for sc in bundled_cases():
            eq = solve(sc.params, sc.measure)
            implied = implied_probability(
                DiffuseAggregate(eq.d1_star, eq.d2_star), eq.atomic)
            assert implied == pytest.approx(eq.p_star, abs=10 * FP_TOL)
            m1 = mass(sc.measure, min(eq.thresholds.bet1_above, 1.0), 1.0)
            m2 = mass(sc.measure, 0.0, max(eq.thresholds.bet2_below, 0.0))
            assert m1 == pytest.approx(eq.d1_star, rel=1e-12)
            assert m2 == pytest.approx(eq.d2_star, rel=1e-12)

    def test_unique_root_independent_of_bracket_orientation(self):
        for sc in bundled_cases()[:3]:
            eq = solve(sc.params, sc.measure)
            ctx = phi_context(sc.params, sc.measure, fp_tol=FP_TOL / 10)
            kappa = sc.params.kappa
            # reversed bracket and a tighter tolerance must land on the same point
            root, _ = _bisect_decreasing(lambda p: phi(p, ctx) - p,
                                         kappa, 1.0 - kappa,
                                         width_tol=FP_TOL / 10,
                                         residual_tol=FP_TOL / 10)
            assert abs(root - eq.p_star) <= FP_TOL

    def test_regular_betting_pattern(self):
        # whoever assigns the backed outcome a higher chance also backs it:
        # positive-edge beliefs form an upper (resp. lower) interval matching
        # the threshold profile, and the large bettor follows the same rule
        for sc in bundled_cases():
            eq = solve(sc.params, sc.measure)
            kappa = sc.params.kappa
            for p in np.linspace(0.0, 1.0, 201):
                edge1 = kappa * p / eq.p_star - 1.0
                edge2 = kappa * (1.0 - p) / (1.0 - eq.p_star) - 1.0
                assert (edge1 > 0) == (p > eq.thresholds.bet1_above)
                assert (edge2 > 0) == (p < eq.thresholds.bet2_below)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(DomainError):
            solve(MarketParams(kappa=0.8, q=0.5, w=1.0), uniform(), fp_tol=0.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(kappa=st.floats(0.51, 0.99), q=st.floats(0.0, 1.0),
           w=st.floats(1e-10, 5.0))
    def test_solution_properties_hold_for_drawn_parameters(self, kappa, q, w):
        params = MarketParams(kappa=kappa, q=q, w=w)
        eq = solve(params, uniform())
        assert eq.residual <= FP_TOL
        assert_equilibrium_properties(eq, params)


def _bits(eq):
    # every float of an Equilibrium, as hex so that -0.0 and 0.0 differ
    return tuple(x.hex() for x in (
        eq.p_star, eq.d1_star, eq.d2_star, eq.atomic.a1, eq.atomic.a2,
        eq.thresholds.bet1_above, eq.thresholds.bet2_below, eq.residual))


def _outcome(run):
    # the bits of every lane, or the error raised, as a comparable value
    try:
        return [_bits(eq) for eq in run()]
    except Exception as exc:  # the comparison covers any error type
        return type(exc), str(exc)


def _scalar_loop(kappas, q, w, m, fp_tol=FP_TOL):
    return [solve(MarketParams(kappa=k, q=q, w=w), m, fp_tol=fp_tol) for k in kappas]


def _grid(points, lo=KAPPA_SEARCH_LO, hi=KAPPA_SEARCH_HI):
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def _assert_same_as_solve(kappas, q, w, m, fp_tol=FP_TOL):
    got = _outcome(lambda: solve_grid(kappas, q, w, m, fp_tol=fp_tol))
    want = _outcome(lambda: _scalar_loop(kappas, q, w, m, fp_tol))
    assert isinstance(want, list), want
    bad = [k for k, a, b in zip(kappas, got, want) if a != b]
    assert not bad, f"{len(bad)} lanes differ from solve, first at kappa={bad[0]}"


def _count_handovers(monkeypatch):
    # the takes solve_grid hands to solve from now on, in the order it hands them over
    taken = []

    def counting_solve(params, *args, **kwargs):
        taken.append(params.kappa)
        return solve(params, *args, **kwargs)

    monkeypatch.setattr(equilibrium_mod, "solve", counting_solve)
    return taken


def _handovers(monkeypatch, kappas, q, w, m):
    taken = _count_handovers(monkeypatch)
    solve_grid(kappas, q, w, m)
    return taken


class TestSolveGrid:
    """solve_grid against solve, bit for bit, lane by lane."""

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_and_sweep_grids(self, name):
        sc = load_scenario(bundled_scenarios()[name])
        m = build_measure(sc.measure)
        _assert_same_as_solve(_grid(256), sc.q, sc.w, m)
        for w in sorted({BASELINE_W, sc.w}):
            _assert_same_as_solve(sc.kappa.kappas(), sc.q, w, m)

    @pytest.mark.parametrize("sc", scenario_zoo(), ids=lambda sc: sc.name)
    def test_every_zoo_measure(self, sc):
        _assert_same_as_solve(_grid(64, 0.5001, 0.9999), sc.params.q, sc.params.w,
                              sc.measure)

    @pytest.mark.parametrize("m", [
        from_density(lambda p: 1.0 + 3.0 * p * p),
        # steep enough that one lane's bracket runs out of floats above the
        # residual tolerance, and that lane goes to solve
        tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)]),
    ], ids=lambda m: m.kind)
    def test_quadrature_and_steep_measures(self, m):
        _assert_same_as_solve(_grid(64, 0.5001, 0.9999), 0.7, 1.0, m)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_one_sided_beliefs_skip_a_boundary(self, q):
        _assert_same_as_solve(_grid(32), q, 1.0, wedge(100))

    @pytest.mark.parametrize("kappas, q, fp_tol", [
        ([0.7, 0.5, 0.8], 0.9, FP_TOL),        # no equilibrium at the second take
        ([0.7, 0.4, 1.0], 0.9, FP_TOL),        # ... raised before the invalid third
        ([0.7, 1.0, 0.4], 0.9, FP_TOL),        # an invalid take first
        (_grid(16), 0.5, 0.3),                 # boundaries out of order
        (_grid(16), 0.5, math.inf),
        (_grid(16), 0.9, 0.0),                 # nonpositive tolerance
        (_grid(16), 1.5, FP_TOL),              # invalid belief
        ([0.7, 10**400, 0.8], 0.9, FP_TOL),    # an int too large for a float
    ])
    def test_raises_what_the_scalar_loop_raises(self, kappas, q, fp_tol):
        got = _outcome(lambda: solve_grid(kappas, q, 1.0, uniform(), fp_tol=fp_tol))
        want = _outcome(lambda: _scalar_loop(kappas, q, 1.0, uniform(), fp_tol))
        assert not isinstance(want, list)
        assert got == want

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_grid_mass_calls(self, name):
        # both boundaries bisect in one loop, and each probe of the 256 lanes
        # asks the measure once for d1 and d2 together; a boundary that q
        # pins gets no lanes
        sc = load_scenario(bundled_scenarios()[name])
        sizes = []

        def counting(lo, hi, exact_mass_array=sc.belief_measure.exact_mass_array):
            sizes.append(lo.size)
            return exact_mass_array(lo, hi)

        m = dataclasses.replace(sc.belief_measure, exact_mass_array=counting)
        solve_grid(_grid(256), sc.q, sc.w, m)
        assert len(sizes) <= 90
        boundaries = 2 if 0.0 < sc.q < 1.0 else 1
        assert max(sizes) == 2 * boundaries * 256

    def test_zero_totals_fall_back_to_solve(self):
        # every interval mass underflows to zero, so both totals vanish and
        # solve raises; the batch hands the lane to solve, which raises the same
        m = scaled(uniform(), 5e-324)
        got = _outcome(lambda: solve_grid([0.6, 0.7], 0.5, 1.0, m))
        assert got == _outcome(lambda: _scalar_loop([0.6, 0.7], 0.5, 1.0, m))
        assert got[0] is DomainError

    @pytest.mark.parametrize("q", [0.1, 0.9])
    def test_negative_mass_products_fall_back_to_solve(self, monkeypatch, q):
        # masses that come out negative on some intervals, as rounding can
        # make them, give d1 * d2 < 0 at some probes: math.sqrt raises
        # there, and the lane must not turn np.sqrt's NaN into a stake
        F = lambda x: x + 0.1 * math.sin(16.0 * math.pi * x)
        exact = lambda lo, hi: F(hi) - F(lo)
        m = BeliefMeasure(density=lambda p: 1.0, total_mass=exact(0.0, 1.0),
                          kind="rippled", exact_mass=exact,
                          exact_mass_array=lambda lo, hi: np.array([
                              exact(a, b) for a, b in zip(lo.tolist(), hi.tolist())]))
        kappas = _grid(25, 0.51, 0.99)
        taken = _count_handovers(monkeypatch)
        outcomes = [(_outcome(lambda: solve_grid([k], q, 1.0, m)),
                     _outcome(lambda: _scalar_loop([k], q, 1.0, m)))
                    for k in kappas]
        assert all(got == want for got, want in outcomes)
        assert (ValueError, "math domain error") in [want for _, want in outcomes]
        # where she abstains phi computes no stake, so a NaN one is dropped
        # there and only takes whose solve raises are handed over
        raised = [k for k, (_, want) in zip(kappas, outcomes) if not isinstance(want, list)]
        assert taken and set(taken) <= set(raised)

    def test_empty_grid(self):
        assert solve_grid([], 0.5, 1.0, uniform()) == []
        # the scalar loop checks no tolerance when it has no take to solve
        assert solve_grid([], 0.5, 1.0, uniform(), fp_tol=0.0) == []

    def test_steep_measure_hands_over_the_lane_out_of_floats(self, monkeypatch):
        m = tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)])
        taken = _handovers(monkeypatch, _grid(64, 0.5001, 0.9999), 0.7, 1.0, m)
        assert taken == [0.5001]
        # only a bracket that runs out of floats ends above the residual tolerance
        assert solve(MarketParams(kappa=0.5001, q=0.7, w=1.0), m).residual > FP_TOL

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_grids_hand_over_at_most_one_lane(self, monkeypatch, name):
        sc = load_scenario(bundled_scenarios()[name])
        assert len(_handovers(monkeypatch, _grid(256), sc.q, sc.w,
                              sc.belief_measure)) <= 1
