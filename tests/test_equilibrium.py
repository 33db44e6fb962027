"""Fixed-point machinery: action boundaries, stakes, response map, solver.

Boundary roots are cross-checked by dense-grid bracketing of their defining
equations with scipy refinement; fixed points are cross-checked by scipy
brentq on the same response map.
"""

import dataclasses
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from conftest import (BASELINE_W, assert_equilibrium_properties, bundled_cases,
                      scenario_zoo)
from test_measure import _family_zoo
import parieq.equilibrium as equilibrium_mod
import parieq.stackelberg as stackelberg_mod
from parieq.equilibrium import (FP_TOL, Equilibrium, _D, _bisect_decreasing,
                                _bisect_lanes, compute_pbar1, compute_pbar2,
                                grid_fixed_points, phi, phi_context, solve, zeta1,
                                zeta2)
from parieq.errors import DomainError, NoEquilibriumError
from parieq.measure import (BeliefMeasure, from_density, mass, scaled, tabulated,
                            uniform, wedge)
from parieq.metrics import house_revenue
from parieq.response import DiffuseAggregate, MarketParams, implied_probability
from parieq.scenario import build_measure, bundled_scenarios, load_scenario
from parieq.stackelberg import KAPPA_SEARCH_HI, KAPPA_SEARCH_LO, grid_revenues


# takes from the band's narrowest to its widest
BAND_KAPPAS = [math.nextafter(0.5, 1.0), 0.5001, 0.75, 0.9999, math.nextafter(1.0, 0.0)]


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


MONOTONE_ZOO = _family_zoo() + [from_density(lambda p: 1.0 + 3.0 * p * p)]


def _totals_along(m, kappa, ps):
    # (p, d1, d2) at each candidate p, in order, leaving out those where both
    # totals round to zero
    out = []
    for p in ps:
        try:
            out.append((p, *_D(float(p), kappa, m)))
        except DomainError as exc:
            assert "vanish" in str(exc)
    return out


def _rises(m, kappa, totals):
    # each step along the candidates where d1 rose or d2 fell
    return [(m.kind, kappa, a[0], b[1] - a[1], b[2] - a[2])
            for a, b in zip(totals, totals[1:]) if b[1] > a[1] or b[2] < a[2]]


class TestDiffuseTotals:
    def test_uniform_interval_masses(self):
        # thresholds at 0.6/0.8 = 0.75 and 1 - 0.4/0.8 = 0.5
        d1, d2 = _D(0.6, 0.8, uniform())
        assert d1 == pytest.approx(0.25, abs=1e-12)
        assert d2 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kappa", BAND_KAPPAS)
    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_band_endpoints_empty_one_side(self, m, kappa):
        # the bisections' unchecked precondition g(lo) >= 0 >= g(hi) on the
        # band: one total is exactly 0.0 at each end. So d1 / (kappa (d1 + d2)),
        # which compute_pbar1 bisects, is at least 1 >= q at 1 - kappa and 0
        # at kappa; d2 / (kappa (d1 + d2)), which compute_pbar2 bisects, is 0
        # at 1 - kappa and at least 1 >= 1 - q at kappa. phi's end values, 1
        # and 0, are pinned by TestSolverProperties.test_phi_falls_from_one_to_zero
        for p, own in ((1.0 - kappa, 0), (kappa, 1)):  # own: the total that is not 0
            try:
                d = _D(p, kappa, m)
            except DomainError as exc:
                # both totals round to zero, as the flat wedges' do at 1 - kappa
                # on the narrowest take; solve raises there before it bisects
                assert kappa == BAND_KAPPAS[0] and "vanish" in str(exc)
                continue
            assert d[1 - own] == 0.0 and d[own] / (kappa * (d[0] + d[1])) >= 1.0

    def test_totals_are_monotone_on_a_band_grid(self):
        # d1 falls and d2 rises with p, without a single ulp's slack, at 2,001
        # evenly spaced candidates on every take's band
        probes, rises = 0, []
        for m in MONOTONE_ZOO:
            for kappa in BAND_KAPPAS:
                totals = _totals_along(m, kappa, np.linspace(1.0 - kappa, kappa, 2001))
                probes += len(totals)
                rises += _rises(m, kappa, totals)
        assert probes > 89_000  # 89,292: the rest are vanishing totals, as above
        assert not rises, rises[:8]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="wedge's ramp cumulative a p p + b p is not monotone "
                              "in floats: d1 rises or d2 falls by an ulp or two "
                              "across consecutive candidates")
    def test_totals_are_monotone_across_consecutive_floats(self):
        # runs of 17 consecutive floats from seeded starts in each band
        rng, probes, rises = random.Random(0), 0, []
        for m in MONOTONE_ZOO:
            for kappa in BAND_KAPPAS:
                for _ in range(150):
                    p, run = rng.uniform(1.0 - kappa, kappa), []
                    for _ in range(17):
                        run.append(p)
                        p = math.nextafter(p, 1.0)
                    totals = _totals_along(m, kappa, [x for x in run if x <= kappa])
                    probes += len(totals)
                    rises += _rises(m, kappa, totals)
        assert probes > 90_000
        for rise in rises[:8]:
            print(*rise)
        assert not rises, f"{len(rises)} of {probes} probes"

    @pytest.mark.parametrize("kappa", [0.5001, 0.8, 0.9999])
    def test_candidate_outside_the_band_is_a_domain_error(self, kappa):
        # _D clamps neither threshold, so a probe past the band fails in
        # mass(). One float below 1 - kappa, 1 - p can round back to kappa,
        # so the low probe sits 2**-52 below the band
        for p in (math.nextafter(kappa, 1.0), (1.0 - kappa) - 2.0**-52):
            with pytest.raises(DomainError, match="mass requires"):
                _D(p, kappa, uniform())


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
            grid_revenues([0.7, 0.8], 0.5, 1.0, uniform(), fp_tol=fp_tol)

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

    def test_rejects_float_dust_past_the_band_ends(self):
        # the band check is mass()'s. One float below 1 - kappa, the threshold
        # 1 - (1 - p) / kappa can round back to 0, so that p acts as 1 - kappa;
        # from 2**-52 below on, as past kappa, the threshold leaves [0, 1]
        ctx = phi_context(MarketParams(kappa=0.8, q=0.9, w=1.0), uniform())
        lo, hi = 1.0 - 0.8, 0.8
        assert phi(math.nextafter(lo, 0.0), ctx) == phi(lo, ctx) == 1.0
        assert phi(hi, ctx) == 0.0
        for p in (lo - 2.0**-52, lo - 5e-10, lo - 2e-9, math.nextafter(hi, 1.0),
                  hi + 5e-10, hi + 2e-9, math.nan):
            with pytest.raises(DomainError, match="mass requires"):
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
# 40 markets across the take interval, both one-sided beliefs and both budgets
FAMILY_MARKETS = [(kappa, q, w) for kappa in (0.5001, 0.55, 0.8, 0.95, 0.9999)
                  for q in (0.0, 0.3, 0.9, 1.0) for w in (BASELINE_W, 1.0)]


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
        self._assert_exactly_scaled(m, FAMILY_MARKETS)

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

    def test_unique_root_independent_of_tolerance(self):
        for sc in bundled_cases()[:3]:
            eq = solve(sc.params, sc.measure)
            ctx = phi_context(sc.params, sc.measure, fp_tol=FP_TOL / 10)
            kappa = sc.params.kappa
            # a tighter tolerance must land on the same point
            root, _ = _bisect_decreasing(lambda p: phi(p, ctx) - p,
                                         1.0 - kappa, kappa,
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


def _lane_bits(p_star, residual, d1_star, d2_star):
    # the floats a lane of grid_fixed_points holds, as hex
    return tuple(x.hex() for x in (p_star, residual, d1_star, d2_star))


def _outcome(run):
    # what run returns, or the error it raises, as a comparable value
    try:
        return run()
    except Exception as exc:  # the comparison covers any error type
        return type(exc), str(exc)


def _scalar_loop(kappas, q, w, m, fp_tol=FP_TOL):
    return [solve(MarketParams(kappa=k, q=q, w=w), m, fp_tol=fp_tol) for k in kappas]


def _scalar_revenues(kappas, q, w, m, fp_tol=FP_TOL):
    # house_revenue(solve(...)) per take as hex, the loop grid_revenues stands for
    return [house_revenue(eq, MarketParams(kappa=k, q=q, w=w)).hex()
            for k, eq in zip(kappas, _scalar_loop(kappas, q, w, m, fp_tol))]


def _grid_revenues(kappas, q, w, m, fp_tol=FP_TOL):
    return [r.hex() for r in grid_revenues(kappas, q, w, m, fp_tol=fp_tol)]


def _lanes_unlike_solve(kappas, q, w, m, fp_tol=FP_TOL):
    # the takes whose lane is not what solve returns there, bit for bit: a
    # lane whose solve raises counts. A take without a lane is grid_revenues'
    # to hand over, and is judged by its revenue
    bad = []
    for k, lane in zip(kappas, grid_fixed_points(kappas, q, w, m, fp_tol)):
        if lane is not None:
            eq = _outcome(lambda: solve(MarketParams(kappa=k, q=q, w=w), m, fp_tol=fp_tol))
            if not isinstance(eq, Equilibrium) or _lane_bits(*lane) != _lane_bits(
                    eq.p_star, eq.residual, eq.d1_star, eq.d2_star):
                bad.append(k)
    return bad


def _grid(points, lo=KAPPA_SEARCH_LO, hi=KAPPA_SEARCH_HI):
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def _assert_same_as_solve(kappas, q, w, m, fp_tol=FP_TOL):
    # the lanes' fixed points and totals, and every take's revenue
    bad = _lanes_unlike_solve(kappas, q, w, m, fp_tol)
    assert not bad, f"{len(bad)} lanes differ from solve, first at kappa={bad[0]}"
    want = _scalar_revenues(kappas, q, w, m, fp_tol)
    got = _grid_revenues(kappas, q, w, m, fp_tol)
    bad = [k for k, a, b in zip(kappas, got, want) if a != b]
    assert not bad, f"{len(bad)} revenues differ from solve's, first at kappa={bad[0]}"
    assert len(got) == len(want) == len(kappas)


def _count_handovers(monkeypatch):
    # the takes grid_revenues hands to solve from now on, in the order it
    # hands them over
    taken = []

    def counting_solve(params, *args, **kwargs):
        taken.append(params.kappa)
        return solve(params, *args, **kwargs)

    monkeypatch.setattr(stackelberg_mod, "solve", counting_solve)
    return taken


def _handovers(monkeypatch, kappas, q, w, m):
    taken = _count_handovers(monkeypatch)
    grid_revenues(kappas, q, w, m)
    return taken


class TestTakeGrid:
    """grid_fixed_points and grid_revenues against solve, bit for bit, take by take."""

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
        # residual tolerance
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
        got = _outcome(lambda: _grid_revenues(kappas, q, 1.0, uniform(), fp_tol))
        want = _outcome(lambda: _scalar_revenues(kappas, q, 1.0, uniform(), fp_tol))
        assert not isinstance(want, list)
        assert got == want
        assert not _lanes_unlike_solve(kappas, q, 1.0, uniform(), fp_tol)

    @pytest.mark.parametrize("kappas", [[0.7, 0.8], [0.4, 0.7]],
                             ids=["valid-takes", "invalid-take-first"])
    @pytest.mark.parametrize("q, w", [(1.5, 1.0), (-0.1, 1.0), (math.nan, 1.0),
                                      (0.9, 0.0), (0.9, -1.0), (0.9, math.nan)])
    def test_invalid_market_raises_what_the_scalar_loop_raises(self, kappas, q, w):
        # a direct call checks q and w as solve's MarketParams does, take by
        # take: no lane runs, and the first take's error is raised
        assert grid_fixed_points(kappas, q, w, uniform()) == [None, None]
        got = _outcome(lambda: _grid_revenues(kappas, q, w, uniform()))
        want = _outcome(lambda: _scalar_revenues(kappas, q, w, uniform()))
        assert got == want and got[0] is DomainError

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_grid_mass_calls(self, name):
        # both boundaries bisect in one loop, and each probe of the 256 lanes
        # asks the measure twice: for d1 with the float 1.0 as upper bound,
        # then for d2 with the float 0.0 as lower bound; a boundary that q
        # pins gets no lanes
        sc = load_scenario(bundled_scenarios()[name])
        calls = []

        def counting(lo, hi, exact_mass_array=sc.belief_measure.exact_mass_array):
            calls.append((np.size(lo), np.size(hi)))
            return exact_mass_array(lo, hi)

        m = dataclasses.replace(sc.belief_measure, exact_mass_array=counting)
        grid_revenues(_grid(256), sc.q, sc.w, m)
        d1_calls, d2_calls = calls[::2], calls[1::2]
        assert len(d1_calls) == len(d2_calls) <= 85
        assert {hi for _, hi in d1_calls} == {lo for lo, _ in d2_calls} == {1}
        boundaries = 2 if 0.0 < sc.q < 1.0 else 1
        assert max(lo for lo, _ in d1_calls) == max(hi for _, hi in d2_calls) == boundaries * 256

    def test_zero_totals_fall_back_to_solve(self):
        # every interval mass underflows to zero, so both totals vanish and
        # solve raises; the batch hands the take to solve, which raises the same
        m = scaled(uniform(), 5e-324)
        assert grid_fixed_points([0.6, 0.7], 0.5, 1.0, m) == [None, None]
        got = _outcome(lambda: _grid_revenues([0.6, 0.7], 0.5, 1.0, m))
        assert got == _outcome(lambda: _scalar_revenues([0.6, 0.7], 0.5, 1.0, m))
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
                              exact(a, b) for a, b in zip(
                                  *(x.tolist() for x in np.broadcast_arrays(lo, hi)))]))
        kappas = _grid(25, 0.51, 0.99)
        assert not _lanes_unlike_solve(kappas, q, 1.0, m)
        taken = _count_handovers(monkeypatch)
        outcomes = [(_outcome(lambda: _grid_revenues([k], q, 1.0, m)),
                     _outcome(lambda: _scalar_revenues([k], q, 1.0, m)))
                    for k in kappas]
        assert all(got == want for got, want in outcomes)
        assert (ValueError, "math domain error") in [want for _, want in outcomes]
        # where she abstains phi computes no stake, so a NaN one is dropped
        # there and only takes whose solve raises are handed over
        raised = [k for k, (_, want) in zip(kappas, outcomes) if not isinstance(want, list)]
        assert taken and set(taken) <= set(raised)

    def test_empty_grid(self):
        assert grid_fixed_points([], 0.5, 1.0, uniform()) == []
        assert grid_revenues([], 0.5, 1.0, uniform()) == []
        # the scalar loop checks no tolerance when it has no take to solve
        assert grid_revenues([], 0.5, 1.0, uniform(), fp_tol=0.0) == []

    def test_steep_measure_finishes_the_lane_out_of_floats_in_the_batch(self,
                                                                        monkeypatch):
        m = tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)])
        kappas = _grid(64, 0.5001, 0.9999)
        taken = _count_handovers(monkeypatch)
        got = _grid_revenues(kappas, 0.7, 1.0, m)
        assert taken == []
        assert got == _scalar_revenues(kappas, 0.7, 1.0, m)
        assert None not in grid_fixed_points(kappas, 0.7, 1.0, m)
        assert not _lanes_unlike_solve(kappas, 0.7, 1.0, m)
        # at kappa = 0.5001 the bracket runs out of floats above the residual
        # tolerance, so only that exit ends the lane
        want = _scalar_loop(kappas[:1], 0.7, 1.0, m)
        assert kappas[0] == 0.5001 and want[0].residual > FP_TOL

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_grids_hand_over_no_lane(self, monkeypatch, name):
        sc = load_scenario(bundled_scenarios()[name])
        assert _handovers(monkeypatch, _grid(256), sc.q, sc.w, sc.belief_measure) == []


def _record_D_probes(monkeypatch):
    # every (p, kappa) pair _D and _D_lanes are called with from now on,
    # the lanes' as arrays
    probes, lanes = [], []
    real_D, real_D_lanes = equilibrium_mod._D, equilibrium_mod._D_lanes

    def recording_D(p, kappa, m):
        # after the call: a probe that mass() rejects raises and is not kept
        d = real_D(p, kappa, m)
        probes.append((p, kappa))
        return d

    def recording_D_lanes(p, kappa, m):
        lanes.append((p.copy(), kappa.copy()))
        return real_D_lanes(p, kappa, m)

    monkeypatch.setattr(equilibrium_mod, "_D", recording_D)
    monkeypatch.setattr(equilibrium_mod, "_D_lanes", recording_D_lanes)
    return probes, lanes


def _assert_in_band(probes, lanes=()):
    # _D computes its thresholds unclamped, so every probe must lie in the band
    outside = [(p, kappa) for p, kappa in probes if not 1.0 - kappa <= p <= kappa]
    assert not outside, f"{len(outside)} probes outside the band, first {outside[0]}"
    for p, kappa in lanes:
        assert np.all((1.0 - kappa <= p) & (p <= kappa))


def _forget_boundaries(probes):
    # bisect both boundaries on another measure object, which replaces the
    # remembered ones, and drop the probes that took: the next solve or
    # phi_context then bisects both boundaries itself
    n, other = len(probes), MarketParams(kappa=0.75, q=0.5, w=1.0)
    compute_pbar1(other, uniform())
    compute_pbar2(other, uniform())
    del probes[n:]


def _probe_the_map(params, m, probes):
    # solve, then phi, zeta1 and zeta2 at their interval ends and inside;
    # each rejects float dust past those ends (2**-52 below 1 - kappa, as
    # one float below can round back onto the band's threshold 0). The
    # boundaries are forgotten before solve and before phi_context, so
    # probes records every probe of every bisection, none of another take
    _forget_boundaries(probes)
    solve(params, m)
    _forget_boundaries(probes)
    ctx = phi_context(params, m)
    lo, hi, dust = 1.0 - params.kappa, params.kappa, 5e-10
    for p in (lo, 0.5, hi):
        phi(p, ctx)
    for p in (ctx.pbar1, 0.5 * (ctx.pbar1 + hi), hi):
        zeta1(p, ctx)
    for p in (lo, 0.5 * (lo + ctx.pbar2), ctx.pbar2):
        zeta2(p, ctx)
    below, above = (lo - 2.0**-52, lo - dust), (math.nextafter(hi, 1.0), hi + dust)
    for f, outside in ((phi, below + above),
                       (zeta1, (math.nextafter(ctx.pbar1, 0.0), ctx.pbar1 - dust) + above),
                       (zeta2, below + (math.nextafter(ctx.pbar2, 1.0), ctx.pbar2 + dust))):
        for p in outside:
            with pytest.raises(DomainError):
                f(p, ctx)


class TestInBandProbes:
    """Every probe of the map lies in [1 - kappa, kappa], so _D needs no clamp."""

    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_scalar_probes_on_every_family(self, monkeypatch, m):
        probes, _ = _record_D_probes(monkeypatch)
        for kappa, q, w in FAMILY_MARKETS:
            _probe_the_map(MarketParams(kappa=kappa, q=q, w=w), m, probes)
        _assert_in_band(probes)
        assert len(probes) > 100 * len(FAMILY_MARKETS)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_scalar_probes_on_the_bundled_sweeps(self, monkeypatch, name):
        sc = load_scenario(bundled_scenarios()[name])
        probes, _ = _record_D_probes(monkeypatch)
        for kappa in sc.kappa.kappas():
            for w in sorted({BASELINE_W, sc.w}):
                _probe_the_map(MarketParams(kappa=kappa, q=sc.q, w=w), sc.belief_measure,
                               probes)
        _assert_in_band(probes)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_lane_probes_on_the_bundled_take_grids(self, monkeypatch, name):
        # the probes of a lane handed over to solve are recorded by _D
        sc = load_scenario(bundled_scenarios()[name])
        probes, lanes = _record_D_probes(monkeypatch)
        grid_revenues(_grid(256), sc.q, sc.w, sc.belief_measure)
        _assert_in_band(probes, lanes)
        assert sum(p.size for p, _ in lanes) > 256 * 50


def _sweep_takes():
    # the bundled sweep --baseline rows, take by take in CLI order: per take
    # its (params, measure) rows, budgets ascending
    takes = []
    for _, path in sorted(bundled_scenarios().items()):
        sc = load_scenario(path)
        takes += [[(MarketParams(kappa=kappa, q=sc.q, w=w), sc.belief_measure)
                   for w in sorted({BASELINE_W, sc.w})] for kappa in sc.kappa.kappas()]
    return takes


def _cold_bits(params, m):
    # solve on a copy of the measure, a key no remembered boundary holds
    return _bits(solve(params, dataclasses.replace(m)))


SWEEP_ORDERS = {
    "sweep": lambda takes: [row for take in takes for row in take],
    "reversed": lambda takes: [row for take in takes for row in take][::-1],
    "other budget first": lambda takes: [row for take in takes for row in take[::-1]],
}


class TestRememberedBoundaries:
    """compute_pbar1 and compute_pbar2 each remember their last root.

    The key is the measure object (by identity), kappa, q and tol. A hit
    gives the bits a bisection gives; any other key bisects again.
    """

    @pytest.mark.parametrize("order", sorted(SWEEP_ORDERS))
    def test_bundled_sweep_rows_equal_the_cold_solve(self, monkeypatch, order):
        rows = SWEEP_ORDERS[order](_sweep_takes())
        probes, _ = _record_D_probes(monkeypatch)
        cold = [_cold_bits(params, m) for params, m in rows]
        cold_probes = len(probes)
        del probes[:]
        assert [_bits(solve(params, m)) for params, m in rows] == cold
        # the second budget of each take reused both boundaries
        assert len(probes) < cold_probes

    @pytest.mark.parametrize("between", ["kappa", "q", "tol", "equal measure"])
    def test_another_key_in_between_bisects_again(self, monkeypatch, between):
        m, params, tol = wedge(10), MarketParams(kappa=0.8, q=0.9, w=1.0), FP_TOL
        other = {"kappa": (dataclasses.replace(params, kappa=0.7), m, tol),
                 "q": (dataclasses.replace(params, q=0.6), m, tol),
                 "tol": (params, m, FP_TOL / 10),
                 # exact_mass is left out of ==, so this copy compares equal
                 "equal measure": (params, dataclasses.replace(m, exact_mass=m.exact_mass),
                                   tol)}[between]
        assert other[1] == m
        probes, _ = _record_D_probes(monkeypatch)

        def solved(params, m, tol):
            # (_D calls, bits) of one solve
            n = len(probes)
            bits = _bits(solve(params, m, fp_tol=tol))
            return len(probes) - n, bits

        _forget_boundaries(probes)
        first = solved(params, m, tol)
        again = solved(params, m, tol)
        assert again[1] == first[1] and again[0] < first[0]
        solved(*other)
        assert solved(params, m, tol) == first

    @pytest.mark.parametrize("boundary", [compute_pbar1, compute_pbar2],
                             ids=lambda f: f.__name__)
    def test_a_boundary_that_raises_is_not_remembered(self, monkeypatch, boundary):
        m, params, calls = wedge(10), MarketParams(kappa=0.8, q=0.6, w=1.0), [0]

        def flaky_mass(lo, hi):
            calls[0] += 1
            if calls[0] == 9:  # inside the bisection, once
                raise DomainError("flaky")
            return m.exact_mass(lo, hi)

        flaky = dataclasses.replace(m, exact_mass=flaky_mass)
        probes, _ = _record_D_probes(monkeypatch)
        _forget_boundaries(probes)
        root = boundary(params, m)
        cold_probes = len(probes)
        with pytest.raises(DomainError, match="flaky"):
            boundary(params, flaky)
        # m's entry is still there: no probe
        n = len(probes)
        assert boundary(params, m) == root and len(probes) == n
        # and the measure that raised bisects in full
        assert boundary(params, flaky).hex() == root.hex()
        assert len(probes) - n == cold_probes

    def test_threads_solving_interleaved_takes_match_the_serial_results(self):
        takes = _sweep_takes()
        want = [[_cold_bits(params, m) for params, m in take] for take in takes]
        # four threads start each take together, two of them with its
        # budgets swapped, so they bisect the same key at once and replace
        # each other's entries
        barrier = threading.Barrier(4, timeout=60)

        def solve_all(swapped):
            got = []
            try:
                for take in takes:
                    barrier.wait()
                    bits = [_bits(solve(params, m))
                            for params, m in (take[::-1] if swapped else take)]
                    got.append(bits[::-1] if swapped else bits)
            except BaseException:
                barrier.abort()  # no thread waits for one that failed
                raise
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside a bisection
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(solve_all, [False, True, False, True], timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(got == want for got in results)


def _roots(kappa):
    lo, hi = 1.0 - kappa, kappa
    return {"at 1 - kappa": lo, "inside": lo + (hi - lo) / 3.0, "at kappa": hi}


ROOT_PLACES = list(_roots(0.75))


def _step(p):
    # a decreasing map with no root: +1 below 0.3, -1 from 0.3 on
    return 1.0 if p < 0.3 else -1.0


class TestBisectionLength:
    """Bisecting the band runs out of floats within 105 midpoints.

    With width_tol = 0 and no residual tolerance, only an exact zero or
    float resolution stops either bisection; the worst case is the root at
    1 - kappa = 2**-53 for kappa = nextafter(1, 0), where floats are densest.
    """

    @pytest.mark.parametrize("where", ROOT_PLACES)
    @pytest.mark.parametrize("kappa", BAND_KAPPAS)
    def test_scalar_bisection(self, kappa, where):
        r, probes = _roots(kappa)[where], []

        def g(p):
            probes.append(p)
            return r - p

        root, residual = _bisect_decreasing(g, 1.0 - kappa, kappa, width_tol=0.0)
        assert (root, residual) == (r, 0.0)
        assert len(probes) - 2 <= 105
        # the last midpoint is r itself or its neighbour inside the band
        assert abs(probes[-1] - r) <= math.ulp(r)

    @pytest.mark.parametrize("where", ROOT_PLACES)
    @pytest.mark.parametrize("kappa", BAND_KAPPAS)
    def test_lane_bisection(self, kappa, where):
        r, rounds = _roots(kappa)[where], []

        def g(p):
            rounds.append(p[0])
            return r - p

        root, residual, _ = _bisect_lanes(g, np.array([1.0 - kappa]),
                                          np.array([kappa]), width_tol=0.0)
        assert (root[0], residual[0]) == (r, 0.0)
        assert len(rounds) - 2 <= 105
        assert abs(rounds[-1] - r) <= math.ulp(r)

    def test_no_root_within_the_residual_tolerance(self):
        # |g| is 1 at every point, so neither the width nor the residual stop
        # fires: the bisection evaluates both ends and then only midpoints of
        # its bracket, each inside it, until the bracket runs out of floats
        probes = []

        def g(p):
            probes.append(p)
            return _step(p)

        root, residual = _bisect_decreasing(g, 0.2, 0.8, width_tol=0.0, residual_tol=0.5)
        assert (root, residual) == (0.2, 1.0)  # the lower end on a tie
        assert probes[:2] == [0.2, 0.8]
        lo, hi = 0.2, 0.8
        for p in probes[2:]:
            assert lo < p < hi and p == 0.5 * (lo + hi)
            lo, hi = (p, hi) if _step(p) > 0.0 else (lo, p)
        assert (lo, hi) == (math.nextafter(0.3, 0.0), 0.3)
        assert len(probes) == 2 + 53

    def test_lanes_out_of_floats_finish_with_the_scalar_result(self):
        brackets = [(0.2, 0.8), (0.25, 0.3), (0.0, 0.3), (0.2999, 0.5)]
        lo, hi = (np.array(ends) for ends in zip(*brackets))
        for tols in [(0.0, 0.5), (FP_TOL, 0.5), (0.0, math.inf)]:
            root, residual, ok = _bisect_lanes(
                lambda p: np.where(p < 0.3, 1.0, -1.0), lo, hi, *tols)
            assert ok.all()
            want = [_bisect_decreasing(_step, a, b, *tols) for a, b in brackets]
            assert [(r.hex(), e.hex()) for r, e in zip(root.tolist(), residual.tolist())] \
                == [(r.hex(), e.hex()) for r, e in want]

    def test_the_bound_is_reached(self):
        kappa, count = math.nextafter(1.0, 0.0), [0]

        def g(p):
            count[0] += 1
            return (1.0 - kappa) - p

        _bisect_decreasing(g, 1.0 - kappa, kappa, width_tol=0.0)
        assert count[0] == 107  # two endpoints and 105 midpoints
