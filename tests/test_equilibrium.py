"""Fixed-point machinery: action boundaries, stakes, response map, solver.

Boundary roots are cross-checked by dense-grid bracketing of their defining
equations with scipy refinement; fixed points are cross-checked by scipy
brentq on the same response map.
"""

import dataclasses
import itertools
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

from conftest import (BASELINE_W, EXTREME_KAPPAS, EXTREME_QS, EXTREME_TOTALS, EXTREME_WS,
                      Scen, assert_equilibrium_properties, bundled_cases, scenario_zoo)
from test_measure import _family_zoo
import parieq
import parieq.equilibrium as equilibrium_mod
import parieq.stackelberg as stackelberg_mod
from parieq.equilibrium import (FP_TOL, Boundary, Equilibrium, _D, _bisect_decreasing,
                                _inside, _ordered, _phi_lanes, _secant_lanes, _secant_step,
                                _secant_step_float, _side_stake, _stake_coefficient,
                                compute_pbar1, compute_pbar2, fixed_point,
                                grid_fixed_points, phi, phi_context, solve, zeta1, zeta2)
from parieq.errors import DomainError, NoEquilibriumError
from parieq.measure import (BeliefMeasure, from_density, mass, scaled,
                            symmetrized_wedge, tabulated, uniform, wedge)
from parieq.metrics import house_revenue, take_revenue
from parieq.response import (DiffuseAggregate, MarketParams, _stake,
                             atomic_best_response, implied_probability)
from parieq.scenario import build_measure, bundled_scenarios, load_scenario
from parieq.oracle import discretize
from parieq.stackelberg import (KAPPA_SEARCH_HI, KAPPA_SEARCH_LO, grid_revenues,
                                optimize_take)


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
        assert compute_pbar1(params, wedge(7)).root() == 0.8

    def test_full_belief_collapses_lower(self):
        params = MarketParams(kappa=0.8, q=1.0, w=1.0)
        assert compute_pbar2(params, wedge(7)).root() == pytest.approx(0.2, abs=1e-15)

    def test_uniform_boundaries_closed_form(self):
        # for the uniform measure the defining equations are linear in p:
        # pbar1 solves (0.8-p)/0.8 = 0.6 q, giving 0.8 - 0.48 q
        params = MarketParams(kappa=0.8, q=0.5, w=1.0)
        assert compute_pbar1(params, uniform()).root() == pytest.approx(0.56, abs=1e-9)
        assert compute_pbar2(params, uniform()).root() == pytest.approx(0.44, abs=1e-9)
        params9 = MarketParams(kappa=0.8, q=0.9, w=1.0)
        assert compute_pbar1(params9, uniform()).root() == pytest.approx(0.368, abs=1e-9)
        assert compute_pbar2(params9, uniform()).root() == pytest.approx(0.248, abs=1e-9)

    def test_roots_match_grid_bracketing(self):
        m = wedge(10)
        params = MarketParams(kappa=0.75, q=0.7, w=1.0)

        def ratio1_minus_q(p):
            d1 = mass(m, min(p / 0.75, 1.0), 1.0)
            d2 = mass(m, 0.0, max(1.0 - (1.0 - p) / 0.75, 0.0))
            return d1 / (0.75 * (d1 + d2)) - 0.7

        want = grid_bracket_root(ratio1_minus_q, 0.25, 0.75)
        assert compute_pbar1(params, m).root() == pytest.approx(want, abs=1e-8)

    def test_ordering_across_zoo(self):
        for sc in scenario_zoo(8):
            ctx = phi_context(sc.params, sc.measure)
            assert ctx.pbar2.root() < ctx.pbar1.root()

    def test_requires_majority_retention(self):
        with pytest.raises(DomainError):
            compute_pbar1(MarketParams(kappa=0.5, q=0.5, w=1.0), uniform())

    @pytest.mark.parametrize("q, boundary", [(0.0, compute_pbar1), (1.0, compute_pbar2)],
                             ids=["q=0 pbar1", "q=1 pbar2"])
    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_a_pinned_boundary_finishes_at_its_band_end(self, monkeypatch, m, q, boundary):
        # at q = 0 pbar1's ratio minus q is exactly 0 at kappa, and at q = 1
        # pbar2's is at 1 - kappa: the two end evaluations finish the
        # bisection there, and no comparison steps it
        probes, real_D = [], equilibrium_mod._D

        def counting_D(p, kappa, measure):
            probes.append(p)
            return real_D(p, kappa, measure)

        monkeypatch.setattr(equilibrium_mod, "_D", counting_D)
        for kappa in BAND_KAPPAS[1:]:
            probes.clear()
            b = boundary(MarketParams(kappa=kappa, q=q, w=1.0), m)
            end = kappa if q == 0.0 else 1.0 - kappa
            assert probes == [1.0 - kappa, kappa]
            assert b.root().hex() == end.hex() and b.span() == (end, end)
            for p in _floats_around(end) + [0.5, 1.0 - kappa, kappa]:
                assert b.below(p) == (end < p) and b.above(p) == (end > p)
            assert len(probes) == 2


class TestOptimalStakes:
    def setup_method(self):
        self.params = MarketParams(kappa=0.8, q=0.9, w=1.0)
        self.ctx = phi_context(self.params, uniform())
        self.pbar1, self.pbar2 = self.ctx.pbar1.root(), self.ctx.pbar2.root()

    def test_vanishes_at_both_ends(self):
        assert zeta1(self.pbar1, self.ctx) == pytest.approx(0.0, abs=1e-8)
        assert zeta1(0.8, self.ctx) == pytest.approx(0.0, abs=1e-12)
        assert zeta2(0.2, self.ctx) == pytest.approx(0.0, abs=1e-12)
        assert zeta2(self.pbar2, self.ctx) == pytest.approx(0.0, abs=1e-8)

    def test_interior_value(self):
        # d1 = 0.125, d2 = 0.625 at p = 0.7; stake = sqrt(0.72/0.28 * d1 d2) - d1
        assert zeta1(0.7, self.ctx) == pytest.approx(0.3232107285003978, abs=1e-10)

    def test_positive_in_the_open_interval(self):
        for p in np.linspace(self.pbar1 + 1e-3, 0.8 - 1e-3, 9):
            assert zeta1(p, self.ctx) > 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            zeta1(self.pbar1 - 0.01, self.ctx)
        with pytest.raises(DomainError):
            zeta2(self.pbar2 + 0.01, self.ctx)

    @pytest.mark.parametrize("cap", [1e-10, 1.0, math.inf])
    def test_the_cap_is_min_of_max_bit_for_bit(self, cap):
        # s = sqrt(x) - own for the radicand x; an infinite own and x give NaN
        below, above = math.nextafter(cap, 0.0), math.nextafter(cap, math.inf)
        cases = [(-math.inf, 0.0, math.inf), (-1.0, 0.0, 1.0), (0.0, 0.0, 0.0),
                 (-0.0, -0.0, 0.0), (5e-324, 0.0, -5e-324), (below, 0.0, -below),
                 (cap, 0.0, -cap), (above, 0.0, -above), (math.inf, 0.0, -math.inf),
                 (math.nan, math.inf, math.inf)]
        for s, x, own in cases:
            assert (math.sqrt(x) - own).hex() == s.hex()
            assert _stake(x, own, cap).hex() == min(cap, max(0.0, s)).hex(), s

    def test_each_callers_radicand_order_is_pinned(self):
        # atomic_best_response's stakes are the written-out ones in its
        # radicand order, and _side_stake's in phi's, as hex, on every pair
        # of extreme totals
        def hexes(*stakes):
            return [x.hex() for x in stakes]

        for kappa, q, w in itertools.product(EXTREME_KAPPAS, EXTREME_QS, EXTREME_WS):
            params = MarketParams(kappa=kappa, q=q, w=w)
            c1, c2 = _stake_coefficient(kappa, q), _stake_coefficient(kappa, 1.0 - q)
            for d1, d2 in itertools.product(EXTREME_TOTALS, repeat=2):
                bet = atomic_best_response(DiffuseAggregate(d1, d2), params)
                assert hexes(bet.a1, bet.a2) == hexes(*_written_out_stakes(
                    kappa, q, w, d1, d2, _capped_radicand)), (kappa, q, w, d1, d2)
                stake, back1 = _side_stake(kappa, q, w, c1, c2, d1, d2)
                assert hexes(*((stake, 0.0) if back1 else (0.0, stake))) == hexes(
                    *_composed_stakes(kappa, q, w, d1, d2)), (kappa, q, w, d1, d2)


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

    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_phi_is_the_two_stake_sum_bit_for_bit(self, m):
        # one regime and one capped stake per probe give the float of the
        # written-out form, which asks both boundaries and adds both stakes,
        # on a band grid and at 17 consecutive floats around each boundary
        def two_stake_phi(p, ctx):
            w = ctx.params.w
            d1, d2 = _D(p, ctx.params.kappa, ctx.measure)
            a1 = (min(w, max(0.0, math.sqrt(ctx.c1 * d1 * d2) - d1))
                  if ctx.pbar1.below(p) else 0.0)
            a2 = (min(w, max(0.0, math.sqrt(ctx.c2 * d1 * d2) - d2))
                  if ctx.pbar2.above(p) else 0.0)
            return (a1 + d1) / (a1 + a2 + d1 + d2)

        for kappa in (0.5001, 0.55, 0.8, 0.95, 0.9999):
            for q in (0.0, 0.3, 0.9, 1.0):
                for w in (1e-10, 1.0, 1e9):
                    ctx = phi_context(MarketParams(kappa=kappa, q=q, w=w), m)
                    probes = (np.linspace(1.0 - kappa, kappa, 65).tolist()
                              + _floats_around(ctx.pbar1.root())
                              + _floats_around(ctx.pbar2.root()))
                    for p in probes:
                        if 1.0 - kappa <= p <= kappa:
                            assert phi(p, ctx).hex() == two_stake_phi(p, ctx).hex(), \
                                (kappa, q, w, p)

    def test_continuous_at_action_boundaries(self):
        ctx = phi_context(MarketParams(kappa=0.8, q=0.9, w=1.0), uniform())
        eps = 1e-9
        for b in (ctx.pbar1.root(), ctx.pbar2.root()):
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
            # a tighter tolerance must land on the same point
            tight = solve(sc.params, sc.measure, fp_tol=FP_TOL / 10)
            assert abs(tight.p_star - eq.p_star) <= FP_TOL

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

    @pytest.mark.parametrize("fp_tol", [1e-15, FP_TOL, 0.3, 0.5, math.inf])
    @pytest.mark.parametrize(
        "sc", scenario_zoo() + bundled_cases()
        + [Scen("symmetric", uniform(), MarketParams(kappa=0.8, q=0.5, w=1.0))],
        ids=lambda sc: sc.name)
    def test_residual_is_the_map_residual_at_every_tolerance(self, sc, fp_tol):
        # the tolerance stops solve's bisection and nothing else: the
        # boundaries bisect to FP_TOL and stay in order, so a coarse
        # tolerance returns a coarse p_star, and the reported residual is
        # exactly the residual of phi_context's map there
        eq = solve(sc.params, sc.measure, fp_tol=fp_tol)
        ctx = phi_context(sc.params, sc.measure)
        assert 1.0 - sc.params.kappa <= eq.p_star <= sc.params.kappa
        assert eq.residual == abs(phi(eq.p_star, ctx) - eq.p_star)

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


@pytest.mark.xfail(strict=True, raises=DomainError,
                   reason="on wedge(2**20) both true action boundaries lie within "
                          "FP_TOL of the band's low end and bisect to the same "
                          "midpoint, so solve raises 'action boundaries out of "
                          "order'; the grid lane, with no boundaries, finishes")
@pytest.mark.parametrize("kappa, q", [(0.6, 0.01), (0.8, 0.3), (0.99, 0.99)])
def test_solve_on_a_steep_wedge(kappa, q):
    # 16 of 25 cells of kappa in (0.6, 0.7, 0.8, 0.9, 0.99) by q in (0.01,
    # 0.3, 0.5, 0.7, 0.99) raise at w = 1; these three span the takes and
    # both a low and a high q
    m = wedge(2**20)
    eq = solve(MarketParams(kappa=kappa, q=q, w=1.0), m)
    lane = grid_fixed_points([kappa], q, 1.0, m)[0]
    assert abs(eq.p_star - lane[0]) <= FP_TOL


def _bits(eq):
    # every float of an Equilibrium, as hex so that -0.0 and 0.0 differ
    return tuple(x.hex() for x in (
        eq.p_star, eq.d1_star, eq.d2_star, eq.atomic.a1, eq.atomic.a2,
        eq.thresholds.bet1_above, eq.thresholds.bet2_below, eq.residual))


def _outcome(run):
    # what run returns, or the error it raises, as a comparable value
    try:
        return run()
    except Exception as exc:  # the comparison covers any error type
        return type(exc), str(exc)


def _scalar_loop(kappas, q, w, m):
    return [solve(MarketParams(kappa=k, q=q, w=w), m) for k in kappas]


def _scalar_revenues(kappas, q, w, m):
    # house_revenue(solve(...)) per take as hex, the loop grid_revenues stands for
    return [house_revenue(eq, MarketParams(kappa=k, q=q, w=w)).hex()
            for k, eq in zip(kappas, _scalar_loop(kappas, q, w, m))]


def _grid_revenues(kappas, q, w, m):
    return [r.hex() for r in grid_revenues(kappas, q, w, m)]


def _written_out_stakes(kappa, q, w, d1, d2, radicand):
    # her wagers (a1, a2) at totals d1, d2: her side decided from them by
    # atomic_best_response's tests, her stake min(w, max(0.0, sqrt(x) -
    # own)) with x = radicand(kappa, b, d1, d2) for her belief b in that side
    t = kappa * (d1 + d2)
    if q > d1 / t:
        return min(w, max(0.0, math.sqrt(radicand(kappa, q, d1, d2)) - d1)), 0.0
    if 1.0 - q > d2 / t:
        return 0.0, min(w, max(0.0, math.sqrt(radicand(kappa, 1.0 - q, d1, d2)) - d2))
    return 0.0, 0.0


def _capped_radicand(kappa, b, d1, d2):
    # atomic_best_response's rounding order
    return kappa * b * d1 * d2 / (1.0 - kappa * b)


def _coefficient_radicand(kappa, b, d1, d2):
    # phi's rounding order, (kappa b / (1 - kappa b)) d1 d2
    return kappa * b / (1.0 - kappa * b) * d1 * d2


def _composed_stakes(kappa, q, w, d1, d2):
    # her wagers (a1, a2) at totals d1, d2 in phi's rounding order
    return _written_out_stakes(kappa, q, w, d1, d2, _coefficient_radicand)


def _composed_phi(p, kappa, q, w, m):
    # the composed best-response map, one float evaluation: the totals at p,
    # her wagers there and the pool share
    d1, d2 = _D(p, kappa, m)
    a1, a2 = _composed_stakes(kappa, q, w, d1, d2)
    return (a1 + d1) / (a1 + a2 + d1 + d2)


def _composed_lane(kappa, q, w, m):
    # one take's lane by the scalar bisection of the composed map at FP_TOL:
    # (p_star, residual, d1_star, d2_star, a_star), a_star her one stake
    # there, or None where the take is solve's to decide: a float operation
    # that raises on the way (math.sqrt of a negative product included), or
    # a zero total. The take meets grid_fixed_points' precondition
    try:
        p, residual = _bisect_decreasing(lambda p: _composed_phi(p, kappa, q, w, m) - p,
                                         1.0 - kappa, kappa, width_tol=FP_TOL,
                                         residual_tol=FP_TOL)
        d1, d2 = _D(p, kappa, m)
    except (DomainError, ValueError, ZeroDivisionError):
        return None
    if not (d1 > 0.0 and d2 > 0.0):
        return None
    return p, residual, d1, d2, sum(_composed_stakes(kappa, q, w, d1, d2))


def _composed_revenues(kappas, q, w, m):
    # grid_revenues as a scalar loop, as hex: each take's revenue at the
    # bisected composed map's fixed point, with the stake that map takes
    # there, or house_revenue(solve(...)) where that map leaves the take to
    # solve
    out = []
    for k in kappas:
        lane = _composed_lane(k, q, w, m)
        if lane is None:
            params = MarketParams(kappa=k, q=q, w=w)
            out.append(house_revenue(solve(params, m), params).hex())
        else:
            out.append(take_revenue(k, *lane[2:], 0.0).hex())
    return out


def _handed_over(kappas, q, w, m):
    # the takes grid_fixed_points leaves to solve, and those the scalar
    # bisection of the composed map leaves to solve
    return ([k for k, lane in zip(kappas, grid_fixed_points(kappas, q, w, m))
             if lane is None],
            [k for k in kappas if _composed_lane(k, q, w, m) is None])


def _grid(points, lo=KAPPA_SEARCH_LO, hi=KAPPA_SEARCH_HI):
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


# max |lane - solve| over TestTakeGrid's lanes, where solve returns: solve's
# phi switches regime at bisected boundaries and stops within FP_TOL, the
# lane's map switches at the totals and the lane runs to float resolution.
# p*: 4.9505e-11, on example4_case1 at kappa = 0.71374 (its take grid and
# its sweep at w = 1e-10), within FP_TOL. Revenue: 2.4004e-09, pinned
# rounded up in its third digit, on example4_case2's take grid at kappa =
# 0.5001, where solve's stake is half the referee's (test_referee.py) and
# the lane's is not
GRID_P_STAR_BOUND = FP_TOL
GRID_REVENUE_BOUND = 2.41e-09


def _assert_lanes_keep_the_contract(kappas, q, w, m, handed=None):
    # per take: the lane is None exactly where the scalar bisection of the
    # composed map leaves the take to solve (or at the takes in handed, if
    # given), and such a take gets solve's revenue. A lane's residual is
    # the map's at its p*, exactly, and the map changes sign within that
    # residual plus one float step at 1 of p*: its slope is at most -1, and
    # its values, in [0, 1], round on that scale (a step of ulp(p*) is too
    # short on appendixA's sweep at kappa = 0.9999, where p* = 0.0099). Its
    # totals are _D's at p*, its stake is the map's there, and its revenue
    # is take_revenue's from them. Each lane lies within the bounds above
    # of solve, where solve returns
    lanes = grid_fixed_points(kappas, q, w, m)
    got = grid_revenues(kappas, q, w, m)
    assert len(lanes) == len(got) == len(kappas)
    assert [k for k, lane in zip(kappas, lanes) if lane is None] == (
        _handed_over(kappas, q, w, m)[1] if handed is None else handed)
    for k, lane, revenue in zip(kappas, lanes, got):
        params = MarketParams(kappa=k, q=q, w=w)
        eq = _outcome(lambda: solve(params, m))
        if lane is None:
            assert revenue.hex() == house_revenue(eq, params).hex(), k
            continue
        p, residual, d1, d2, a = lane

        def g(p):
            return _composed_phi(p, k, q, w, m) - p

        assert residual == abs(g(p)), k
        step = residual + math.ulp(1.0)
        assert g(max(1.0 - k, p - step)) >= 0.0 >= g(min(k, p + step)), (k, p, residual)
        assert (d1, d2) == _D(p, k, m), k
        a1, a2 = _composed_stakes(k, q, w, d1, d2)
        assert a.hex() == (a1 + a2).hex(), k
        assert revenue.hex() == take_revenue(k, d1, d2, a1, a2).hex(), k
        if isinstance(eq, Equilibrium):
            assert abs(p - eq.p_star) <= GRID_P_STAR_BOUND, k
            assert abs(revenue - house_revenue(eq, params)) <= GRID_REVENUE_BOUND, k


def _count_handovers(monkeypatch):
    # the take of each solve the stackelberg module calls from now on, in
    # order: the takes grid_revenues hands over, and in optimize_take those
    # its probes hand over, then kappa*
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


def _rippled():
    # a measure whose cumulative x + 0.1 sin(16 pi x) falls in places, so
    # that some interval masses are negative
    F = lambda x: x + 0.1 * math.sin(16.0 * math.pi * x)
    exact = lambda lo, hi: F(hi) - F(lo)
    return BeliefMeasure(density=lambda p: 1.0, total_mass=exact(0.0, 1.0),
                         kind="rippled", exact_mass=exact,
                         exact_mass_array=lambda lo, hi: np.array([
                             exact(a, b) for a, b in zip(
                                 *(x.tolist() for x in np.broadcast_arrays(lo, hi)))]))


class TestTakeGrid:
    """grid_fixed_points and grid_revenues against the scalar composed map.

    Take by take, each lane keeps _assert_lanes_keep_the_contract's
    contract; a take the lanes leave to solve gets solve's revenue or error.
    """

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_and_sweep_grids(self, name):
        sc = load_scenario(bundled_scenarios()[name])
        m = build_measure(sc.measure)
        _assert_lanes_keep_the_contract(_grid(256), sc.q, sc.w, m)
        for w in sorted({BASELINE_W, sc.w}):
            _assert_lanes_keep_the_contract(sc.kappa.kappas(), sc.q, w, m)

    @pytest.mark.parametrize("sc", scenario_zoo(), ids=lambda sc: sc.name)
    def test_every_zoo_measure(self, sc):
        _assert_lanes_keep_the_contract(_grid(64, 0.5001, 0.9999), sc.params.q,
                                         sc.params.w, sc.measure)

    @pytest.mark.parametrize("m", [
        from_density(lambda p: 1.0 + 3.0 * p * p),
        # steep enough that one lane's bracket runs out of floats at a
        # residual above 1e-10
        tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)]),
    ], ids=lambda m: m.kind)
    def test_quadrature_and_steep_measures(self, m):
        _assert_lanes_keep_the_contract(_grid(64, 0.5001, 0.9999), 0.7, 1.0, m)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_one_sided_beliefs(self, q):
        _assert_lanes_keep_the_contract(_grid(32), q, 1.0, wedge(100))

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_grid_mass_calls(self, name):
        # one loop of 256 full-width lanes, and each evaluation asks the
        # measure twice: for d1 with the float 1.0 as upper bound, then for
        # d2 with the float 0.0 as lower bound. The last 32 live lanes or
        # fewer finish in floats, on the measure's exact_mass, which this
        # does not count. Full-width evaluations per
        # grid, the band ends and the totals at p* included, measured: 25
        # on appendixA, 23 on example4_case2, 9 to 18 on the others
        sc = load_scenario(bundled_scenarios()[name])
        calls = []

        def counting(lo, hi, exact_mass_array=sc.belief_measure.exact_mass_array):
            calls.append((np.size(lo), np.size(hi)))
            return exact_mass_array(lo, hi)

        m = dataclasses.replace(sc.belief_measure, exact_mass_array=counting)
        grid_revenues(_grid(256), sc.q, sc.w, m)
        d1_calls, d2_calls = calls[::2], calls[1::2]
        assert len(d1_calls) == len(d2_calls) <= 29
        assert {hi for _, hi in d1_calls} == {lo for lo, _ in d2_calls} == {1}
        assert {lo for lo, _ in d1_calls} == {hi for _, hi in d2_calls} == {256}

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
        # there, and the lane must not turn np.sqrt's NaN into a stake. A
        # take the lane hands over gets solve's revenue or error, which
        # names the negative masses instead of math.sqrt's bare ValueError
        m = _rippled()
        kappas = _grid(25, 0.51, 0.99)
        taken = _count_handovers(monkeypatch)
        outcomes = [(_outcome(lambda: _grid_revenues([k], q, 1.0, m)),
                     _outcome(lambda: _scalar_revenues([k], q, 1.0, m)))
                    for k in kappas]
        errors = [want for _, want in outcomes if isinstance(want, tuple)]
        assert all(kind is DomainError for kind, _ in errors)
        assert any(msg.startswith("the measure's masses round negative at kappa=")
                   and msg.endswith("(math domain error)") for _, msg in errors)
        # where she abstains the map computes no stake, so a NaN one is
        # dropped there. A take is handed over only where the scalar
        # bisection of the composed map raises too: the secant probes land
        # elsewhere, so they can miss a point where the map raises
        handed, raised = _handed_over(kappas, q, 1.0, m)
        assert taken == handed and handed and set(handed) <= set(raised)
        assert all(got == want for k, (got, want) in zip(kappas, outcomes) if k in handed)
        kept = [k for k in kappas if k not in handed]
        _assert_lanes_keep_the_contract(kept, q, 1.0, m, handed=[])

    def test_empty_grid(self):
        assert grid_fixed_points([], 0.5, 1.0, uniform()) == []
        assert grid_revenues([], 0.5, 1.0, uniform()) == []

    def test_steep_measure_finishes_the_lane_out_of_floats_in_the_batch(self,
                                                                        monkeypatch):
        m = tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)])
        kappas = _grid(64, 0.5001, 0.9999)
        taken = _count_handovers(monkeypatch)
        lanes = grid_fixed_points(kappas, 0.7, 1.0, m)
        assert taken == []
        assert None not in lanes
        _assert_lanes_keep_the_contract(kappas, 0.7, 1.0, m)
        # at kappa = 0.5001 the map jumps across zero between two adjacent
        # floats, by more than 1e-10 on either side: the lane ends there, its
        # bracket out of floats, as solve's does
        p, residual = lanes[0][:2]
        g = lambda p: _composed_phi(p, kappas[0], 0.7, 1.0, m) - p
        assert kappas[0] == 0.5001 and residual > FP_TOL
        assert g(math.nextafter(p, 0.0)) > FP_TOL and g(p) < -FP_TOL
        assert _scalar_loop(kappas[:1], 0.7, 1.0, m)[0].residual > FP_TOL

    @pytest.mark.parametrize("m", MONOTONE_ZOO, ids=lambda m: m.kind)
    def test_the_lanes_map_is_one_and_zero_at_the_band_ends(self, m):
        # phi(1 - kappa) = 1 and phi(kappa) = 0, exactly, on every lane
        kappa = np.array(BAND_KAPPAS[1:])
        for q, w in itertools.product((0.0, 0.3, 0.9, 1.0), (BASELINE_W, 1.0)):
            c1, c2 = _stake_coefficient(kappa, q), _stake_coefficient(kappa, 1.0 - q)
            ends = [_phi_lanes(p, kappa, q, w, m, c1, c2).tolist()
                    for p in (1.0 - kappa, kappa)]
            assert ends == [[1.0] * kappa.size, [0.0] * kappa.size], (q, w)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_the_stake_is_the_maps_at_p_star(self, name):
        # the stake a lane reports is the one its map took at p*: on her
        # side, with the lane's totals, it gives back the lane's residual
        # bit for bit
        sc = load_scenario(bundled_scenarios()[name])
        kappas = _grid(256)
        lanes = grid_fixed_points(kappas, sc.q, sc.w, sc.belief_measure)
        assert None not in lanes
        for k, (p, residual, d1, d2, a) in zip(kappas, lanes):
            a1 = a if sc.q > d1 / (k * (d1 + d2)) else 0.0
            assert abs((a1 + d1) / (a + d1 + d2) - p) == residual, k

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_grids_hand_over_no_lane(self, monkeypatch, name):
        sc = load_scenario(bundled_scenarios()[name])
        assert _handovers(monkeypatch, _grid(256), sc.q, sc.w, sc.belief_measure) == []


def _lane_bits(lane):
    # a lane's five floats as hex, so that -0.0 and 0.0 differ, or None
    return None if lane is None else tuple(x.hex() for x in lane)


def _assert_the_scalar_lane_is_the_lane(kappas, q, w, m):
    # fixed_point at each take, against grid_fixed_points' lane there
    lanes = grid_fixed_points(kappas, q, w, m)
    assert [_lane_bits(fixed_point(k, q, w, m)) for k in kappas] \
        == [_lane_bits(lane) for lane in lanes]
    return lanes


# (label, value) pairs of a _secant_step argument drawn with ties in mind:
# both zeros, both infinities, NaN, and a few floats that recur, so that
# equal probes, equal map values and |g| = |gp| / 2 all occur
_STEP_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 0.25, 0.5, -0.5, 1.0, 2.0,
                -1.0, 5e-324]


def _secant_states(n, seed):
    # n states (x, g, xp, gp, lo, hi): a third with every argument from
    # _STEP_VALUES, a third uniform, and a third in the loops' own shape,
    # lo < x < hi with g and gp of opposite signs, some on a tied value
    rng = np.random.default_rng(seed)
    special = np.array(_STEP_VALUES)[rng.integers(len(_STEP_VALUES), size=(n, 6))]
    spread = rng.uniform(-1.0, 1.0, size=(n, 6))
    lo, hi = np.sort(rng.uniform(0.0, 1.0, size=(2, n)), axis=0)
    x, xp = lo + (hi - lo) * rng.uniform(size=(2, n))
    g = rng.uniform(-1.0, 1.0, size=n)
    gp = np.where(rng.uniform(size=n) < 0.2, 2.0 * g, -g * rng.uniform(0.0, 4.0, size=n))
    shaped = np.column_stack([x, g, xp, gp, lo, hi])
    pick = rng.integers(3, size=n)[:, None]
    return np.where(pick == 0, special, np.where(pick == 1, spread, shaped))


class TestScalarLane:
    """fixed_point is one lane of grid_fixed_points in floats, bit for bit,
    None included, and its step is _secant_step's."""

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_grids(self, name):
        sc = load_scenario(bundled_scenarios()[name])
        _assert_the_scalar_lane_is_the_lane(_grid(256), sc.q, sc.w, sc.belief_measure)

    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_every_family(self, m):
        for q, w in itertools.product((0.0, 0.3, 0.9, 1.0), (BASELINE_W, 1.0, 1e9)):
            _assert_the_scalar_lane_is_the_lane(_grid(32, 0.5001, 0.9999), q, w, m)

    @pytest.mark.parametrize("kappa", BAND_KAPPAS[1:])
    @pytest.mark.parametrize("m", MONOTONE_ZOO, ids=lambda m: m.kind)
    def test_the_map_falls_from_kappa_to_minus_kappa(self, m, kappa):
        # phi(p) - p on the band, as fixed_point solves it: phi(1 - kappa) = 1
        # and phi(kappa) = 0 exactly, and phi - p nonincreasing between them.
        # The narrowest take, nextafter(0.5, 1), is left out, as in
        # test_the_lanes_map_is_one_and_zero_at_the_band_ends: on wedge(10),
        # wedge(100) and its scaled copy both totals round to 0 at its
        # 1 - kappa, so g is NaN there
        ps = np.linspace(1.0 - kappa, kappa, 1001).tolist()
        for q, w in itertools.product((0.0, 0.3, 0.57, 0.9, 1.0), (BASELINE_W, 1.0)):
            g = equilibrium_mod._composed_map(kappa, q, w, m, _stake_coefficient(kappa, q),
                                              _stake_coefficient(kappa, 1.0 - q))
            assert (g(1.0 - kappa), g(kappa)) == (kappa, -kappa), (q, w)
            values = [g(p) for p in ps]
            assert all(b <= a for a, b in zip(values, values[1:])), (q, w)

    @pytest.mark.parametrize("kappas, q, m", [
        # math.sqrt of a negative product, where np.sqrt gives NaN
        (_grid(25, 0.51, 0.99), 0.1, _rippled()),
        (_grid(25, 0.51, 0.99), 0.9, _rippled()),
        # both totals vanish, and each ratio of them divides by zero
        ([0.6, 0.7], 0.5, scaled(uniform(), 5e-324)),
        # both, on some takes of a wedge whose masses cancel
        (_grid(64, 0.5001, 0.9999), 0.3, wedge(2**53)),
    ], ids=["rippled-0.1", "rippled-0.9", "underflow", "wedge-2**53"])
    def test_takes_the_lanes_leave_to_solve(self, kappas, q, m):
        lanes = _assert_the_scalar_lane_is_the_lane(kappas, q, 1.0, m)
        assert None in lanes

    @pytest.mark.parametrize("sc", scenario_zoo(), ids=lambda sc: sc.name)
    def test_the_totals_are_those_mass_gives(self, sc):
        # fixed_point takes its totals from exact_mass with no interval
        # check: a copy of the measure whose exact_mass goes through mass()
        # gives the same lanes, bit for bit, None included, and mass()
        # rejects none of their intervals
        m = sc.measure
        checked = dataclasses.replace(m, exact_mass=lambda lo, hi: mass(m, lo, hi))
        kappas = _grid(32, 0.5001, 0.9999) + [sc.params.kappa]
        for q, w in itertools.product((0.0, sc.params.q, 1.0), (BASELINE_W, sc.params.w, 1e9)):
            assert [_lane_bits(fixed_point(k, q, w, m)) for k in kappas] \
                == [_lane_bits(fixed_point(k, q, w, checked)) for k in kappas], (q, w)

    def test_the_step_is_secant_step(self):
        states = _secant_states(30000, seed=40)
        x, g, xp, gp, lo, hi = states.T
        with np.errstate(all="ignore"):  # its callers own the errstate
            # each |g| as the callers carry it
            nxt, done = _secant_step(x, g, np.abs(g), xp, gp, np.abs(gp), lo, hi)
        got = [_secant_step_float(*state) for state in states.tolist()]
        assert [(n.hex(), d) for n, d in got] \
            == [(n.hex(), d) for n, d in zip(nxt.tolist(), done.tolist())]
        assert 0 < sum(done.tolist()) < len(got)

    def test_an_error_of_the_measure_propagates(self):
        # only the map's own float errors make a take None: a DomainError,
        # a ValueError too, from the measure leaves fixed_point as it
        # leaves the batch
        def refusing(lo, hi):
            raise DomainError("refused")

        m = dataclasses.replace(uniform(), exact_mass=refusing, exact_mass_array=refusing)
        for run in (lambda: fixed_point(0.75, 0.9, 1.0, m),
                    lambda: grid_fixed_points([0.75], 0.9, 1.0, m)):
            with pytest.raises(DomainError, match="refused"):
                run()


def _record_D_probes(monkeypatch):
    # every (p, kappa) pair _D, _composed_map's map and _D_lanes are called
    # with from now on, the lanes' as arrays
    probes, lanes = [], []
    real_D, real_D_lanes = equilibrium_mod._D, equilibrium_mod._D_lanes
    real_map = equilibrium_mod._composed_map

    def recording_D(p, kappa, m):
        # after the call: a probe that mass() rejects raises and is not kept
        d = real_D(p, kappa, m)
        probes.append((p, kappa))
        return d

    def recording_D_lanes(p, kappa, m):
        lanes.append((p.copy(), kappa.copy()))
        return real_D_lanes(p, kappa, m)

    def recording_map(kappa, *args):
        g = real_map(kappa, *args)

        def recording_g(p):
            gp = g(p)  # after the call, as in recording_D
            probes.append((p, kappa))
            return gp

        return recording_g

    monkeypatch.setattr(equilibrium_mod, "_D", recording_D)
    monkeypatch.setattr(equilibrium_mod, "_D_lanes", recording_D_lanes)
    monkeypatch.setattr(equilibrium_mod, "_composed_map", recording_map)
    return probes, lanes


def _assert_in_band(probes, lanes=()):
    # _D computes its thresholds unclamped, so every probe must lie in the band
    outside = [(p, kappa) for p, kappa in probes if not 1.0 - kappa <= p <= kappa]
    assert not outside, f"{len(outside)} probes outside the band, first {outside[0]}"
    for p, kappa in lanes:
        assert np.all((1.0 - kappa <= p) & (p <= kappa))


def _forget_boundaries():
    # empty the boundary memory, as the test began: the next solve or
    # phi_context then starts both boundaries itself
    equilibrium_mod._last_boundaries[:] = [(None, None, None), (None, None, None)]


def _probe_the_map(params, m, probes):
    # solve, then phi, zeta1 and zeta2 at their interval ends and inside;
    # each rejects float dust past those ends (2**-52 below 1 - kappa, as
    # one float below can round back onto the band's threshold 0). The
    # boundary memory is emptied before solve and before phi_context, and
    # both boundaries finished after each, so probes records every probe of
    # both full bisections twice and every probe of the solve
    _forget_boundaries()
    solve(params, m)
    for boundary in (compute_pbar1, compute_pbar2):  # the solve's, remembered
        boundary(params, m).root()
    _forget_boundaries()
    ctx = phi_context(params, m)
    pbar1, pbar2 = ctx.pbar1.root(), ctx.pbar2.root()
    lo, hi, dust = 1.0 - params.kappa, params.kappa, 5e-10
    for p in (lo, 0.5, hi):
        phi(p, ctx)
    for p in (pbar1, 0.5 * (pbar1 + hi), hi):
        zeta1(p, ctx)
    for p in (lo, 0.5 * (lo + pbar2), pbar2):
        zeta2(p, ctx)
    below, above = (lo - 2.0**-52, lo - dust), (math.nextafter(hi, 1.0), hi + dust)
    for f, outside in ((phi, below + above),
                       (zeta1, (math.nextafter(pbar1, 0.0), pbar1 - dust) + above),
                       (zeta2, below + (math.nextafter(pbar2, 1.0), pbar2 + dust))):
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
        # the probes of a lane handed over to solve are recorded by _D, and
        # those of the last live lanes, finished in floats, by their maps
        sc = load_scenario(bundled_scenarios()[name])
        probes, lanes = _record_D_probes(monkeypatch)
        grid_revenues(_grid(256), sc.q, sc.w, sc.belief_measure)
        _assert_in_band(probes, lanes)
        # 9 to 25 full-width evaluations per grid, and 0 to 50 probes in
        # floats, measured
        assert sum(p.size for p, _ in lanes) >= 256 * 9


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
    # solve with the boundary memory emptied first
    _forget_boundaries()
    return _bits(solve(params, m))


SWEEP_ORDERS = {
    "sweep": lambda takes: [row for take in takes for row in take],
    "reversed": lambda takes: [row for take in takes for row in take][::-1],
    "other budget first": lambda takes: [row for take in takes for row in take[::-1]],
}


class TestRememberedBoundaries:
    """compute_pbar1 and compute_pbar2 each remember their last boundary.

    The key is the measure object (by identity), kappa and q. A hit
    returns the same Boundary, as far as earlier comparisons advanced it,
    and gives the bits a new bisection gives; any other key starts again.
    Each test starts with an empty memory (conftest's autouse fixture), and
    _forget_boundaries empties it again within a test.
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

    @pytest.mark.parametrize("between", ["kappa", "q", "equal measure"])
    def test_another_key_in_between_bisects_again(self, monkeypatch, between):
        m, params = wedge(10), MarketParams(kappa=0.8, q=0.9, w=1.0)
        other = {"kappa": (dataclasses.replace(params, kappa=0.7), m),
                 "q": (dataclasses.replace(params, q=0.6), m),
                 # exact_mass is left out of ==, so this copy compares equal
                 "equal measure": (params, dataclasses.replace(m, exact_mass=m.exact_mass))
                 }[between]
        assert other[1] == m
        probes, _ = _record_D_probes(monkeypatch)

        def solved(params, m):
            # (_D calls, bits) of one solve
            n = len(probes)
            bits = _bits(solve(params, m))
            return len(probes) - n, bits

        first = solved(params, m)
        again = solved(params, m)
        assert again[1] == first[1] and again[0] < first[0]
        solved(*other)
        assert solved(params, m) == first

    def test_another_solve_tolerance_keeps_the_boundaries(self):
        # solve's tolerance is not part of the key: the boundaries bisect to
        # FP_TOL whatever solve is given, so a solve at another tolerance
        # resumes the remembered ones
        m, params = wedge(10), MarketParams(kappa=0.8, q=0.9, w=1.0)
        solve(params, m)
        remembered = [compute_pbar1(params, m), compute_pbar2(params, m)]
        solve(params, m, fp_tol=FP_TOL / 10)
        assert compute_pbar1(params, m) is remembered[0]
        assert compute_pbar2(params, m) is remembered[1]

    @staticmethod
    def _flaky(m, at):
        # m, whose at-th mass call from now on raises, once
        calls = [0]

        def flaky_mass(lo, hi):
            calls[0] += 1
            if calls[0] == at:
                raise DomainError("flaky")
            return m.exact_mass(lo, hi)
        return dataclasses.replace(m, exact_mass=flaky_mass)

    @pytest.mark.parametrize("boundary", [compute_pbar1, compute_pbar2],
                             ids=lambda f: f.__name__)
    def test_a_boundary_that_raises_is_not_remembered(self, monkeypatch, boundary):
        # a boundary starts with both band ends, four mass calls; the third
        # raises, so the entry stays m's
        m, params = wedge(10), MarketParams(kappa=0.8, q=0.6, w=1.0)
        flaky = self._flaky(m, 3)
        probes, _ = _record_D_probes(monkeypatch)
        want = boundary(params, m)
        root = want.root()
        cold_probes = len(probes)
        with pytest.raises(DomainError, match="flaky"):
            boundary(params, flaky)
        # m's entry is still there: no probe
        n = len(probes)
        assert boundary(params, m) is want and len(probes) == n
        # and the measure that raised bisects in full
        assert boundary(params, flaky).root().hex() == root.hex()
        assert len(probes) - n == cold_probes

    @pytest.mark.parametrize("boundary", [compute_pbar1, compute_pbar2],
                             ids=lambda f: f.__name__)
    def test_a_step_that_raises_leaves_the_state_as_it_was(self, monkeypatch, boundary):
        # the ninth mass call is the third midpoint's first; the boundary
        # stays remembered, at its second midpoint, and resumes from there
        m, params = wedge(10), MarketParams(kappa=0.8, q=0.6, w=1.0)
        probes, _ = _record_D_probes(monkeypatch)
        root = boundary(params, m).root()
        cold_probes = len(probes)
        del probes[:]
        flaky = self._flaky(m, 9)
        b = boundary(params, flaky)
        with pytest.raises(DomainError, match="flaky"):
            b.root()
        assert len(probes) == 4  # both band ends and two midpoints
        assert boundary(params, flaky) is b
        assert b.root().hex() == root.hex() and len(probes) == cold_probes

    def test_a_step_the_solve_never_needs_is_never_evaluated(self, monkeypatch):
        # the solve compares phi's probes with the boundaries and steps each
        # only as far as that needs; a _D that raises at a probe only the
        # full bisection takes leaves the solve as it was. Before boundaries
        # stepped on demand, that error ended the solve
        m, params = wedge(10), MarketParams(kappa=0.8, q=0.9, w=1.0)
        probes, _ = _record_D_probes(monkeypatch)
        want = _bits(solve(params, m))
        solved = set(probes)
        _forget_boundaries()
        full = []
        for boundary in (compute_pbar1, compute_pbar2):
            del probes[:]
            boundary(params, m).root()
            full.append([p for p in probes if p not in solved])
        assert full[0] and full[1]
        real_D = equilibrium_mod._D
        for boundary, unneeded in zip((compute_pbar1, compute_pbar2), full):
            p_bad = unneeded[len(unneeded) // 2]

            def raising_D(p, kappa, m):
                if (p, kappa) == p_bad:
                    raise DomainError("never needed")
                return real_D(p, kappa, m)

            with monkeypatch.context() as patch:
                patch.setattr(equilibrium_mod, "_D", raising_D)
                _forget_boundaries()
                assert _bits(solve(params, m)) == want
                _forget_boundaries()
                with pytest.raises(DomainError, match="never needed"):
                    boundary(params, m).root()

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

    @pytest.mark.parametrize("run", [1, 2])
    def test_every_test_starts_with_no_remembered_boundary(self, run):
        # the tests above, and the first run here, leave a solve's
        # boundaries behind; conftest's autouse fixture empties the memory
        # before each test, so a file or test run alone gives the results
        # it gives in the full suite
        assert equilibrium_mod._last_boundaries == [(None, None, None)] * 2
        solve(MarketParams(kappa=0.8, q=0.9, w=1.0), wedge(10))
        assert all(boundary is not None for _, _, boundary in equilibrium_mod._last_boundaries)


def _roots(kappa):
    lo, hi = 1.0 - kappa, kappa
    return {"at 1 - kappa": lo, "inside": lo + (hi - lo) / 3.0, "at kappa": hi}


ROOT_PLACES = list(_roots(0.75))


def _step(p):
    # a decreasing map with no root: +1 below 0.3, -1 from 0.3 on
    return 1.0 if p < 0.3 else -1.0


# per measure, the (q, w) of its take grids: every zoo measure at q = 0,
# 0.5, 1 and its own, and extreme measures at five q, each at both budgets
LANE_ROUND_GRIDS = [
    *(pytest.param(sc.measure, [(q, w) for q in (0.0, 0.5, 1.0, sc.params.q)
                                for w in (BASELINE_W, sc.params.w)], id=sc.name)
      for sc in scenario_zoo()),
    *(pytest.param(m, list(itertools.product((0.0, 0.1, 0.5, 0.9, 1.0), (BASELINE_W, 1.0))),
                   id=name)
      for name, m in (("steep tabulated", tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)])),
                      ("valley tabulated", tabulated([(0.0, 1e6), (0.5, 1e-6), (1.0, 1e6)])),
                      ("1 + 3p^2", from_density(lambda p: 1.0 + 3.0 * p * p)),
                      ("wedge(2**40)", wedge(2**40)),
                      ("symmetrized_wedge(2**20)", symmetrized_wedge(2**20)),
                      ("rippled", _rippled()))),
]


def _no_lane_map(i):
    # _secant_lanes' lane_map where _FLOAT_TAIL is 0, so that no lane is handed over
    raise AssertionError(f"lane {i} handed to the float loop")


class TestBisectionLength:
    """Bisecting the band runs out of floats within 105 midpoints.

    With width_tol = 0 and no residual tolerance, only an exact zero or
    float resolution stops the bisection; the worst case is the root one
    float above 1 - kappa = 2**-53 for kappa = nextafter(1, 0), where floats
    are densest.
    The secant lanes, with no tolerance at all, finish within as many rounds.
    """

    @pytest.mark.parametrize("where", ROOT_PLACES)
    @pytest.mark.parametrize("kappa", BAND_KAPPAS)
    def test_scalar_bisection(self, kappa, where):
        # an exact zero at an end ends the bisection after the two end
        # evaluations, so the longest one has its root one float above
        # 1 - kappa; a root at kappa ends at kappa
        r, probes = _roots(kappa)[where], []
        if where == "at 1 - kappa":
            r = math.nextafter(r, 1.0)

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
    def test_secant_lanes(self, monkeypatch, kappa, where):
        # every round in numpy: no lane is handed to the float loop
        monkeypatch.setattr(equilibrium_mod, "_FLOAT_TAIL", 0)
        r, rounds = _roots(kappa)[where], []

        def g(p):
            rounds.append(p[0])
            return r - p

        root, residual, _ = _secant_lanes(g, np.array([1.0 - kappa]), np.array([kappa]),
                                          _no_lane_map)
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

    @pytest.mark.parametrize("g, root", [(lambda p: min(0.0, 0.5 - p), 0.2),
                                         (lambda p: max(0.0, 0.5 - p), 0.8)],
                             ids=["low end", "high end"])
    def test_an_exact_zero_at_an_end_ends_the_bisection_there(self, g, root):
        # g is 0 from one end to 0.5: that end's zero is the root that both
        # bisections return after the two end evaluations, with no midpoint
        probes = []

        def recorded(p):
            probes.append(p)
            return g(p)

        assert _bisect_decreasing(recorded, 0.2, 0.8, width_tol=0.0) == (root, 0.0)
        assert probes == [0.2, 0.8]
        b = Boundary(recorded, 0.2, 0.8)
        assert b.root() == root and b.span() == (root, root)
        assert probes == [0.2, 0.8] * 2

    @pytest.mark.parametrize("g", [lambda p: 0.5 - p,
                                   lambda p: math.nan if p >= 0.8 else 0.5 - p],
                             ids=["finite ends", "nan at the high end"])
    def test_an_exact_zero_at_a_midpoint_stops_the_bisection(self, g):
        # both ends are nonzero, one of them NaN, which no |g| replaces as
        # the best point: the first midpoint's zero still ends the bisection
        probes = []

        def recorded(p):
            probes.append(p)
            return g(p)

        assert _bisect_decreasing(recorded, 0.2, 0.8, width_tol=0.0) == (0.5, 0.0)
        assert probes == [0.2, 0.8, 0.5]
        b = Boundary(g, 0.2, 0.8)
        assert b.root() == 0.5 and b.span() == (0.5, 0.5)

    def test_lanes_out_of_floats_finish_with_the_scalar_result(self, monkeypatch):
        # |g| is 1 everywhere, so every secant step divides by zero or
        # leaves the bracket: the lanes gallop and halve, every round in
        # numpy, until no float lies inside the bracket around the step at
        # 0.3, and, with no point better than an end, return the low end, as
        # the scalar bisection does
        monkeypatch.setattr(equilibrium_mod, "_FLOAT_TAIL", 0)
        brackets = [(0.2, 0.8), (0.25, 0.3), (0.0, 0.3), (0.2999, 0.5)]
        lo, hi = (np.array(ends) for ends in zip(*brackets))
        rounds = []

        def g(p):
            rounds.append(p.copy())
            return np.where(p < 0.3, 1.0, -1.0)

        root, residual, ok = _secant_lanes(g, lo, hi, _no_lane_map)
        assert ok.all()
        want = [_bisect_decreasing(_step, a, b, width_tol=0.0) for a, b in brackets]
        assert [(r.hex(), e.hex()) for r, e in zip(root.tolist(), residual.tolist())] \
            == [(r.hex(), e.hex()) for r, e in want]
        assert len(rounds) - 2 <= 105
        assert set(rounds[-1].tolist()) <= {math.nextafter(0.3, 0.0), 0.3}

    @pytest.mark.parametrize("m, markets", LANE_ROUND_GRIDS)
    def test_every_take_grid_lane_finishes_within_the_bisection_cap(self, monkeypatch,
                                                                     m, markets):
        # the secant lanes take no more rounds than bisecting the band can,
        # counting a lane's rounds in floats after the hand-over with those
        # at full width before it. Measured on these 220 256-take grids: a
        # median of 10 rounds, at most 66 (wedge(2**40) at q = 0.9, w = 1)
        full, tail = [], []
        real_lanes, real_tail = equilibrium_mod._phi_lanes, equilibrium_mod._secant_float

        def counting_lanes(*args):
            full[-1] += 1
            return real_lanes(*args)

        def counting_tail(g, *state):
            # a lane's rounds in floats, by its map evaluations
            evals = 0

            def counted(p):
                nonlocal evals
                evals += 1
                return g(p)

            try:
                return real_tail(counted, *state)
            finally:
                tail[-1] = max(tail[-1], evals)

        monkeypatch.setattr(equilibrium_mod, "_phi_lanes", counting_lanes)
        monkeypatch.setattr(equilibrium_mod, "_secant_float", counting_tail)
        for q, w in markets:
            full.append(-2)  # the band ends
            tail.append(0)
            grid_fixed_points(_grid(256, 0.5001, 0.9999), q, w, m)
        # every lane handed over finishes after the last full-width round
        rounds = [a + b for a, b in zip(full, tail)]
        assert max(rounds) <= 105, max(rounds)

    def test_the_bound_is_reached(self):
        # the root lies one float above 1 - kappa = 2**-53, where an exact
        # zero at the end cannot end the bisection early
        kappa, count = math.nextafter(1.0, 0.0), [0]
        r = math.nextafter(1.0 - kappa, 1.0)

        def g(p):
            count[0] += 1
            return r - p

        _bisect_decreasing(g, 1.0 - kappa, kappa, width_tol=0.0)
        assert count[0] == 107  # two endpoints and 105 midpoints


# _FLOAT_TAIL values: no lane handed over, the last one, the count in use,
# and every lane from the first round
FLOAT_TAILS = [0, 1, equilibrium_mod._FLOAT_TAIL, 2**31]


def _lanes_at_every_float_tail(monkeypatch, kappas, q, w, m):
    # grid_fixed_points' lanes as hex at each FLOAT_TAILS count, which must
    # all agree; and how many lanes each count finished in floats
    got, finished = [], []
    real_tail = equilibrium_mod._secant_float

    def counting_tail(*args):
        finished[-1] += 1
        return real_tail(*args)

    monkeypatch.setattr(equilibrium_mod, "_secant_float", counting_tail)
    for count in FLOAT_TAILS:
        monkeypatch.setattr(equilibrium_mod, "_FLOAT_TAIL", count)
        finished.append(0)
        got.append([_lane_bits(lane) for lane in grid_fixed_points(kappas, q, w, m)])
    assert all(lanes == got[0] for lanes in got[1:])
    assert finished[0] == 0 and finished[-1] >= max(finished)
    return got[0], finished


class TestFloatTail:
    """_secant_lanes finishes its last live lanes in floats, each from its
    exact state, by fixed_point's loop: no hand-over count moves a bit."""

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_take_grids(self, monkeypatch, name):
        sc = load_scenario(bundled_scenarios()[name])
        for points in (16, 256, 1000):
            _, finished = _lanes_at_every_float_tail(monkeypatch, _grid(points), sc.q,
                                                     sc.w, sc.belief_measure)
            # every lane starts live, so a count of the full width hands
            # over all of them before the first round
            assert finished[-1] == points

    @pytest.mark.parametrize("m, markets", LANE_ROUND_GRIDS)
    def test_lane_round_measures(self, monkeypatch, m, markets):
        for q, w in markets:
            _lanes_at_every_float_tail(monkeypatch, _grid(64, 0.5001, 0.9999), q, w, m)

    @pytest.mark.parametrize("kappas, q, m", [
        (_grid(25, 0.51, 0.99), 0.1, _rippled()),
        (_grid(25, 0.51, 0.99), 0.9, _rippled()),
        ([0.6, 0.7], 0.5, scaled(uniform(), 5e-324)),
        (_grid(64, 0.5001, 0.9999), 0.3, wedge(2**53)),
    ], ids=["rippled-0.1", "rippled-0.9", "underflow", "wedge-2**53"])
    def test_takes_the_lanes_leave_to_solve(self, monkeypatch, kappas, q, m):
        lanes, _ = _lanes_at_every_float_tail(monkeypatch, kappas, q, 1.0, m)
        assert None in lanes


class TestErrstateOwnership:
    """The secant loops, _secant_lanes' and discretize's, each enter
    np.errstate once for their whole loop, so _secant_step need not, and
    grid_fixed_points once for its whole solve: under all="raise" nothing
    raises, and the bits are those under numpy's defaults (whose warnings
    this suite turns into errors)."""

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_take_grids_searches_and_populations(self, name):
        sc = load_scenario(bundled_scenarios()[name])
        m = sc.belief_measure

        def run():
            lanes = [_lane_bits(lane) for lane in grid_fixed_points(_grid(256), sc.q, sc.w, m)]
            opt = optimize_take(m, sc.q, sc.w)
            search = [x.hex() for x in (opt.kappa_star, opt.revenue_star,
                                        *(x for pt in opt.profile for x in pt))]
            return lanes, search, discretize(m, 2000).beliefs.tobytes()

        with np.errstate(all="raise"):
            raised = run()
        assert raised == run()

    @pytest.mark.parametrize("m", [
        scaled(uniform(), 5e-324), wedge(2**40),
        tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)])],
        ids=["underflow", "wedge(2**40)", "steep tabulated"])
    def test_take_grid_on_extreme_measures(self, m):
        # grid_fixed_points' own errstate covers the totals it takes after
        # _secant_lanes' loop: on the first measure they underflow
        def run():
            return [_lane_bits(lane) for lane in grid_fixed_points(_grid(64), 0.3, 1.0, m)]

        with np.errstate(all="raise"):
            raised = run()
        assert raised == run()


def _noisy(r, eps):
    # r - p plus a deterministic noise of size eps that is not monotone in p
    def g(p):
        return (r - p) + eps * ((int(p * 2.0**60) * 2654435761 % 1009) / 1009.0 - 0.5)
    return g


# decreasing or nearly decreasing g, each with a trap for a step that is
# not exact: exact zeros at a midpoint and at an end, flat runs whose |g|
# ties, noise that is not monotone, a step with no root, and NaN
ADVERSARIAL_G = {
    "linear": lambda p: 0.3 - p,
    "zero at the first midpoint": lambda p: 0.5 - p,
    "flat runs with ties": lambda p: math.floor((0.37 - p) * 8.0) / 8.0,
    "zero at the low end": lambda p: min(0.0, 0.2 - p),
    "noise 1e-9": _noisy(0.3, 1e-9),
    "noise 1e-15": _noisy(0.3, 1e-15),
    "step with no root": _step,
    "nan at the high end": lambda p: math.nan if p >= 0.8 else 0.3 - p,
}
# the band of kappa = 0.8, a narrow and a one-float bracket, a bracket
# a few floats wide at 0.3, and the widest band, at nextafter(1, 0)
ADVERSARIAL_BRACKETS = [(0.2, 0.8), (0.25, 0.3), (0.3, math.nextafter(0.3, 1.0)),
                        (math.nextafter(0.3, 0.0) - 2e-17, 0.3 + 3e-17),
                        (2.0**-53, math.nextafter(1.0, 0.0))]


def test_inside_is_the_nextafter_clamp():
    # _inside(x, lo, hi) against the np.nextafter clamp it replaces, on
    # every bracket 0 <= lo < hi of bounds that include +0.0, subnormals,
    # the least normal float and infinity, and seeds that are NaN,
    # infinite, signed zeros, the bounds themselves or outside them
    bounds = [0.0, 5e-324, 1e-323, 1e-310, math.nextafter(2.0**-1022, 0.0), 2.0**-1022,
              0.3, math.nextafter(0.3, 1.0), 1.0, 1.7e308, math.inf]
    lo, hi = np.array([(a, b) for a in bounds for b in bounds if a < b]).T
    seeds = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 0.3, 2.0, 1e308]
    x = np.concatenate([np.full(lo.size, s) for s in seeds]
                       + [lo, hi, 0.5 * (lo + hi), lo - 1.0, hi + 1.0])
    lo, hi = np.tile(lo, len(seeds) + 5), np.tile(hi, len(seeds) + 5)
    want = np.fmax(np.fmin(x, np.nextafter(hi, lo)), np.nextafter(lo, hi))
    got = _inside(x, lo, hi)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert np.all((lo < got) & (got < hi) | (np.nextafter(lo, hi) == hi))


def _floats_around(x, n=8):
    # x and the n floats on either side of it: 2 n + 1 consecutive floats
    out, down, up = [x], x, x
    for _ in range(n):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return sorted(out)


def _assert_decided_as_finished(start, lo, hi):
    # start() begins one bisection afresh. At 17 consecutive floats around
    # its root and around each bracket end, below and above, asked of a
    # fresh boundary in either order and of one shared by every probe,
    # agree with the finished root
    root, shared = start().root(), start()
    probes = _floats_around(root) + _floats_around(lo) + _floats_around(hi)
    for i, p in enumerate(probes):
        want = {"below": root < p, "above": root > p}
        b = start()
        for side in (("below", "above") if i % 2 else ("above", "below")):
            assert getattr(b, side)(p) == want[side], (side, p, root)
            assert getattr(shared, side)(p) == want[side], (side, p, root)
    assert shared.root().hex() == b.root().hex() == root.hex()


class TestBoundary:
    """A Boundary takes _bisect_decreasing's steps and decides exactly."""

    @pytest.mark.parametrize("lo, hi", ADVERSARIAL_BRACKETS)
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_G))
    def test_root_is_the_bisection_root_bit_for_bit(self, name, lo, hi):
        # one step at a time takes the same probes as the whole loop to
        # FP_TOL, in the same order, and gives the same root
        g, probes = ADVERSARIAL_G[name], ([], [])

        def recorded(k):
            def h(p):
                probes[k].append(p)
                return g(p)
            return h

        want, _ = _bisect_decreasing(recorded(0), lo, hi, FP_TOL)
        got = Boundary(recorded(1), lo, hi).root()
        assert got.hex() == want.hex()
        assert probes[1] == probes[0]
        _assert_decided_as_finished(lambda: Boundary(g, lo, hi), lo, hi)

    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_comparisons_agree_with_the_root_on_every_family(self, m):
        # q = 0 and q = 1 pin a boundary to a band end, where an exact zero
        # finishes its bisection before any step
        for kappa in (0.5001, 0.55, 0.8, 0.95, 0.9999):
            for q in (0.0, 0.3, 0.9, 1.0):
                params = MarketParams(kappa=kappa, q=q, w=1.0)
                for boundary in (compute_pbar1, compute_pbar2):
                    # a copy of the measure is a key no boundary holds
                    _assert_decided_as_finished(
                        lambda: boundary(params, dataclasses.replace(m)),
                        1.0 - kappa, kappa)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_comparisons_agree_with_the_root_on_the_bundled_sweeps(self, name):
        sc = load_scenario(bundled_scenarios()[name])
        for kappa in sc.kappa.kappas():
            params = MarketParams(kappa=kappa, q=sc.q, w=sc.w)
            for boundary in (compute_pbar1, compute_pbar2):
                _assert_decided_as_finished(
                    lambda: boundary(params, dataclasses.replace(sc.belief_measure)),
                    1.0 - kappa, kappa)

    def test_the_order_check_agrees_with_the_finished_roots(self):
        # every ordered pair of the adversarial g on one bracket; the step
        # with no root keeps its best point at the low end, outside the
        # bracket it shrinks toward 0.3
        start = {name: (lambda g=g: Boundary(g, 0.2, 0.8)) for name, g in ADVERSARIAL_G.items()}
        roots = {name: s().root() for name, s in start.items()}
        for low, high in itertools.product(start, repeat=2):
            assert _ordered(start[low](), start[high]()) == (roots[low] < roots[high]), \
                (low, high)

    def test_repr_shows_the_state_and_the_package_does_not_export_the_class(self):
        b = Boundary(lambda p: 0.3 - p, 0.2, 0.8)
        assert repr(b) == "Boundary(bracket=(0.2, 0.8), best=0.2)"
        assert b.below(0.5) and repr(b) == "Boundary(bracket=(0.2, 0.5), best=0.2)"
        root = b.root()
        assert repr(b) == f"Boundary(root={root!r})"
        assert repr(Boundary(lambda p: 0.5 - p, 0.2, 0.5)) == "Boundary(root=0.5)"
        # the boundary machinery is internal to the solver, and so is phi,
        # which needs a PhiContext from it
        assert not hasattr(parieq, "Boundary") and not hasattr(parieq, "phi")

    def test_span_is_the_min_max_form_on_random_states(self):
        # ties and signed zeros included; a best point may lie outside the
        # bracket, as a band end can after the bracket has left it
        rng = random.Random(0)
        pool = [0.0, -0.0, 0.2, 0.3, 0.5, math.nextafter(0.3, 1.0), 0.8]
        b = Boundary(lambda p: 0.5 - p, 0.2, 0.5)
        for _ in range(4000):
            lo, hi, best_p = (rng.choice(pool) if rng.random() < 0.5 else rng.random()
                              for _ in range(3))
            done = rng.random() < 0.2
            b._state = (lo, hi, best_p, 0.0, done)
            want = (best_p, best_p) if done else (min(lo, best_p), max(hi, best_p))
            assert [x.hex() for x in b.span()] == [x.hex() for x in want], b._state

    def test_the_order_check_raises_with_the_finished_roots(self):
        # on this steep wedge both true boundaries lie within FP_TOL of the
        # band's low end, and both bisect to the same midpoint: the spans
        # never separate, so both finish, and the message names the roots
        # that the full bisections give
        params, m = MarketParams(kappa=0.6, q=0.01, w=1.0), wedge(2**20)
        with pytest.raises(DomainError) as raised:
            phi_context(params, m)
        roots = [b(params, m).root() for b in (compute_pbar2, compute_pbar1)]
        assert roots == [0.4000000000931323] * 2
        assert str(raised.value) == (f"action boundaries out of order: pbar2={roots[0]} >= "
                                     f"pbar1={roots[1]}")
