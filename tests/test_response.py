"""Best-response layer: threshold profile, large-bettor optimum, profit map.

The closed-form large-bettor response is validated against independent
numeric maximization (scipy bounded search and brute-force simplex sampling)
and against finite-difference optimality conditions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from parieq.errors import DomainError
from parieq.response import (AtomicBet, DiffuseAggregate, MarketParams,
                             atomic_best_response, atomic_profit,
                             diffuse_best_response, diffuse_unit_edge,
                             implied_probability)

# frozen from independent maximization of the profit map (bounded scalar
# search and a 401x401 simplex grid agree to 6 decimal places)
BR_CASE = dict(d=DiffuseAggregate(1.0, 1.0),
               params=MarketParams(kappa=0.9, q=0.9, w=10.0))
BR_ARGMAX = 1.064741604835056  # sqrt(0.81/0.19) - 1
BR_VALUE = 0.215398190162679


class TestMarketParams:
    @pytest.mark.parametrize("kwargs", [
        dict(kappa=0.0, q=0.5, w=1.0),
        dict(kappa=1.0, q=0.5, w=1.0),
        dict(kappa=0.8, q=-0.1, w=1.0),
        dict(kappa=0.8, q=1.1, w=1.0),
        dict(kappa=0.8, q=0.5, w=0.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            MarketParams(**kwargs)

    def test_negative_wagers_rejected(self):
        with pytest.raises(DomainError):
            DiffuseAggregate(-0.1, 1.0)
        with pytest.raises(DomainError):
            AtomicBet(0.0, -1e-9)


class TestImpliedProbability:
    def test_symmetric_pool(self):
        assert implied_probability(DiffuseAggregate(1, 1), AtomicBet(0, 0)) == 0.5

    def test_with_large_bet(self):
        # stake below is the unconstrained optimum at these totals,
        # cross-checked by the solver tests
        got = implied_probability(DiffuseAggregate(0.125, 0.625),
                                  AtomicBet(0.3232107285003978, 0.0))
        assert got == pytest.approx(0.41763534094248633, abs=1e-12)

    def test_empty_pool(self):
        with pytest.raises(DomainError, match="empty pool"):
            implied_probability(DiffuseAggregate(0, 0), AtomicBet(0, 0))


class TestDiffuseBestResponse:
    def test_interior_thresholds(self):
        t = diffuse_best_response(0.5, 0.8)
        assert t.bet1_above == pytest.approx(0.625, abs=1e-15)
        assert t.bet2_below == pytest.approx(0.375, abs=1e-15)

    def test_upper_boundary_empties_outcome1(self):
        t = diffuse_best_response(0.8, 0.8)
        assert t.bet1_above == pytest.approx(1.0, abs=1e-15)

    def test_lower_boundary_empties_outcome2(self):
        t = diffuse_best_response(0.2, 0.8)
        assert t.bet2_below == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            diffuse_best_response(0.0, 0.8)
        with pytest.raises(DomainError):
            diffuse_best_response(0.5, 1.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(P=st.floats(1e-6, 1 - 1e-6), kappa=st.floats(1e-6, 1 - 1e-6))
    def test_groups_never_overlap(self, P, kappa):
        t = diffuse_best_response(P, kappa)
        assert t.bet2_below < t.bet1_above


class TestDiffuseUnitEdge:
    def test_zero_edge_at_threshold(self):
        P, kappa = 0.46, 0.77
        e1, _ = diffuse_unit_edge(P / kappa, P, kappa)
        assert e1 == pytest.approx(0.0, abs=1e-14)

    def test_point_values(self):
        assert diffuse_unit_edge(1.0, 0.5, 0.8) == pytest.approx((0.6, -1.0))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=st.floats(0, 1), P=st.floats(1e-3, 1 - 1e-3),
           kappa=st.floats(1e-3, 1 - 1e-3))
    def test_at_most_one_positive_edge(self, p, P, kappa):
        e1, e2 = diffuse_unit_edge(p, P, kappa)
        assert not (e1 > 0 and e2 > 0)


class TestAtomicProfit:
    def test_no_bet_no_profit(self):
        assert atomic_profit(AtomicBet(0, 0), DiffuseAggregate(1, 2),
                             MarketParams(kappa=0.8, q=0.3, w=1)) == 0.0

    def test_negative_edge_always_loses(self):
        params = MarketParams(kappa=0.5, q=0.5, w=10.0)
        d = DiffuseAggregate(1.0, 1.0)
        for x in np.linspace(0.01, 10, 200):
            assert atomic_profit(AtomicBet(x, 0.0), d, params) < 0.0

    def test_maximum_value_matches_numeric_search(self):
        f = lambda b: -atomic_profit(AtomicBet(b, 0.0), BR_CASE["d"], BR_CASE["params"])
        res = optimize.minimize_scalar(f, bounds=(0.0, 10.0), method="bounded",
                                       options={"xatol": 1e-12})
        assert -res.fun == pytest.approx(BR_VALUE, abs=1e-9)
        assert res.x == pytest.approx(BR_ARGMAX, abs=1e-6)
        got = atomic_profit(AtomicBet(BR_ARGMAX, 0.0), BR_CASE["d"], BR_CASE["params"])
        assert got == pytest.approx(BR_VALUE, abs=1e-12)

    def test_requires_two_sided_totals(self):
        with pytest.raises(DomainError):
            atomic_profit(AtomicBet(1, 0), DiffuseAggregate(0.0, 1.0),
                          MarketParams(kappa=0.8, q=0.5, w=1))


def _random_market(rng):
    return (DiffuseAggregate(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)),
            MarketParams(kappa=rng.uniform(0.05, 0.95), q=rng.uniform(0, 1),
                         w=rng.uniform(0.05, 4.0)))


class TestAtomicBestResponse:
    def test_interior_optimum(self):
        bet = atomic_best_response(BR_CASE["d"], BR_CASE["params"])
        assert bet.a2 == 0.0
        assert bet.a1 == pytest.approx(BR_ARGMAX, abs=1e-12)

    def test_budget_cap(self):
        bet = atomic_best_response(DiffuseAggregate(1, 1),
                                   MarketParams(kappa=0.9, q=0.9, w=0.5))
        assert (bet.a1, bet.a2) == (0.5, 0.0)

    def test_abstains_without_edge(self):
        bet = atomic_best_response(DiffuseAggregate(1, 1),
                                   MarketParams(kappa=0.8, q=0.5, w=1.0))
        assert (bet.a1, bet.a2) == (0.0, 0.0)

    def test_regime_boundary_stake_rounds_to_zero_not_negative(self):
        # one ulp inside regime 1 the square-root stake rounds to -2.2e-16
        bet = atomic_best_response(
            DiffuseAggregate(1.4926235859236399, 1.3795007634212288),
            MarketParams(0.9202911174189196, 0.5647052570655062, 1.0))
        assert bet == AtomicBet(0.0, 0.0)

    def test_requires_two_sided_totals(self):
        with pytest.raises(DomainError):
            atomic_best_response(DiffuseAggregate(1.0, 0.0),
                                 MarketParams(kappa=0.8, q=0.5, w=1))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d1=st.floats(1e-3, 5), d2=st.floats(1e-3, 5),
           kappa=st.floats(1e-3, 1 - 1e-3), q=st.floats(0, 1))
    def test_bet_regimes_mutually_exclusive(self, d1, d2, kappa, q):
        on1 = q > d1 / (kappa * (d1 + d2))
        on2 = (1 - q) > d2 / (kappa * (d1 + d2))
        assert not (on1 and on2)

    def test_beats_random_feasible_deviations(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d, params = _random_market(rng)
            best = atomic_profit(atomic_best_response(d, params), d, params)
            for _ in range(2000):
                b1 = rng.uniform(0.0, params.w)
                b2 = rng.uniform(0.0, params.w - b1)
                assert best >= atomic_profit(AtomicBet(b1, b2), d, params) - 1e-9

    def test_interior_first_order_condition(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 10:
            d, params = _random_market(rng)
            bet = atomic_best_response(d, params)
            if not (0 < bet.a1 < params.w - 1e-9):
                continue
            h = 1e-5
            deriv = (atomic_profit(AtomicBet(bet.a1 + h, 0.0), d, params)
                     - atomic_profit(AtomicBet(bet.a1 - h, 0.0), d, params)) / (2 * h)
            assert abs(deriv) < 1e-6
            checked += 1

    def test_profit_curvature_signs(self):
        # own-direction concavity and positive cross effect, by differences
        rng = np.random.default_rng(13)
        h = 1e-4
        for _ in range(10):
            d, params = _random_market(rng)
            b1 = rng.uniform(0.1, 1.0)
            b2 = rng.uniform(0.1, 1.0)
            if params.q == 0.0 or params.q == 1.0:
                continue

            def f(x, y):
                return atomic_profit(AtomicBet(x, y), d, params)

            d11 = (f(b1 + h, b2) - 2 * f(b1, b2) + f(b1 - h, b2)) / h**2
            d21 = (f(b1 + h, b2 + h) - f(b1 + h, b2 - h)
                   - f(b1 - h, b2 + h) + f(b1 - h, b2 - h)) / (4 * h**2)
            assert d11 < 0.0
            assert d21 > 0.0
