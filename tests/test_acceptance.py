"""Acceptance suite: one test per release criterion, with a printed verdict.

Every criterion runs at its stated tolerance. Expected values marked as
"frozen" were computed beforehand with an independent scipy-based pipeline
(quad + brentq on the same definitions) and are not recycled from the
implementation under test.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (BASELINE_W, assert_equilibrium_properties, bundled_cases,
                      scenario_zoo)
from parieq.cli import main
from parieq.equilibrium import phi, phi_context, solve
from parieq.errors import NoEquilibriumError
from parieq.measure import symmetrized_wedge, uniform, wedge
from parieq.metrics import (diffuse_actual_profit, diffuse_subjective_profit,
                            house_revenue)
from parieq.oracle import discretize, iterate_best_response
from parieq.response import (AtomicBet, DiffuseAggregate, MarketParams,
                             atomic_best_response, atomic_profit)
from parieq.scenario import bundled_scenarios, load_scenario
from parieq.stackelberg import optimize_take

KAPPA_GRID_50 = np.linspace(0.5001, 0.9999, 50)


@contextmanager
def verdict(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({title}): PASS")


def test_criterion_01_existence_boundary():
    with verdict(1, "existence boundary"):
        for kappa in (0.3, 0.5):
            with pytest.raises(NoEquilibriumError):
                solve(MarketParams(kappa=kappa, q=0.7, w=1.0), uniform())
        for sc in bundled_cases():
            for kappa in (0.501, 0.7, 0.99):
                params = MarketParams(kappa=kappa, q=sc.params.q, w=sc.params.w)
                start = time.perf_counter()
                eq = solve(params, sc.measure)
                elapsed = time.perf_counter() - start
                assert elapsed < 1.0, f"{sc.name}@{kappa}: {elapsed:.2f}s"
                assert eq.residual <= 1e-10, f"{sc.name}@{kappa}: {eq.residual}"


def test_criterion_02_bounds_and_limit():
    with verdict(2, "bounds and the balanced-take limit"):
        for sc in bundled_cases():
            for kappa in KAPPA_GRID_50:
                params = MarketParams(kappa=float(kappa), q=sc.params.q,
                                      w=sc.params.w)
                eq = solve(params, sc.measure)
                assert 1.0 - kappa < eq.p_star < kappa, f"{sc.name}@{kappa}"
            params = MarketParams(kappa=0.501, q=sc.params.q, w=sc.params.w)
            eq = solve(params, sc.measure)
            assert abs(eq.p_star - 0.5) < 0.001, f"{sc.name}@0.501: {eq.p_star}"


def test_criterion_03_one_sided_population_replication():
    with verdict(3, "one-sided population tracks 1 - kappa"):
        m = wedge(100)
        start = time.perf_counter()
        for kappa in (0.55, 0.65, 0.75, 0.85, 0.95):
            eq = solve(MarketParams(kappa=kappa, q=0.0, w=1.0), m)
            assert abs(eq.p_star - (1.0 - kappa)) < 0.02, f"kappa={kappa}"
        assert time.perf_counter() - start < 5.0


def test_criterion_04_example1_envelope():
    with verdict(4, "example 1 envelope and crowding-out"):
        m = uniform()
        for kappa in KAPPA_GRID_50:
            eq = solve(MarketParams(kappa=float(kappa), q=0.9, w=1.0), m)
            assert 0.5 <= eq.p_star <= 0.7, f"kappa={kappa}: {eq.p_star}"
        params_big = MarketParams(kappa=0.95, q=0.9, w=1.0)
        params_tiny = MarketParams(kappa=0.95, q=0.9, w=BASELINE_W)
        profit_big = diffuse_actual_profit(solve(params_big, m), params_big, 0.9)
        profit_tiny = diffuse_actual_profit(solve(params_tiny, m), params_tiny, 0.9)
        assert profit_big < profit_tiny


def test_criterion_05_example2_envelope():
    with verdict(5, "example 2 envelope and wrong-side benefit"):
        m = uniform()
        for kappa in KAPPA_GRID_50:
            eq = solve(MarketParams(kappa=float(kappa), q=0.57, w=1.0), m)
            assert 0.5 <= eq.p_star <= 0.53, f"kappa={kappa}: {eq.p_star}"
        params_big = MarketParams(kappa=0.97, q=0.57, w=1.0)
        params_tiny = MarketParams(kappa=0.97, q=0.57, w=BASELINE_W)
        profit_big = diffuse_actual_profit(solve(params_big, m), params_big, 0.47)
        profit_tiny = diffuse_actual_profit(solve(params_tiny, m), params_tiny, 0.47)
        assert profit_big > profit_tiny


def test_criterion_06_example3_revenue_dominance():
    with verdict(6, "example 3 revenue dominance"):
        m = wedge(10)
        for kappa in KAPPA_GRID_50:
            params_big = MarketParams(kappa=float(kappa), q=0.95, w=1.0)
            params_tiny = MarketParams(kappa=float(kappa), q=0.95, w=BASELINE_W)
            rev_big = house_revenue(solve(params_big, m), params_big)
            rev_tiny = house_revenue(solve(params_tiny, m), params_tiny)
            assert rev_big >= rev_tiny - 1e-9, f"kappa={kappa}"


def test_criterion_07_example4_take_optimization():
    with verdict(7, "example 4 take optima and high-take profit"):
        start = time.perf_counter()
        case1 = optimize_take(symmetrized_wedge(100), q=1.0, w=BASELINE_W)
        case2 = optimize_take(wedge(100), q=1.0, w=1.0)
        assert time.perf_counter() - start < 60.0
        assert case1.kappa_star == pytest.approx(0.506, abs=0.005)
        assert case2.kappa_star == pytest.approx(0.839, abs=0.005)
        params = MarketParams(kappa=0.839, q=1.0, w=1.0)
        profit_high = diffuse_subjective_profit(solve(params, wedge(100)),
                                                params, wedge(100))
        assert profit_high == pytest.approx(0.023, abs=0.002)


@pytest.mark.xfail(strict=True,
                   reason="stated criterion misattributes the low-take profit "
                          "figure: at kappa=0.506 the with-large-bettor market "
                          "(case 2) yields ~3e-6, and the 0.0085 figure belongs "
                          "to the tiny-budget market (case 1) at its own "
                          "optimal take; see the corrected test below")
def test_criterion_07_spec_literal_case2_profit_at_low_take():
    with verdict(7, "example 4 case-2 profit at kappa=0.506, literal wording"):
        params = MarketParams(kappa=0.506, q=1.0, w=1.0)
        profit = diffuse_subjective_profit(solve(params, wedge(100)),
                                           params, wedge(100))
        assert profit == pytest.approx(0.0085, abs=0.002), f"actual: {profit}"


def test_criterion_07_corrected_low_take_profit_attribution():
    # the 0.0085 figure reproduces in the tiny-budget market at its optimal
    # take (frozen independent value 0.008542); the with-large-bettor market
    # is nearly zero there (frozen 3.3e-6), matching the narrative that its
    # small bettors see almost no edge until the take drops far enough
    with verdict(7, "example 4 low-take profit, corrected attribution"):
        m1 = symmetrized_wedge(100)
        params1 = MarketParams(kappa=0.506, q=1.0, w=BASELINE_W)
        profit_case1 = diffuse_subjective_profit(solve(params1, m1), params1, m1)
        assert profit_case1 == pytest.approx(0.0085, abs=0.002)
        assert profit_case1 == pytest.approx(0.008542, abs=1e-4)
        m2 = wedge(100)
        params2 = MarketParams(kappa=0.506, q=1.0, w=1.0)
        profit_case2 = diffuse_subjective_profit(solve(params2, m2), params2, m2)
        assert abs(profit_case2) < 1e-4


def test_criterion_08_discrete_oracle_agreement():
    with verdict(8, "finite-population oracle agreement"):
        cases = [
            ("example1", wedge(1), 0.9, 1.0, 0.8),
            ("example1", wedge(1), 0.9, 1.0, 0.95),
            ("example2", wedge(1), 0.57, 1.0, 0.97),
            ("example3", wedge(10), 0.95, 1.0, 0.9),
            ("example4_case1", symmetrized_wedge(100), 1.0, BASELINE_W, 0.506),
            ("example4_case2", wedge(100), 1.0, 1.0, 0.839),
        ]
        for name, m, q, w, kappa in cases:
            params = MarketParams(kappa=kappa, q=q, w=w)
            eq = solve(params, m)
            pop = discretize(m, 2000)
            res = iterate_best_response(pop, params)
            assert res.converged, f"{name}@{kappa}"
            gap = abs(res.p_approx - eq.p_star)
            assert gap < 0.01, f"{name}@{kappa}: gap={gap}"


def test_criterion_09_property_suites():
    with verdict(9, "response-map and best-response properties"):
        zoo = scenario_zoo(20)
        # decreasing response map on a 512-point grid, all random scenarios
        for sc in zoo:
            ctx = phi_context(sc.params, sc.measure)
            kappa = sc.params.kappa
            grid = np.linspace(1.0 - kappa, kappa, 512)
            vals = [phi(float(p), ctx) for p in grid]
            bad = [i for i, (a, b) in enumerate(zip(vals, vals[1:]))
                   if b > a + 1e-9]
            assert not bad, f"{sc.name}: increases at grid indices {bad[:3]}"
        # wager/edge sign equivalences and regular betting on every solve
        for sc in zoo + bundled_cases():
            eq = solve(sc.params, sc.measure)
            assert_equilibrium_properties(eq, sc.params)
            kappa = sc.params.kappa
            for p in np.linspace(0.0, 1.0, 101):
                edge1 = kappa * p / eq.p_star - 1.0
                edge2 = kappa * (1.0 - p) / (1.0 - eq.p_star) - 1.0
                assert (edge1 > 0) == (p > eq.thresholds.bet1_above)
                assert (edge2 > 0) == (p < eq.thresholds.bet2_below)
        # optimal wager beats 10,000 random feasible deviations
        rng = np.random.default_rng(20250811)
        for _ in range(3):
            d = DiffuseAggregate(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
            params = MarketParams(kappa=rng.uniform(0.55, 0.95),
                                  q=rng.uniform(0.0, 1.0),
                                  w=rng.uniform(0.2, 3.0))
            best = atomic_profit(atomic_best_response(d, params), d, params)
            for _ in range(10_000):
                b1 = rng.uniform(0.0, params.w)
                b2 = rng.uniform(0.0, params.w - b1)
                assert best >= atomic_profit(AtomicBet(b1, b2), d, params) - 1e-9
        # first-order condition at interior optima, by central differences
        checked = 0
        while checked < 8:
            d = DiffuseAggregate(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
            params = MarketParams(kappa=rng.uniform(0.55, 0.95),
                                  q=rng.uniform(0.0, 1.0),
                                  w=rng.uniform(0.2, 3.0))
            bet = atomic_best_response(d, params)
            h = 1e-5
            if bet.a1 > h and bet.a1 < params.w - h:
                deriv = (atomic_profit(AtomicBet(bet.a1 + h, 0.0), d, params)
                         - atomic_profit(AtomicBet(bet.a1 - h, 0.0), d, params)
                         ) / (2 * h)
            elif bet.a2 > h and bet.a2 < params.w - h:
                deriv = (atomic_profit(AtomicBet(0.0, bet.a2 + h), d, params)
                         - atomic_profit(AtomicBet(0.0, bet.a2 - h), d, params)
                         ) / (2 * h)
            else:
                continue
            assert abs(deriv) < 1e-6
            checked += 1


def test_criterion_10_sweep_determinism(tmp_path):
    with verdict(10, "byte-identical sweep reruns"):
        scenario = bundled_scenarios()["example2"]
        load_scenario(scenario)  # config must be valid before timing anything
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        for out in (out1, out2):
            code = main(["sweep", "--scenario", str(scenario),
                         "--out", str(out), "--baseline"])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("# schema=1\n")
