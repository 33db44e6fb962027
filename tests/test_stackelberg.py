"""Take optimization: grid-plus-refinement search over the retention fraction."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import parieq.equilibrium as equilibrium_mod
import parieq.stackelberg as stackelberg_mod
from parieq.equilibrium import FP_TOL, solve
from parieq.errors import DomainError
from parieq.measure import gaussian_mixture, scaled, uniform
from parieq.metrics import house_revenue
from parieq.response import MarketParams
from parieq.scenario import build_measure, bundled_scenarios, load_scenario
from parieq.stackelberg import (_INV_GOLDEN, _REFINE_TOL, KAPPA_SEARCH_HI,
                                KAPPA_SEARCH_LO, TakeOptimum, optimize_take)

REFERENCE_TAKES = (Path(__file__).resolve().parents[1]
                   / "benchmarks" / "reference" / "take_search.json")


def scalar_optimize_take(measure, q, w, grid_points=256, fp_tol=FP_TOL):
    """optimize_take as it was before the grid was batched: one solve per take."""

    def solved_revenue(kappa):
        params = MarketParams(kappa=kappa, q=q, w=w)
        return house_revenue(solve(params, measure, fp_tol=fp_tol), params)

    span = KAPPA_SEARCH_HI - KAPPA_SEARCH_LO
    grid = [KAPPA_SEARCH_LO + span * i / (grid_points - 1)
            for i in range(grid_points)]
    profile = tuple((k, solved_revenue(k)) for k in grid)
    i_best = max(range(grid_points), key=lambda i: profile[i][1])
    best_k, best_r = profile[i_best]

    def revenue(kappa):
        nonlocal best_k, best_r
        r = solved_revenue(kappa)
        if r > best_r:
            best_k, best_r = kappa, r
        return r

    lo = grid[max(0, i_best - 1)]
    hi = grid[min(grid_points - 1, i_best + 1)]
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = revenue(c), revenue(d)
    while hi - lo > _REFINE_TOL:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = revenue(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = revenue(d)
    return TakeOptimum(kappa_star=best_k, revenue_star=best_r, profile=profile)


def _bits(opt):
    floats = [opt.kappa_star, opt.revenue_star, *(x for pt in opt.profile for x in pt)]
    return [x.hex() for x in floats]


class TestOptimizeTake:
    def test_validates_arguments(self):
        with pytest.raises(DomainError):
            optimize_take(uniform(), 0.9, 1.0, grid_points=8)

    @pytest.mark.parametrize("grid_points", [256.0, True, 15, "256"])
    def test_grid_points_must_be_an_integer_count(self, grid_points):
        with pytest.raises(DomainError, match="grid_points"):
            optimize_take(uniform(), 0.9, 1.0, grid_points=grid_points)

    @pytest.mark.parametrize("q, w", [(1.5, 1.0), (math.nan, 1.0), (0.9, 0.0),
                                      (0.9, -1.0)])
    def test_market_checked_before_the_grid(self, monkeypatch, q, w):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid solved before q and w were checked")

        monkeypatch.setattr(stackelberg_mod, "grid_revenues", no_grid)
        with pytest.raises(DomainError):
            optimize_take(uniform(), q, w)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_matches_the_scalar_loop_bit_for_bit(self, name):
        sc = load_scenario(bundled_scenarios()[name])
        m = build_measure(sc.measure)
        assert _bits(optimize_take(m, sc.q, sc.w)) == _bits(
            scalar_optimize_take(m, sc.q, sc.w))

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_optimum_matches_the_reference_exactly(self, name):
        # the take_search benchmark checks these within 1e-5 and 1e-9
        want = json.loads(REFERENCE_TAKES.read_text())[name]
        sc = load_scenario(bundled_scenarios()[name])
        opt = optimize_take(sc.belief_measure, sc.q, sc.w)
        assert (opt.kappa_star, opt.revenue_star) == (want["kappa_star"],
                                                      want["revenue_star"])

    @pytest.mark.parametrize("fp_tol", [0.3, math.inf, 0.0, math.nan])
    def test_bad_tolerance_raises_what_the_scalar_loop_raises(self, fp_tol):
        with pytest.raises(DomainError) as want:
            scalar_optimize_take(uniform(), 0.5, 1.0, grid_points=16, fp_tol=fp_tol)
        with pytest.raises(DomainError) as got:
            optimize_take(uniform(), 0.5, 1.0, grid_points=16, fp_tol=fp_tol)
        assert str(got.value) == str(want.value)

    def test_every_evaluated_take_is_a_candidate(self, monkeypatch):
        # revenue peaks at the golden section's first take c, in the cell
        # around grid take 100, and falls away from it: no later take beats
        # c, so the search must report c itself
        span = KAPPA_SEARCH_HI - KAPPA_SEARCH_LO
        grid = [KAPPA_SEARCH_LO + span * i / 255 for i in range(256)]
        c = grid[101] - _INV_GOLDEN * (grid[101] - grid[99])
        # the grid's revenues come from take_revenue, the refinement's from
        # house_revenue
        monkeypatch.setattr(stackelberg_mod, "take_revenue",
                            lambda kappa, *wagers: -abs(kappa - c))
        monkeypatch.setattr(stackelberg_mod, "house_revenue",
                            lambda eq, params: -abs(params.kappa - c))
        opt = optimize_take(uniform(), 0.9, 1.0)
        assert max(opt.profile, key=lambda pt: pt[1])[0] == grid[100]
        assert (opt.kappa_star, opt.revenue_star) == (c, 0.0)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_only_the_refinement_builds_equilibria(self, monkeypatch, name):
        # the 256 grid takes get their revenues from the lanes' floats: the
        # large bettor's best response and an Equilibrium are built once per
        # refinement solve, and for no grid take
        sc = load_scenario(bundled_scenarios()[name])
        calls = Counter()

        def counting(module, attr):
            real = getattr(module, attr)

            def counted(*args, **kwargs):
                calls[attr] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, attr, counted)

        counting(stackelberg_mod, "solve")
        counting(equilibrium_mod, "atomic_best_response")
        counting(equilibrium_mod, "Equilibrium")
        assert len(optimize_take(sc.belief_measure, sc.q, sc.w).profile) == 256
        assert 2 <= calls["solve"] <= 40
        assert calls["atomic_best_response"] == calls["Equilibrium"] == calls["solve"]

    def test_optimum_dominates_profile(self):
        opt = optimize_take(uniform(), 0.9, 1.0, grid_points=64)
        assert opt.revenue_star >= max(r for _, r in opt.profile)
        assert KAPPA_SEARCH_LO <= opt.kappa_star <= KAPPA_SEARCH_HI
        assert len(opt.profile) == 64

    def test_interior_optimum_for_uniform_market(self):
        # revenue vanishes at both band ends (no take / no bettors), so the
        # optimum is interior; location frozen from an independent dense scan
        opt = optimize_take(uniform(), 0.9, 1.0, grid_points=128)
        assert abs(opt.kappa_star - 0.746) < 0.01

    def test_beats_random_takes(self):
        opt = optimize_take(uniform(), 0.9, 1.0, grid_points=128)
        from parieq.equilibrium import solve
        from parieq.metrics import house_revenue
        from parieq.response import MarketParams
        rng = np.random.default_rng(3)
        for kappa in rng.uniform(KAPPA_SEARCH_LO, KAPPA_SEARCH_HI, 64):
            params = MarketParams(kappa=float(kappa), q=0.9, w=1.0)
            rev = house_revenue(solve(params, uniform()), params)
            assert opt.revenue_star >= rev - 1e-6

    def test_scale_equivariance(self):
        # halving all wealth (measure and budget together) must not move the
        # optimal take and must halve the revenue: every equilibrium quantity
        # is positively homogeneous in the wealth scale
        base = optimize_take(uniform(), 0.9, 1.0, grid_points=64)
        half = optimize_take(scaled(uniform(), 0.5), 0.9, 0.5, grid_points=64)
        assert half.kappa_star == pytest.approx(base.kappa_star, abs=1e-12)
        assert half.revenue_star == pytest.approx(0.5 * base.revenue_star,
                                                  rel=1e-12)
        for (k1, r1), (k2, r2) in zip(base.profile, half.profile):
            assert k1 == k2
            assert r2 == pytest.approx(0.5 * r1, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=DomainError,
                   reason="one take whose boundaries come out equal ends the "
                          "whole search: out of order at kappa=0.6079")
def test_one_degenerate_take_does_not_end_the_search():
    optimize_take(gaussian_mixture([1, 1], [0.7, 0.9], [0.05, 0.05]), 0.8, 1.0)
