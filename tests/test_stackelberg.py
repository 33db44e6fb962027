"""Take optimization: grid-plus-refinement search over the retention fraction."""

import numpy as np
import pytest

from parieq.errors import DomainError
from parieq.measure import scaled, uniform
from parieq.stackelberg import (KAPPA_SEARCH_HI, KAPPA_SEARCH_LO, optimize_take)


class TestOptimizeTake:
    def test_validates_arguments(self):
        with pytest.raises(DomainError):
            optimize_take(uniform(), 0.9, 1.0, grid_points=8)

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
