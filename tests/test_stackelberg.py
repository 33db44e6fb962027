"""Take optimization: grid-plus-refinement search over the retention fraction."""

import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import parieq.equilibrium as equilibrium_mod
import parieq.stackelberg as stackelberg_mod
from parieq.equilibrium import (_side_stake, _side_stake_lanes, _stake_coefficient,
                                grid_fixed_points, solve)
from parieq.errors import DomainError
from parieq.measure import gaussian_mixture, scaled, uniform, wedge
from parieq.metrics import house_revenue
from parieq.response import MarketParams
from parieq.scenario import build_measure, bundled_scenarios, load_scenario
from parieq.stackelberg import (_INV_GOLDEN, _REFINE_TOL, KAPPA_SEARCH_HI,
                                KAPPA_SEARCH_LO, TakeOptimum, grid_revenues,
                                optimize_take)
from conftest import (BASELINE_W, EXTREME_KAPPAS, EXTREME_QS, EXTREME_TOTALS, EXTREME_WS,
                      scenario_zoo)
from test_equilibrium import (GRID_REVENUE_BOUND, _composed_revenues, _count_handovers,
                              _grid, _outcome, _rippled)
from test_measure import _family_zoo

REFERENCE_TAKES = (Path(__file__).resolve().parents[1]
                   / "benchmarks" / "reference" / "take_search.json")


def scalar_optimize_take(measure, q, w, grid_points=256):
    """optimize_take take by take: the grid's revenues from the scalar
    bisection of the composed map (test_equilibrium's reference of the
    lanes), the refinement's from one solve each."""

    def solved_revenue(kappa):
        params = MarketParams(kappa=kappa, q=q, w=w)
        return house_revenue(solve(params, measure), params)

    span = KAPPA_SEARCH_HI - KAPPA_SEARCH_LO
    grid = [KAPPA_SEARCH_LO + span * i / (grid_points - 1)
            for i in range(grid_points)]
    profile = tuple(zip(grid, map(float.fromhex,
                                  _composed_revenues(grid, q, w, measure))))
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


# the (q, w) of each zoo search: a one-sided belief, both budgets of the
# bundled sweeps and a budget that never binds
ZOO_MARKETS = [(1.0, 1.0), (0.3, BASELINE_W), (0.7, 1.0), (0.9, 1e9)]


def _assert_matches_solving_every_probe(m, q, w):
    # the probes' revenues come from fixed_point's totals, not from solve's,
    # so kappa* may move by a float or a few: it stays within take_search's
    # tolerances of the search that solves every probe. revenue* is solve's
    # at kappa*, bit for bit, and no grid sample beats it. Measured on the
    # 52 searches of the two tests below: 44 identical, the others within
    # 4.7e-6 in kappa* and 7.3e-11 in revenue*
    got, want = optimize_take(m, q, w), scalar_optimize_take(m, q, w)
    params = MarketParams(kappa=got.kappa_star, q=q, w=w)
    assert abs(got.kappa_star - want.kappa_star) <= 1e-5
    assert abs(got.revenue_star - want.revenue_star) <= 1e-9
    assert got.revenue_star == house_revenue(solve(params, m), params)
    assert got.revenue_star >= max(r for _, r in got.profile)


def _bits(opt):
    floats = [opt.kappa_star, opt.revenue_star, *(x for pt in opt.profile for x in pt)]
    return [x.hex() for x in floats]


class TestOptimizeTake:
    def test_validates_arguments(self):
        with pytest.raises(DomainError):
            optimize_take(uniform(), 0.9, 1.0, grid_points=8)

    @pytest.mark.parametrize("grid_points", [256.0, True, 15, "256", np.float64(256.0),
                                             np.True_, np.int64(15)],
                             ids=lambda x: repr(x) if isinstance(x, np.generic) else None)
    def test_grid_points_must_be_an_integer_count(self, grid_points):
        with pytest.raises(DomainError, match="grid_points"):
            optimize_take(uniform(), 0.9, 1.0, grid_points=grid_points)

    def test_a_numpy_grid_points_is_a_count(self):
        assert (optimize_take(uniform(), 0.9, 1.0, grid_points=np.int64(64))
                == optimize_take(uniform(), 0.9, 1.0, grid_points=64))

    @pytest.mark.parametrize("q, w", [(1.5, 1.0), (math.nan, 1.0), (0.9, 0.0),
                                      (0.9, -1.0)])
    def test_market_checked_before_the_grid(self, monkeypatch, q, w):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid solved before q and w were checked")

        monkeypatch.setattr(stackelberg_mod, "grid_revenues", no_grid)
        with pytest.raises(DomainError):
            optimize_take(uniform(), q, w)

    @pytest.mark.parametrize("grid_points", [16, 17, 256, 1000])
    def test_the_grid_meets_the_lanes_precondition(self, monkeypatch, grid_points):
        # grid_fixed_points checks none of its takes: every take the search
        # hands to the batch is a float strictly inside (0.5, 1)
        real, taken = stackelberg_mod.grid_revenues, []

        def recording(kappas, *args):
            taken.extend(kappas)
            return real(kappas, *args)

        monkeypatch.setattr(stackelberg_mod, "grid_revenues", recording)
        optimize_take(uniform(), 0.9, 1.0, grid_points=grid_points)
        assert len(taken) == grid_points
        assert all(type(k) is float and 0.5 < k < 1.0 for k in taken)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_matches_the_scalar_loop_bit_for_bit(self, name):
        # the optimum bit for bit, as the golden section's probes are solved
        # take by take; the grid's takes bit for bit and its revenues within
        # the lanes' bound, as the lanes run to float resolution and the
        # scalar bisection stops within FP_TOL
        sc = load_scenario(bundled_scenarios()[name])
        m = build_measure(sc.measure)
        got, want = optimize_take(m, sc.q, sc.w), scalar_optimize_take(m, sc.q, sc.w)
        assert _bits(got)[:2] == _bits(want)[:2]
        assert [k.hex() for k, _ in got.profile] == [k.hex() for k, _ in want.profile]
        assert max(abs(a - b) for (_, a), (_, b) in zip(got.profile, want.profile)) \
            <= GRID_REVENUE_BOUND

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_optimum_matches_the_reference_exactly(self, name):
        # the take_search benchmark checks these within 1e-5 and 1e-9
        want = json.loads(REFERENCE_TAKES.read_text())[name]
        sc = load_scenario(bundled_scenarios()[name])
        opt = optimize_take(sc.belief_measure, sc.q, sc.w)
        assert (opt.kappa_star, opt.revenue_star) == (want["kappa_star"],
                                                      want["revenue_star"])

    def test_every_evaluated_take_is_a_candidate(self, monkeypatch):
        # revenue peaks at the golden section's first take c, in the cell
        # around grid take 100, and falls away from it: no later take beats
        # c, so the search must report c itself
        span = KAPPA_SEARCH_HI - KAPPA_SEARCH_LO
        grid = [KAPPA_SEARCH_LO + span * i / 255 for i in range(256)]
        c = grid[101] - _INV_GOLDEN * (grid[101] - grid[99])
        # the grid's and the refinement's revenues come from take_revenue,
        # on the lanes' totals and on fixed_point's; the report's from
        # house_revenue, at the one take solved
        monkeypatch.setattr(stackelberg_mod, "take_revenue",
                            lambda kappa, *wagers: -abs(kappa - c))
        monkeypatch.setattr(stackelberg_mod, "house_revenue",
                            lambda eq, params: -abs(params.kappa - c))
        opt = optimize_take(uniform(), 0.9, 1.0)
        assert max(opt.profile, key=lambda pt: pt[1])[0] == grid[100]
        assert (opt.kappa_star, opt.revenue_star) == (c, 0.0)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_only_the_reported_take_builds_an_equilibrium(self, monkeypatch, name):
        # the 256 grid takes and the golden-section probes get their revenues
        # from the lanes' floats and fixed_point's, and none is handed to
        # solve: the large bettor's best response and an Equilibrium are
        # built once, for the revenue at kappa*, and for no take the search
        # evaluates
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
        assert calls["solve"] == calls["atomic_best_response"] == calls["Equilibrium"] == 1

    def test_each_probe_handed_over_is_solved(self, monkeypatch):
        # a probe whose lane is None gets solve's revenue. Here every third
        # probe is handed over, as if its lane had met a value that is not
        # finite: solve is called once for each, in order, then once at
        # kappa*
        real, probes, handed = stackelberg_mod.fixed_point, [], []

        def every_third(kappa, *args):
            probes.append(kappa)
            if len(probes) % 3:
                return real(kappa, *args)
            handed.append(kappa)
            return None

        monkeypatch.setattr(stackelberg_mod, "fixed_point", every_third)
        solved = _count_handovers(monkeypatch)
        opt = optimize_take(uniform(), 0.9, 1.0)
        assert len(handed) >= 5 and solved == handed + [opt.kappa_star]

    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_every_family_matches_solving_every_probe(self, m):
        for q, w in ZOO_MARKETS:
            _assert_matches_solving_every_probe(m, q, w)

    @pytest.mark.parametrize("sc", scenario_zoo(), ids=lambda sc: sc.name)
    def test_drawn_markets_match_solving_every_probe(self, sc):
        _assert_matches_solving_every_probe(sc.measure, sc.params.q, sc.params.w)

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


def _assert_the_twin_is_the_scalar(kappas, q, w, d1, d2):
    # _side_stake_lanes' (stake, side) per lane are _side_stake's floats, as
    # hex, and a NaN stake where the scalar raises ValueError (math.sqrt of
    # a negative d1 * d2, where she bets); returns how many lanes raised
    kappa, d1, d2 = (np.array(a, dtype=float) for a in (kappas, d1, d2))
    with np.errstate(all="ignore"):  # the lane loop's own errstate
        c1, c2 = _stake_coefficient(kappa, q), _stake_coefficient(kappa, 1.0 - q)
        a, back1 = _side_stake_lanes(kappa, q, w, c1, c2, d1, d2)
    got = [(x.hex(), b) for x, b in zip(a.tolist(), back1.tolist())]
    want, raised = [], 0
    for lane, (_, b) in zip(zip(*(x.tolist() for x in (kappa, c1, c2, d1, d2))), got):
        k, x1, x2, y1, y2 = lane
        try:
            stake, side = _side_stake(k, q, w, x1, x2, y1, y2)
        except ValueError:
            raised += 1
            stake, side = math.nan, b
        want.append((stake.hex(), side))
    assert got == want, (q, w)
    return raised


def _assert_the_twin_is_the_scalar_on_the_lanes(kappas, q, w, m):
    # at the totals of every lane that grid_fixed_points finishes, at
    # one-sided beliefs, at a budget that always binds and at one that
    # never does
    for q, w in itertools.product((0.0, q, 1.0), (BASELINE_W, w, 1e9)):
        lanes = [(k, lane) for k, lane in zip(kappas, grid_fixed_points(kappas, q, w, m))
                 if lane is not None]
        assert _assert_the_twin_is_the_scalar([k for k, _ in lanes], q, w,
                                              [lane[2] for _, lane in lanes],
                                              [lane[3] for _, lane in lanes]) == 0


def _lane_by_lane_revenues(kappas, q, w, m):
    # grid_revenues priced one take at a time, by _lane_revenue on each of
    # grid_fixed_points' lanes in take order, as hex
    return [stackelberg_mod._lane_revenue(k, q, w, m, lane).hex()
            for k, lane in zip(kappas, grid_fixed_points(kappas, q, w, m))]


class TestGridPricing:
    """grid_revenues prices every lane in one array pass, with the stake its
    map takes at p*: the lanes' stake function is the scalar one, and the
    takes it leaves to solve keep their order."""

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_stakes_on_the_bundled_grids(self, name):
        sc = load_scenario(bundled_scenarios()[name])
        _assert_the_twin_is_the_scalar_on_the_lanes(_grid(256), sc.q, sc.w,
                                                    sc.belief_measure)

    @pytest.mark.parametrize("sc", scenario_zoo(), ids=lambda sc: sc.name)
    def test_stakes_on_the_zoo(self, sc):
        _assert_the_twin_is_the_scalar_on_the_lanes(_grid(64, 0.5001, 0.9999), sc.params.q,
                                                    sc.params.w, sc.measure)

    def test_stakes_on_subnormal_and_huge_totals(self):
        pairs = list(itertools.product(EXTREME_TOTALS, repeat=2))
        d1, d2 = ([p[i] for _ in EXTREME_KAPPAS for p in pairs] for i in (0, 1))
        ks = [k for k in EXTREME_KAPPAS for _ in pairs]
        for q, w in itertools.product(EXTREME_QS, EXTREME_WS):
            assert _assert_the_twin_is_the_scalar(ks, q, w, d1, d2) == 0

    def test_stakes_on_a_negative_total_product(self):
        # totals of opposite signs, as masses rounded below zero give: she
        # bets on one side or the other at every pair, where, with a
        # positive stake coefficient (0 < q < 1), the scalar's math.sqrt
        # raises ValueError and the twin's stake is NaN, which marks the
        # lane for solve
        pairs = [(-1e-3, 1.0), (1.0, -1e-3), (-0.5, 2.0), (3.0, -2.0), (-1e-300, 0.5)]
        kappas = [0.5001, 0.75, 0.9999]
        d1, d2 = ([p[i] for _ in kappas for p in pairs] for i in (0, 1))
        ks = [k for k in kappas for _ in pairs]
        for q, w in itertools.product((0.3, 0.5, 0.9), (BASELINE_W, 1.0)):
            assert _assert_the_twin_is_the_scalar(ks, q, w, d1, d2) == len(ks), (q, w)

    @pytest.mark.parametrize("m, q, w", [
        (scaled(wedge(100), 1e307), 0.3, 1.7e308),
        (scaled(uniform(), 1.7e308), 0.3, 1.7e308),
        (_rippled(), 0.1, 1.0),
        (_rippled(), 0.9, 1.0),
        (scaled(uniform(), 5e-324), 0.5, 1.0),
        (wedge(2**53), 0.3, 1.0),
        (wedge(100), 0.9, 1.0),
    ], ids=["overflowing-revenues", "overflowing-and-handed-over", "rippled-0.1",
            "rippled-0.9", "underflow", "wedge-2**53", "no-fallback"])
    def test_the_fallback_keeps_the_take_order(self, monkeypatch, m, q, w):
        # the takes grid_revenues leaves to solve, those whose lane is None,
        # are solved in take order, each once, and every revenue, or the
        # first error solve raises, is the one take-by-take pricing gives.
        # The first two markets have lanes whose revenues overflow to +inf
        # in the array pass as in floats, the first with no lane left to
        # solve
        kappas = _grid(64, 0.5001, 0.9999)
        want = _outcome(lambda: _lane_by_lane_revenues(kappas, q, w, m))
        fallback = [k for k, lane in zip(kappas, grid_fixed_points(kappas, q, w, m))
                    if lane is None]
        solved, real = [], stackelberg_mod._solved_revenue

        def recording(kappa, *args):
            solved.append(kappa)
            return real(kappa, *args)

        monkeypatch.setattr(stackelberg_mod, "_solved_revenue", recording)
        got = _outcome(lambda: [r.hex() for r in grid_revenues(kappas, q, w, m)])
        assert got == want
        if isinstance(got, list):
            assert solved == fallback
        else:  # solved up to the take whose solve raised
            assert solved == fallback[:len(solved)] and solved

    def test_no_take_of_the_bundled_searches_falls_back(self, monkeypatch):
        # every lane of the six bundled 256-take grids is priced in the
        # array pass: none is solved
        markets = [(sc.q, sc.w, sc.belief_measure)
                   for sc in map(load_scenario, bundled_scenarios().values())]
        want = [_lane_by_lane_revenues(_grid(256), *market) for market in markets]

        def refusing(*args):
            raise AssertionError(f"solved: {args[0]}")

        monkeypatch.setattr(stackelberg_mod, "_solved_revenue", refusing)
        assert [[r.hex() for r in grid_revenues(_grid(256), *market)]
                for market in markets] == want


def test_one_degenerate_take_does_not_end_the_search():
    # solve's two boundaries come out equal at the grid takes 0.6079,
    # 0.60986 and 0.61182, and it raises "out of order" there; the lanes
    # compute no boundary and finish every grid take
    m = gaussian_mixture([1, 1], [0.7, 0.9], [0.05, 0.05])
    for kappa in (0.6079, 0.60986, 0.61182):
        with pytest.raises(DomainError, match="out of order"):
            solve(MarketParams(kappa=kappa, q=0.8, w=1.0), m)
    opt = optimize_take(m, 0.8, 1.0)
    assert len(opt.profile) == 256 and opt.revenue_star >= max(r for _, r in opt.profile)


@pytest.mark.xfail(strict=True, raises=DomainError,
                   reason="on wedge(2**20) the grid lanes and the golden-section "
                          "probes finish every take, but the optimum, kappa* = "
                          "0.99936, is a take whose two action boundaries bisect "
                          "to the same point, so the report's solve there raises "
                          "'out of order'")
def test_the_search_on_a_steep_wedge():
    # the same holds at q = 0.01, 0.5, 0.7 and 0.99: kappa* lies between
    # 0.9927 and 0.9999, and the one solve, there, raises
    opt = optimize_take(wedge(2**20), 0.3, 1.0)
    assert KAPPA_SEARCH_LO <= opt.kappa_star <= KAPPA_SEARCH_HI
    assert len(opt.profile) == 256 and opt.revenue_star >= max(r for _, r in opt.profile)
