"""Finite-population cross-check: discretization and the bisected response map."""

import dataclasses
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE_W, bundled_cases
from test_measure import _family_zoo
from test_referee import random_market
import parieq.oracle as oracle_mod
from parieq.equilibrium import _D, solve
from parieq.errors import DomainError
from parieq.measure import (from_density, mass, scaled, symmetrized_wedge,
                            tabulated, uniform, wedge)
from parieq.oracle import (DiscretePopulation, discretize, discrete_totals,
                           iterate_best_response)
from parieq.response import (AtomicBet, DiffuseAggregate, MarketParams,
                             atomic_best_response, implied_probability)

# the criterion-8 populations: (name, measure, q, w, kappa)
CRITERION8_CASES = [
    ("example1", wedge(1), 0.9, 1.0, 0.8),
    ("example1", wedge(1), 0.9, 1.0, 0.95),
    ("example2", wedge(1), 0.57, 1.0, 0.97),
    ("example3", wedge(10), 0.95, 1.0, 0.9),
    ("example4_case1", symmetrized_wedge(100), 1.0, BASELINE_W, 0.506),
    ("example4_case2", wedge(100), 1.0, 1.0, 0.839),
]

# every measure family, the quadrature-backed from_density included
DISCRETIZE_ZOO = _family_zoo() + [from_density(lambda p: 1.0 + p * p, "quadratic")]
# kinks at 1/2: the quadratic seed can turn back inside the cell, and at odd
# N the vee's middle target sits at its zero of the density
PEAK = tabulated([(0.0, 1e-6), (0.5, 1e6), (1.0, 1e-6)])
VEE = tabulated([(0.0, 1e6), (0.5, 1e-6), (1.0, 1e6)])


def discrete_response(pop, P, params):
    """Pool share of Outcome 1 after everyone best-responds to P, if any bets."""
    d1, d2 = discrete_totals(pop, P, params.kappa)
    if d1 + d2 <= 0.0:
        return None
    if d1 > 0.0 and d2 > 0.0:
        bet = atomic_best_response(DiffuseAggregate(d1=d1, d2=d2), params)
    else:
        bet = AtomicBet(a1=0.0, a2=0.0)
    return implied_probability(DiffuseAggregate(d1=d1, d2=d2), bet)


class TestDiscretize:
    def test_uniform_quartiles(self):
        pop = discretize(uniform(), 4)
        assert pop.beliefs == pytest.approx([0.125, 0.375, 0.625, 0.875],
                                            abs=1e-10)
        assert pop.wealths == pytest.approx([0.25] * 4, abs=1e-15)

    def test_two_cells_split_mass(self):
        pop = discretize(uniform(), 2)
        assert pop.beliefs == pytest.approx([0.25, 0.75], abs=1e-10)

    def test_skewed_measure_concentrates_low(self):
        pop = discretize(wedge(10), 100)
        assert (pop.beliefs < 0.1).sum() == 91  # mass below 0.1 is 0.91
        # mass-median property: cumulative mass at belief i is (i + 0.5)/N
        m = wedge(10)
        for i in (0, 40, 90, 99):
            assert mass(m, 0.0, pop.beliefs[i]) == pytest.approx(
                (i + 0.5) / 100, abs=1e-9)

    def test_wealths_sum_to_total_and_beliefs_increase(self):
        for m in (uniform(), wedge(100), scaled(wedge(3), 0.5)):
            pop = discretize(m, 57)
            assert pop.wealths.sum() == pytest.approx(m.total_mass, abs=1e-9)
            assert np.all(np.diff(pop.beliefs) > 0)

    @pytest.mark.parametrize("m", DISCRETIZE_ZOO, ids=lambda m: m.kind)
    def test_quantiles_to_float_resolution(self, m):
        N, total = 257, m.total_mass
        b = discretize(m, N).beliefs
        assert 0.0 < b[0] and b[-1] < 1.0 and np.all(np.diff(b) > 0.0)
        errs = [abs(mass(m, 0.0, x) - (i + 0.5) * total / N) for i, x in enumerate(b)]
        assert max(errs) <= 1e-12 * total

    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_table_sums_carry_no_drift(self, m):
        # each table entry is mass(0, knot), taken directly, so no rounding
        # accumulates along the table and every quantile stays within a few
        # ulps of the total; a plain cumsum of knot-to-knot masses drifts to
        # 1.1e-13 of it on symmetrized_wedge(100)
        N, total = 8000, m.total_mass
        b = discretize(m, N).beliefs
        got = m.exact_mass_array(np.zeros(N), b)  # mass(m, 0, x) lane by lane
        assert np.max(np.abs(got - (np.arange(N) + 0.5) * total / N)) <= 1.5e-14 * total

    @pytest.mark.parametrize("N", [2, 3, 57, 257, 2000, 8000])
    @pytest.mark.parametrize("m", [wedge(2**40), symmetrized_wedge(2**40)],
                             ids=["wedge", "symmetrized_wedge"])
    def test_quantiles_on_a_steep_ramp_are_within_a_float_step(self, m, N):
        # symmetrized_wedge(2**40) mirrors half its mass onto a ramp of
        # width 2**-40 below 1, where floats are 2**-53 apart: 2**13 floats
        # hold it, and mass(nextafter(1, 0), 1) alone is 1.22e-4 of the
        # total. So a quantile can miss its target by up to 5.9e-5 of the
        # total with no cancellation in the masses: the error is bounded by
        # the mass of one float step next to the belief, plus the rounding
        # of the target and the cumulative. Measured at these N, the ratio
        # below is at most 0.5014 (N = 8000) here and 0.100 on wedge(2**40)
        def cumulative(x):
            return m.exact_mass_array(0.0, x)

        total, b = m.total_mass, discretize(m, N).beliefs
        got = cumulative(b)
        err = np.abs(got - (np.arange(N) + 0.5) * total / N)
        step = np.maximum(got - cumulative(np.nextafter(b, 0.0)),
                          cumulative(np.nextafter(b, 1.0)) - got)
        assert np.all(err <= 0.502 * (step + 4.0 * math.ulp(total)))

    @pytest.mark.parametrize("m", DISCRETIZE_ZOO, ids=lambda m: m.kind)
    def test_inversion_stays_within_twice_bisection(self, m):
        # count every cumulative evaluation, lane by lane: the elements of
        # each exact_mass_array call, the table's included, with the lower
        # bound broadcast against the upper one, and each exact_mass call of
        # the lanes finished in floats
        evals = [0]

        def counted(lo, hi):
            evals[0] += np.broadcast(lo, hi).size
            return m.exact_mass_array(lo, hi)

        def counted_float(lo, hi):
            evals[0] += 1
            return m.exact_mass(lo, hi)

        b = discretize(dataclasses.replace(m, exact_mass_array=counted,
                                           exact_mass=counted_float), 257).beliefs
        # plain bisection of [previous belief, 1] to float resolution takes
        # one evaluation per probe; replay its probes against the known root
        bisection = 0
        for lo, root in zip([0.0, *b[:-1]], b):
            hi = 1.0
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                bisection += 1
                lo, hi = (mid, hi) if mid < root else (lo, mid)
                mid = 0.5 * (lo + hi)
        assert evals[0] <= 2 * bisection
        assert evals[0] < bisection  # the quadratic seeds and secant steps do fire

    def test_benchmark_cases_take_few_rounds(self):
        # the three-knot quadratic seeds and the secant steps place all 2000
        # bettors of each oracle_crosscheck market in 1 to 8 rounds after the
        # table, 55 in all, a lane's rounds in floats after the hand-over
        # counted with those in numpy before it
        rounds = [len(self._probes(m, N)[0]) - 1 for _, m, N, _ in CROSSCHECK_CASES]
        assert max(rounds) <= 8 and sum(rounds) <= 55, rounds

    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    @pytest.mark.parametrize("m", [wedge(10), symmetrized_wedge(100)], ids=lambda m: m.kind)
    def test_rounds_do_not_depend_on_the_total(self, m, factor):
        # the seed is computed in units of its cell's rise, so neither a huge
        # nor a tiny total over- or underflows it
        rounds = [len(self._probes(measure, 2000)[0]) - 1
                  for measure in (m, scaled(m, factor))]
        assert rounds[1] <= rounds[0] + 1, rounds

    @staticmethod
    def _probes(m, N):
        # the probes round by round: the upper bounds of every
        # exact_mass_array call, the table's first, then the rounds of the
        # lanes finished in floats, round r holding the r-th exact_mass probe
        # of each lane that makes one, in lane order. The oracle's own name
        # for the float loop is wrapped, so only its lanes are counted
        probes, lanes = [], []

        def recorded(lo, hi):
            probes.append(np.array(hi, copy=True))
            return m.exact_mass_array(lo, hi)

        def recorded_float(lo, hi):
            lanes[-1].append(hi)
            return m.exact_mass(lo, hi)

        real_lane = oracle_mod._secant_float

        def lane(*args):
            lanes.append([])
            return real_lane(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_mod, "_secant_float", lane)
            beliefs = discretize(dataclasses.replace(
                m, exact_mass_array=recorded, exact_mass=recorded_float), N).beliefs
        for r in range(max(map(len, lanes), default=0)):
            probes.append(np.array([x[r] for x in lanes if len(x) > r]))
        return probes, beliefs

    @pytest.mark.parametrize("n", [10, 100])
    def test_seeds_are_exact_inside_one_quadratic_piece(self, n):
        # at N = 2000 the knee 1/n of wedge(n) is a knot and no target lies
        # in the cell just past it, so each target's three knots lie on one
        # quadratic or linear piece of the cumulative and its seed is within
        # rounding of its belief (13 and 27 ulps measured)
        probes, beliefs = self._probes(wedge(n), 2000)
        seeds = probes[1]
        ulps = np.abs(seeds.view(np.int64) - beliefs.view(np.int64))
        assert ulps.max() <= 32, ulps.max()

    def test_uniform_lanes_finish_in_one_round(self):
        # a linear cumulative has a zero second difference: the seed is the
        # chord, which is the belief itself
        probes, _ = self._probes(uniform(), 2000)
        assert len(probes) == 2

    @pytest.mark.parametrize("N", [2, 3, 57, 257, 2000])
    @pytest.mark.parametrize("m", [PEAK, VEE], ids=["peak", "vee"])
    def test_seeds_across_a_kink_keep_the_quantiles(self, m, N):
        # the quadratic through three knots around a kink can turn back inside
        # the cell, and at odd N the vee's middle target sits at its zero
        # of the density; beliefs stay strictly increasing and exact
        b = discretize(m, N).beliefs
        assert 0.0 < b[0] and b[-1] < 1.0 and np.all(np.diff(b) > 0.0)
        total = m.total_mass
        got = m.exact_mass_array(np.zeros(N), b)
        assert np.max(np.abs(got - (np.arange(N) + 0.5) * total / N)) <= 1e-12 * total

    @staticmethod
    def _assert_within_a_subnormal(m, b):
        # masses take a handful of values on a subnormal total, so beliefs
        # can repeat and each mass is within one subnormal of its target
        N, total = len(b), m.total_mass
        assert 0.0 < b[0] and b[-1] < 1.0 and np.all(np.diff(b) >= 0.0)
        got = m.exact_mass_array(np.zeros(N), b)
        assert np.max(np.abs(got - (np.arange(N) + 0.5) * total / N)) <= 5e-324

    def test_zero_denominator_seed_is_clamped_into_its_cell(self):
        # the table is 0, 1, 4, 6, ..., 6 subnormals at N = 8: the first
        # cell's quadratic has D = 0 and its target 0 is on the knot, so the
        # seed is 0 / 0 and is clamped to the cell's last float
        m = scaled(tabulated([(0.0, 1.0), (0.25, 32.0), (0.35, 1.0), (1.0, 1.0)]),
                   5e-324)
        probes, b = self._probes(m, 8)
        assert probes[1][0] == np.nextafter(1 / 8, 0.0)
        self._assert_within_a_subnormal(m, b)

    @pytest.mark.parametrize("m", DISCRETIZE_ZOO, ids=lambda m: m.kind)
    def test_masses_take_a_float_lower_bound(self, m):
        # the cumulative at 0 is computed once per call, not once per lane
        bounds = []

        def recorded(lo, hi):
            bounds.append(np.ndim(lo))
            return m.exact_mass_array(lo, hi)

        discretize(dataclasses.replace(m, exact_mass_array=recorded), 257)
        assert len(bounds) >= 2 and set(bounds) == {0}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(idx=st.integers(0, len(DISCRETIZE_ZOO) - 1), N=st.integers(2, 8000))
    def test_quantiles_hold_for_any_population_size(self, idx, N):
        m = DISCRETIZE_ZOO[idx]
        b = discretize(m, N).beliefs
        assert 0.0 < b[0] and b[-1] < 1.0 and np.all(np.diff(b) > 0.0)
        total = m.total_mass
        got = m.exact_mass_array(np.zeros(N), b)  # mass(m, 0, x) lane by lane
        assert np.max(np.abs(got - (np.arange(N) + 0.5) * total / N)) <= 1e-12 * total
        assert discretize(m, N).beliefs.tobytes() == b.tobytes()

    def test_targets_beyond_the_table_stay_in_the_last_cell(self):
        # a target at or above the table's last entry is searched in the
        # last cell; on a small total, masses off by an absolute tolerance
        # would put many there
        m = from_density(lambda p: 1e-8 * (1e-3 + math.exp(-((p - 0.5) / 0.01) ** 2)))
        b = discretize(m, 257).beliefs
        assert 0.0 < b[0] and b[-1] < 1.0 and np.all(np.diff(b) >= 0.0)

    @pytest.mark.parametrize("N", [2, 3, 57, 257, 2000])
    def test_subnormal_total_keeps_the_last_cell_clamp(self, N):
        # on a subnormal total the top targets round up to the total itself,
        # which the table's last entry equals; they are searched in the last
        # cell instead of past the last knot. The table rises by 0 across
        # most cells, whose 0 / 0 seeds are clamped into the open cell
        m = scaled(uniform(), 5e-324)
        probes, b = self._probes(m, N)
        assert not np.isnan(probes[1]).any()
        self._assert_within_a_subnormal(m, b)

    def test_small_total_spreads_the_bettors(self):
        # masses accurate relative to a small total keep the top bettors
        # apart instead of piled up at the float below 1
        m = from_density(lambda p: 1e-8 * (1e-3 + math.exp(-((p - 0.5) / 0.01) ** 2)))
        b = discretize(m, 257).beliefs
        assert 0.0 < b[0] and b[-1] < 1.0 and np.all(np.diff(b) > 0.0)

    @pytest.mark.parametrize("N", [2, 3, 57, 257, 2000, 8000])
    @pytest.mark.parametrize(
        "m", DISCRETIZE_ZOO + [PEAK, VEE, wedge(2**53)],
        ids=[m.kind for m in DISCRETIZE_ZOO] + ["peak", "vee", "wedge:2**53"])
    def test_no_hand_over_count_moves_a_bit(self, monkeypatch, m, N):
        # the lanes still live once _FLOAT_TAIL or fewer are each finish in
        # floats from their exact state: none handed over, the last one, the
        # count in use and every lane from the seeds give the same beliefs
        got, finished = [], []
        real_lane = oracle_mod._secant_float

        def lane(*args):
            finished[-1] += 1
            return real_lane(*args)

        monkeypatch.setattr(oracle_mod, "_secant_float", lane)
        for count in (0, 1, oracle_mod._FLOAT_TAIL, 2**31):
            monkeypatch.setattr(oracle_mod, "_FLOAT_TAIL", count)
            finished.append(0)
            got.append([x.hex() for x in discretize(m, N).beliefs.tolist()])
        assert all(b == got[0] for b in got[1:])
        assert finished[0] == 0 and finished[-1] == N

    def test_the_crawling_vee_lane_finishes_in_floats(self):
        # at N = 57 the vee's middle lane sits at the density's zero and is
        # alone for the last 27 of 30 rounds in numpy; handed over with the
        # 25 lanes live after the first round, it takes none of its own. The
        # table and that round are the 2 calls measured
        calls = [0]

        def counted(lo, hi):
            calls[0] += 1
            return VEE.exact_mass_array(lo, hi)

        discretize(dataclasses.replace(VEE, exact_mass_array=counted), 57)
        assert calls[0] <= 6, calls[0]

    @pytest.mark.parametrize("tail", [0, oracle_mod._FLOAT_TAIL])
    @pytest.mark.parametrize("N", [10, 57])
    def test_a_mass_that_is_not_finite_raises(self, monkeypatch, N, tail):
        # masses that are NaN on (0.3, 0.4) once gave finite beliefs at 0.3.
        # With no lane handed over the numpy rounds meet the NaN; with the
        # count in use the float lanes do at N = 10, and both at N = 57
        monkeypatch.setattr(oracle_mod, "_FLOAT_TAIL", tail)

        def cumulative(x):
            x = np.asarray(x, dtype=float)
            return np.where((0.3 < x) & (x < 0.4), np.nan, x)

        m = dataclasses.replace(
            uniform(), kind="nan-band",
            exact_mass=lambda lo, hi: float(cumulative(hi) - cumulative(lo)),
            exact_mass_array=lambda lo, hi: cumulative(hi) - cumulative(lo))
        with pytest.raises(DomainError, match="not finite"):
            discretize(m, N)

    @pytest.mark.parametrize("N", [2, 3, 57, 257, 2000, 8000])
    def test_builds_a_valid_population(self, N):
        # iterate_best_response relies on what DiscretePopulation checks:
        # float64 beliefs in [0, 1], nondecreasing. Two lanes' targets lie
        # total / N apart in mass and a float cumulative errs by ulps of the
        # total, so not even a falling tabulated piece, whose cumulative is
        # not monotone in floats, can swap two beliefs
        rng = np.random.default_rng(7)
        fuzz = []
        while len(fuzz) < 200:  # 2 to 6 knots, at least one piece falling
            k = int(rng.integers(2, 7))
            xs = [0.0, *np.sort(rng.uniform(0.0, 1.0, k - 2)).tolist(), 1.0]
            ys = rng.uniform(0.001, 2.0, k).tolist()
            if any(b < a for a, b in zip(ys, ys[1:])):
                fuzz.append(tabulated(list(zip(xs, ys))))
        for m in (DISCRETIZE_ZOO + [PEAK, VEE, wedge(2**53), scaled(uniform(), 5e-324),
                                    scaled(symmetrized_wedge(100), 1e300)] + fuzz):
            b = discretize(m, N).beliefs
            assert b.dtype == np.float64 and b.shape == (N,), m
            assert np.all((b >= 0.0) & (b <= 1.0)) and np.all(b[:-1] <= b[1:]), m

    def test_rejects_tiny_population(self):
        with pytest.raises(DomainError):
            discretize(uniform(), 1)

    @pytest.mark.parametrize("N", [True, np.True_, 2000.0, np.float64(2000.0), "2000"],
                             ids=repr)
    def test_rejects_a_population_size_that_is_not_an_int(self, N):
        with pytest.raises(DomainError, match="integer"):
            discretize(uniform(), N)

    def test_a_numpy_population_size_is_an_int(self):
        m, want = symmetrized_wedge(7), discretize(symmetrized_wedge(7), 100)
        got = discretize(m, np.int64(100))
        assert got.beliefs.tobytes() == want.beliefs.tobytes()
        assert got.wealths.tobytes() == want.wealths.tobytes()
        with pytest.raises(DomainError, match="integer"):
            discretize(m, np.int64(1))


class TestDiscretePopulation:
    @pytest.mark.parametrize("beliefs, wealths", [
        (np.array([0.2, 0.5, 0.8]), np.array([0.5, 0.5])),
        ([0.25, 0.75], [0.5, 0.5]),
        (np.array([0.25, 0.75]), [0.5, 0.5]),
        (np.array([[0.25, 0.75]]), np.array([[0.5, 0.5]])),
        (np.array([0, 1]), np.array([0.5, 0.5])),
        # once accepted: at kappa = 0.8, q = 0.6, w = 1 the oracle reported
        # converged=True with d1 = nan, and d1 = -4 for the wealth -5
        *((np.array([0.2, 0.5, 0.8]), np.array([1.0, wealth, 1.0]))
          for wealth in (math.nan, math.inf, -math.inf, -5.0, -5e-324)),
        # iterate_best_response counts bettors by binary search in the
        # beliefs as they are, so they must lie in [0, 1] and be
        # nondecreasing; each but the last is in order, so only the range
        # test rejects it. float32 beliefs once miscounted the bettors
        *((np.array(beliefs), np.ones(len(beliefs)))
          for beliefs in ([math.nan], [0.5, math.inf], [-math.inf, 0.5], [-0.1, 0.5],
                          [0.5, 1.1], [0.5, 0.4])),
        (np.array([0.25, 0.75], dtype=np.float32), np.array([0.5, 0.5])),
        (np.array([0.25, 0.75]), np.array([0.5, 0.5], dtype=np.float32)),
    ], ids=["unequal-lengths", "lists", "list-wealths", "2-D", "int-beliefs",
            "nan-wealth", "inf-wealth", "-inf-wealth", "negative-wealth",
            "subnormal-debt", "nan-belief", "inf-belief", "-inf-belief",
            "negative-belief", "belief-above-1", "decreasing-beliefs",
            "float32-beliefs", "float32-wealths"])
    def test_rejects_a_malformed_population(self, beliefs, wealths):
        with pytest.raises(DomainError):
            DiscretePopulation(beliefs=beliefs, wealths=wealths)

    @pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
    @pytest.mark.parametrize("N", [50, 500, 2000])
    @pytest.mark.parametrize("measure", ["wedge(1)", "wedge(10)", "uniform"])
    def test_rejects_float32_beliefs_from_discretize(self, measure, N, shuffled):
        # rounded to float32, discretize's beliefs stay sorted and in the
        # band, but discrete_totals compares them with float32 thresholds
        # while the counts compare float64 ones: at 3 markets, 22 of the 54
        # oracle results on these 18 populations once differed from a replay
        m = {"wedge(1)": wedge(1), "wedge(10)": wedge(10), "uniform": uniform()}[measure]
        pop = discretize(m, N)
        beliefs = pop.beliefs
        if shuffled:
            beliefs = np.random.default_rng(N).permutation(beliefs)
        with pytest.raises(DomainError, match="float64"):
            DiscretePopulation(beliefs=beliefs.astype(np.float32), wealths=pop.wealths)

    def test_holds_its_arrays_read_only(self):
        # its checks run once, so a write after them could break the order
        # that iterate_best_response's counts and slices rely on
        pop = discretize(wedge(10), 500)
        for a in (pop.beliefs, pop.wealths):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5

    def test_accepts_zero_wealths(self):
        # zero is a wealth, as an underflowing total / N gives, and so is
        # -0.0; neither changes the oracle's result
        params = MarketParams(kappa=0.8, q=0.6, w=1.0)
        pop = DiscretePopulation(beliefs=np.array([0.2, 0.5, 0.8]),
                                 wealths=np.array([1.0, 0.0, -0.0]))
        plain = DiscretePopulation(beliefs=np.array([0.2, 0.8]), wealths=np.array([1.0, 0.0]))
        assert iterate_best_response(pop, params) == iterate_best_response(plain, params)


class TestDiscreteTotals:
    def test_threshold_rule_with_abstention_at_ties(self):
        pop = discretize(uniform(), 4)  # beliefs 0.125, 0.375, 0.625, 0.875
        d1, d2 = discrete_totals(pop, P=0.5, kappa=0.8)
        # thresholds 0.625 and 0.375: the two boundary bettors abstain
        assert (d1, d2) == (0.25, 0.25)


class TestIterateBestResponse:
    def test_symmetric_market_is_immediate(self):
        pop = discretize(uniform(), 1000)
        params = MarketParams(kappa=0.8, q=0.5, w=1.0)
        res = iterate_best_response(pop, params)
        assert res.converged
        assert res.p_approx == pytest.approx(0.5, abs=1e-8)

    def test_tracks_continuum_solver(self):
        params = MarketParams(kappa=0.8, q=0.9, w=1.0)
        eq = solve(params, uniform())
        res = iterate_best_response(discretize(uniform(), 2000), params)
        assert res.converged
        assert abs(res.p_approx - eq.p_star) < 0.01

    def test_steep_market_needs_no_tuning(self):
        # sharply peaked density makes the response map slope ~ -1e3 at the
        # crossing; bisection only reads which side of the diagonal it is on
        params = MarketParams(kappa=0.8, q=0.0, w=1.0)
        pop = discretize(wedge(100), 2000)
        res = iterate_best_response(pop, params)
        assert res.converged
        assert abs(res.p_approx - (1.0 - 0.8)) < 0.02

    def test_discretization_error_shrinks_with_population(self):
        params = MarketParams(kappa=0.8, q=0.9, w=1.0)
        eq = solve(params, uniform())
        errs = []
        for n in (100, 500, 2000):
            res = iterate_best_response(discretize(uniform(), n), params)
            errs.append(abs(res.p_approx - eq.p_star))
        assert errs[1] <= errs[0] + 2e-4
        assert errs[2] <= errs[1] + 2e-4

    @pytest.mark.parametrize("k", [-3, 5])
    @pytest.mark.parametrize("m", DISCRETIZE_ZOO, ids=lambda m: m.kind)
    def test_scaling_wealth_by_a_power_of_two_rescales_exactly(self, m, k):
        # scaled(m, 2**k) multiplies every mass, so every wealth, with no
        # rounding; with the budget scaled too, every comparison the
        # iteration makes comes out the same, so it repeats its probes and
        # scales its totals and stakes exactly
        c = 2.0 ** k
        pop, pop_c = discretize(m, 257), discretize(scaled(m, c), 257)
        for kappa, q, w in itertools.product((0.55, 0.8, 0.95), (0.0, 0.3, 0.9, 1.0),
                                             (BASELINE_W, 1.0)):
            base = iterate_best_response(pop, MarketParams(kappa=kappa, q=q, w=w))
            res = iterate_best_response(pop_c, MarketParams(kappa=kappa, q=q, w=c * w))
            case = (kappa, q, w)
            assert (res.p_approx.hex(), res.converged) == (base.p_approx.hex(),
                                                           base.converged), case
            assert ((res.d1, res.d2, res.atomic.a1, res.atomic.a2)
                    == (c * base.d1, c * base.d2, c * base.atomic.a1,
                        c * base.atomic.a2)), case

    @pytest.mark.parametrize("N", [500, 2000, 8000])
    @pytest.mark.parametrize("m", _family_zoo(), ids=lambda m: m.kind)
    def test_totals_within_one_cell_of_the_continuum(self, m, N):
        # the gap in p need not shrink with N: on wedge(100) at kappa = 0.839,
        # q = 1 it stays 2.42e-4 from N = 500 to 4000, since the crossing sits
        # on a jump of the step map. What is O(1/N) is the totals at the
        # crossing: each is off by at most one cell's wealth.
        pop = discretize(m, N)
        for params in (MarketParams(kappa=0.839, q=1.0, w=1.0),
                       MarketParams(kappa=0.8, q=0.0, w=1.0),
                       MarketParams(kappa=0.6, q=0.7, w=0.1)):
            res = iterate_best_response(pop, params)
            d1, d2 = _D(res.p_approx, params.kappa, m)
            assert abs(res.d1 - d1) <= m.total_mass / N
            assert abs(res.d2 - d2) <= m.total_mass / N

    def test_no_wager_with_negative_edge_at_rest(self):
        params = MarketParams(kappa=0.8, q=0.95, w=1.0)
        pop = discretize(wedge(10), 2000)
        res = iterate_best_response(pop, params)
        assert res.converged
        kappa, P = params.kappa, res.p_approx
        on1 = pop.beliefs > P / kappa
        on2 = pop.beliefs < 1.0 - (1.0 - P) / kappa
        edge1 = kappa * pop.beliefs / P - 1.0
        edge2 = kappa * (1.0 - pop.beliefs) / (1.0 - P) - 1.0
        assert np.all(edge1[on1] > -1e-6)
        assert np.all(edge2[on2] > -1e-6)
        # the large bettor follows the same sign rule against the totals
        if res.atomic.a1 > 0:
            assert params.q * kappa * (res.d1 + res.d2) > res.d1
        if res.atomic.a2 > 0:
            assert (1 - params.q) * kappa * (res.d1 + res.d2) > res.d2

    def test_parameter_validation(self):
        pop = discretize(uniform(), 10)
        with pytest.raises(DomainError):
            iterate_best_response(pop, MarketParams(kappa=0.5, q=0.5, w=1.0))

    def test_reports_empty_pool_instead_of_raising(self):
        # beliefs 0.25 and 0.75 both abstain at P = 0.5 when kappa = 0.51,
        # so the first probe finds no pool to take a share of
        params = MarketParams(kappa=0.51, q=0.5, w=1.0)
        res = iterate_best_response(discretize(uniform(), 2), params)
        assert not res.converged
        assert res.iterations == 1
        assert (res.d1, res.d2, res.atomic.total) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["example4_case2", "appendixA"])
    def test_bundled_steep_markets_within_gap_bound(self, name):
        sc = next(c for c in bundled_cases() if c.name == name)  # kappa = 0.8
        res = iterate_best_response(discretize(sc.measure, 2000), sc.params)
        assert res.converged
        assert abs(res.p_approx - solve(sc.params, sc.measure).p_star) < 0.01

    @pytest.mark.parametrize("case", CRITERION8_CASES,
                             ids=[f"{c[0]}@{c[4]}" for c in CRITERION8_CASES])
    def test_discrete_response_map_is_nonincreasing(self, case):
        _, m, q, w, kappa = case
        params = MarketParams(kappa=kappa, q=q, w=w)
        pop = discretize(m, 2000)
        # the map is constant between the jump points of the two wager
        # totals, so the jump points and the midpoints between them cover it
        jumps = np.concatenate([[1.0 - kappa, kappa], kappa * pop.beliefs,
                                1.0 - kappa * (1.0 - pop.beliefs)])
        jumps = np.unique(jumps[(jumps >= 1.0 - kappa) & (jumps <= kappa)])
        grid = np.sort(np.concatenate([jumps, 0.5 * (jumps[1:] + jumps[:-1])]))
        vals = [(P, discrete_response(pop, P, params)) for P in map(float, grid)]
        vals = [v for v in vals if v[1] is not None]
        rises = [(a, b) for a, b in zip(vals, vals[1:]) if b[1] > a[1]]
        assert not rises, rises[:3]


def replayed_bisection(pop, params):
    """The oracle's bisection with the totals taken afresh at every probe."""
    def respond(P):
        d1, d2 = discrete_totals(pop, P, params.kappa)
        if d1 <= 0.0 or d2 <= 0.0:
            return d1, d2, AtomicBet(a1=0.0, a2=0.0)
        return d1, d2, atomic_best_response(DiffuseAggregate(d1=d1, d2=d2), params)

    lo, hi = 1.0 - params.kappa, params.kappa
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        iterations += 1
        d1, d2, bet = respond(mid)
        pool = d1 + d2 + bet.a1 + bet.a2
        if pool <= 0.0:
            return mid, False, iterations, d1, d2, bet
        if (d1 + bet.a1) / pool > mid:
            lo = mid
        else:
            hi = mid
    P = 0.5 * (lo + hi)
    return (P, True, iterations, *respond(P))


def count_totals(monkeypatch):
    """Count the calls to parieq.oracle.discrete_totals from here on."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return discrete_totals(*args)

    monkeypatch.setattr(oracle_mod, "discrete_totals", counted)
    return calls


def count_responses(monkeypatch):
    """Count the responses iterate_best_response computes from here on.

    Each one builds the DiffuseAggregate of its totals once, whether they
    are slices of a sorted population or discrete_totals' masked sums.
    """
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return DiffuseAggregate(*args)

    monkeypatch.setattr(oracle_mod, "DiffuseAggregate", counted)
    return calls


FIVE_KNOTS = tabulated([(0.0, 0.8), (0.25, 1.5), (0.5, 0.7), (0.75, 1.6), (1.0, 1.0)])

# (id, measure, N, params)
LARGE_CASES = (
    [(f"criterion8:{name}@{kappa}", m, 2000, MarketParams(kappa=kappa, q=q, w=w))
     for name, m, q, w, kappa in CRITERION8_CASES]
    + [(f"bundled:{sc.name}", sc.measure, 2000, sc.params) for sc in bundled_cases()]
    + [("tabulated(k=5)", FIVE_KNOTS, 2000, MarketParams(kappa=0.8, q=0.65, w=1.0))])
# the benchmark's 12 oracle_crosscheck cases at seed 0: the criterion-8
# cases, the bundled scenarios but example1 (criterion8:example1 at 0.8) and
# the seed-drawn tabulated measure
CROSSCHECK_CASES = (
    LARGE_CASES[:6] + [c for c in LARGE_CASES[6:12] if c[0] != "bundled:example1"]
    + [("tabulated(seed=0)",
        tabulated([(0.0, 0.7226444216845648), (0.2582177012392873, 1.5939810717600817),
                   (0.4861872028258322, 0.7577857808188811),
                   (0.7224584114361717, 1.6341234482454976), (1.0, 1.0458993121967997)]),
        2000, MarketParams(kappa=0.8174028969515107, q=0.6543624991465422, w=1.0))])
REPLAY_CASES = (
    LARGE_CASES
    + [("empty-pool", uniform(), 2, MarketParams(kappa=0.51, q=0.5, w=1.0))]
    + [(f"{m.kind}:N={N}", m, N, params)
       for m in _family_zoo() for N in (2, 3, 10)
       for params in (MarketParams(kappa=0.839, q=1.0, w=1.0),
                      MarketParams(kappa=0.6, q=0.7, w=0.1),
                      MarketParams(kappa=0.51, q=0.5, w=1.0))])


def assert_replays(pop, params):
    P, converged, iterations, d1, d2, bet = replayed_bisection(pop, params)
    res = iterate_best_response(pop, params)
    assert (res.iterations, res.converged) == (iterations, converged)
    assert ([x.hex() for x in (res.p_approx, res.d1, res.d2,
                               res.atomic.a1, res.atomic.a2)]
            == [x.hex() for x in (P, d1, d2, bet.a1, bet.a2)])


def _thresholds_of_first_probes(kappa, depth=4):
    # both thresholds at every probe the bisection can make in its first
    # depth rounds, whichever side each round keeps
    out, brackets = [], [(1.0 - kappa, kappa)]
    for _ in range(depth):
        nxt = []
        for lo, hi in brackets:
            mid = 0.5 * (lo + hi)
            out += [mid / kappa, 1.0 - (1.0 - mid) / kappa]
            nxt += [(lo, mid), (mid, hi)]
        brackets = nxt
    return np.array(out)


def _odd_population(kind, params):
    # a population discretize never makes, built on wedge(10)'s at N = 500
    base = discretize(wedge(10), 500)
    b, w = base.beliefs.copy(), base.wealths.copy()
    rng = np.random.default_rng(5)
    if kind == "tied":
        b = np.round(b, 2)  # 56 distinct beliefs, up to 82 bettors at one
    elif kind == "at-thresholds":
        at = _thresholds_of_first_probes(params.kappa)
        b[rng.choice(b.size, at.size, replace=False)] = at
        b = np.sort(b)
    elif kind == "unequal-wealths":
        w = rng.uniform(0.1, 2.0, b.size) / b.size
    elif kind == "tied-unequal-wealths":
        b = np.round(b, 2)
        w = rng.uniform(0.1, 2.0, b.size) / b.size
    elif kind == "signed-zeros":  # equal, so in order either way round
        b[:6] = [-0.0, 0.0, -0.0, -0.0, 0.0, 0.0]
    elif kind == "one-bettor":
        b, w = np.array([0.3]), np.array([1.0])
    # the rest are unsorted or hold a NaN or an infinite belief: rejected
    elif kind == "shuffled":
        b = rng.permutation(b)
    elif kind == "infinite":
        b[[3, 200, 499]] = [-math.inf, math.inf, math.inf]
    elif kind == "nan":
        b[250] = math.nan
    elif kind == "half-nan":
        b[::2] = math.nan
    elif kind == "sorted-infinite":
        b[[0, 498, 499]] = [-math.inf, math.inf, math.inf]
    elif kind == "one-nan":
        b, w = np.array([math.nan]), np.array([1.0])
    elif kind == "empty":
        b, w = np.array([]), np.array([])
    return DiscretePopulation(beliefs=b, wealths=w)


ODD_POPULATIONS = ["tied", "at-thresholds", "unequal-wealths", "tied-unequal-wealths",
                   "signed-zeros", "one-bettor", "empty"]
REJECTED_POPULATIONS = ["shuffled", "infinite", "nan", "half-nan", "sorted-infinite",
                        "one-nan"]
ODD_MARKETS = [MarketParams(kappa=0.8, q=0.9, w=1.0),
               MarketParams(kappa=0.839, q=1.0, w=1.0),
               MarketParams(kappa=0.6, q=0.7, w=0.1)]


class TestCountKeyedTotals:
    @pytest.mark.parametrize("case", REPLAY_CASES, ids=[c[0] for c in REPLAY_CASES])
    def test_matches_fresh_totals_at_every_probe_bit_for_bit(self, case):
        _, m, N, params = case
        assert_replays(discretize(m, N), params)

    @pytest.mark.parametrize("params", ODD_MARKETS, ids=lambda p: f"kappa={p.kappa}")
    @pytest.mark.parametrize("kind", ODD_POPULATIONS)
    def test_matches_fresh_totals_on_any_population(self, kind, params):
        # the key counts bettors by binary search in the beliefs and the
        # totals are the wealths' end slices; with ties, bettors exactly at
        # a threshold and unequal wealths they must still be the counts and
        # the masked sums discrete_totals gives
        assert_replays(_odd_population(kind, params), params)

    @pytest.mark.parametrize("kind", REJECTED_POPULATIONS)
    def test_rejects_a_population_it_cannot_count(self, kind):
        # binary search and end slices count only sorted beliefs in [0, 1];
        # these once took discrete_totals' masks and now fail at construction
        with pytest.raises(DomainError, match="nondecreasing"):
            _odd_population(kind, ODD_MARKETS[0])

    def test_empty_pool_counts_its_one_evaluation(self, monkeypatch):
        params = MarketParams(kappa=0.51, q=0.5, w=1.0)
        calls = count_responses(monkeypatch)
        res = iterate_best_response(discretize(uniform(), 2), params)
        assert not res.converged
        assert res.evaluations == calls[0] == 1

    @pytest.mark.parametrize("case", LARGE_CASES, ids=[c[0] for c in LARGE_CASES])
    def test_evaluations_count_the_computed_responses(self, case, monkeypatch):
        _, m, N, params = case
        pop = discretize(m, N)
        calls, totals = count_responses(monkeypatch), count_totals(monkeypatch)
        res = iterate_best_response(pop, params)
        assert res.evaluations == calls[0] <= res.iterations + 1
        assert totals[0] == 0  # discrete_totals is never called
        again = iterate_best_response(pop, params)
        assert again.evaluations == res.evaluations
        # left out of == and repr, like the other result counts
        assert dataclasses.replace(res, evaluations=res.evaluations + 1) == res
        assert "evaluations" not in repr(res)

    def test_benchmark_cases_compute_few_totals(self, monkeypatch):
        # the bisection makes 48 to 55 probes per call on the 12
        # oracle_crosscheck cases at N = 2000, but their totals take only 3
        # to 18 distinct values, one per pair of bettor counts
        for key, m, N, params in CROSSCHECK_CASES:
            pop = discretize(m, N)
            calls = count_responses(monkeypatch)
            res = iterate_best_response(pop, params)
            assert calls[0] <= 20, key
            assert res.evaluations == calls[0], key


# --------------------------------------------------------------------------
# an exact referee for the discrete fixed point
# --------------------------------------------------------------------------

REFEREE_PRECISION = 50  # significant decimal digits of the stake's square root
# max |p_approx - P*| in ulps of p_approx over the 12 CROSSCHECK_CASES at
# N = 2000, P* the exact fixed point, rounded up in its third digit: +2.6974
# on bundled:appendixA at kappa = 0.8, then -2.6420 on
# criterion8:example4_case2 at kappa = 0.839; bundled:example2 lands on 0.5
ORACLE_ULPS_BOUND = 2.70


def exact_totals(pop, kappa):
    """(totals, breakpoints) of the discrete market at the exact kappa.

    totals(P) gives the exact wealth (d1, d2) backing each outcome at a
    rational P: a bettor of belief b backs Outcome 1 at P < kappa b and
    Outcome 2 at P > 1 - kappa (1 - b). The breakpoints are the band's ends
    and every such kappa b or 1 - kappa (1 - b) strictly inside the band,
    in order; between consecutive ones the totals are constant.
    """
    K = Fraction(kappa)
    ranked = sorted(zip(pop.beliefs.tolist(), pop.wealths.tolist()))
    prefix = [Fraction(0)]  # the wealth of the bettors below each rank
    for _, wealth in ranked:
        prefix.append(prefix[-1] + Fraction(wealth))
    up = [K * Fraction(b) for b, _ in ranked]  # backs Outcome 1 below these P
    down = [1 - K * (1 - Fraction(b)) for b, _ in ranked]  # ... Outcome 2 above

    def totals(P: Fraction) -> tuple[Fraction, Fraction]:
        n1, n2 = len(up) - bisect_right(up, P), bisect_left(down, P)
        return prefix[-1] - prefix[len(up) - n1], prefix[n2]

    return totals, [1 - K] + sorted({x for x in up + down if 1 - K < x < K}) + [K]


def exact_discrete_fixed_point(pop, params) -> Decimal | None:
    """The exact crossing of the diagonal by the discrete response map.

    Float beliefs, wealths and market parameters are exact rationals, and
    the map is constant between consecutive breakpoints of exact_totals.
    On each step the totals are exact Fractions, the large bettor's regime
    and cap are decided exactly, and only her interior square-root stake is
    a Decimal, at the caller's precision. She stakes nothing where a total
    is zero, as iterate_best_response's cache does. The map falls with P,
    so a binary search finds the first step whose value is at most its
    right end; the fixed point is the larger of that value and the step's
    left end, a jump point when the value lies below it. The result is
    continuous in the map's values, so the Decimal rounding moves it by no
    more than that rounding.

    None when the search meets a step where nobody wagers. The totals are
    monotone in P, so such steps form one run, with only Outcome 1 backed
    (the map at 1) before it and only Outcome 2 (the map at 0) after it:
    the map crosses the diagonal nowhere it is defined. Every step before
    the run has a value above its right end, so the search can neither
    settle before the run nor pass it without a probe in it.
    """
    Q, W, K = Fraction(params.q), Fraction(params.w), Fraction(params.kappa)
    totals, ends = exact_totals(pop, params.kappa)

    def value(j) -> Decimal | None:
        # the map on the open step (ends[j], ends[j + 1])
        d1, d2 = totals((ends[j] + ends[j + 1]) / 2)
        if d1 + d2 == 0:
            return None
        stakes = [Decimal(0), Decimal(0)]
        if d1 > 0 and d2 > 0:
            for side, (b, own) in enumerate(((Q, d1), (1 - Q, d2))):
                if b > own / (K * (d1 + d2)):  # Outcome 1 first, as she decides
                    stakes[side] = _exact_stake(K * b / (1 - K * b) * d1 * d2, own, W)
                    break
        a1, a2 = stakes
        return (_dec(d1) + a1) / (_dec(d1 + d2) + a1 + a2)

    first, last = 0, len(ends) - 2  # the last step's value is 0, below kappa
    while first < last:
        mid = (first + last) // 2
        if (at := value(mid)) is None:
            return None
        if at <= _dec(ends[mid + 1]):
            last = mid
        else:
            first = mid + 1
    at = value(first)
    return None if at is None else max(at, _dec(ends[first]))


# small random tabulated markets, drawn as test_referee draws its fuzz, each
# discretized at N = U{2, ..., 64}, where one-sided totals and empty pools
# occur
SMALL_FUZZ_SEED, SMALL_FUZZ_MARKETS = 3, 500
# max |p_approx - P*| in ulps over the converged ones, rounded up in its
# third digit: -2.6335 at N = 50. Other seeds reach further (3.86 ulps on
# seed 5 at 1,000 markets), so this bound is the seeded set's alone
SMALL_FUZZ_ULPS_BOUND = 2.64


def _exact_stake(square: Fraction, own: Fraction, cap: Fraction) -> Decimal:
    # min(cap, max(0, sqrt(square) - own)), the comparisons exact
    if square >= (own + cap) ** 2:
        return _dec(cap)
    if square > own ** 2:
        return _dec(square).sqrt() - _dec(own)
    return Decimal(0)


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _ulps_off(pop, params) -> float:
    # (p_approx - the exact fixed point) in ulps of p_approx
    res = iterate_best_response(pop, params)
    assert res.converged
    with localcontext() as ctx:
        ctx.prec = REFEREE_PRECISION
        exact = exact_discrete_fixed_point(pop, params)
        return float((Decimal(res.p_approx) - exact) / Decimal(math.ulp(res.p_approx)))


class TestExactReferee:
    """iterate_best_response's p_approx against the exact discrete fixed point."""

    def test_small_random_markets(self):
        # converged=False exactly where the exact map's pool is empty at the
        # P where the search stopped, and there the exact referee finds no
        # crossing either; elsewhere p_approx lies within a few ulps of the
        # exact fixed point P*_N. The discretisation error |P*_N - p*|, p*
        # the continuum's, is printed apart: it is the oracle's gap to the
        # continuum, not a float error
        rng = random.Random(SMALL_FUZZ_SEED)
        ulps, gaps, empty = [], [], 0
        for _ in range(SMALL_FUZZ_MARKETS):
            knots, params = random_market(rng)
            N, m = rng.randint(2, 64), tabulated(knots)
            pop = discretize(m, N)
            res = iterate_best_response(pop, params)
            d1, d2 = exact_totals(pop, params.kappa)[0](Fraction(res.p_approx))
            assert res.converged == (d1 + d2 > 0), (knots, params, N)
            with localcontext() as ctx:
                ctx.prec = REFEREE_PRECISION
                exact = exact_discrete_fixed_point(pop, params)
                assert (exact is None) == (not res.converged), (knots, params, N)
                if exact is None:
                    empty += 1
                    continue
                ulps.append((float((Decimal(res.p_approx) - exact)
                                   / Decimal(math.ulp(res.p_approx))), N, params))
            gaps.append((abs(float(exact) - solve(params, m).p_star), N, params))
        worst = max(ulps, key=lambda u: abs(u[0]))
        gaps.sort(key=lambda g: g[0])
        print(f"{empty} of {SMALL_FUZZ_MARKETS} pools empty; float error: worst "
              f"{worst[0]:+.4f} ulps at N = {worst[1]}, {worst[2]}")
        print(f"discretisation error |P*_N - p*|: median {gaps[len(gaps) // 2][0]:.3e}, "
              f"worst {gaps[-1][0]:.3e} at N = {gaps[-1][1]}, {gaps[-1][2]}")
        assert 0 < empty < SMALL_FUZZ_MARKETS
        assert abs(worst[0]) <= SMALL_FUZZ_ULPS_BOUND, worst

    def test_benchmark_cases_lie_within_a_few_ulps(self):
        # p_approx is the last bracket's midpoint, where the float map, with
        # its rounded thresholds, totals and stake, changes sides
        ulps = {key: _ulps_off(discretize(m, N), params)
                for key, m, N, params in CROSSCHECK_CASES}
        worst = max(ulps, key=lambda k: abs(ulps[k]))
        assert abs(ulps[worst]) <= ORACLE_ULPS_BOUND, (worst, ulps)

    def test_an_empty_pool_has_no_crossing(self):
        # beliefs 0.25 and 0.75 both abstain on the step around P = 0.5 at
        # kappa = 0.51, between the steps where only one side is backed
        pop, params = discretize(uniform(), 2), MarketParams(kappa=0.51, q=0.5, w=1.0)
        with localcontext() as ctx:
            ctx.prec = REFEREE_PRECISION
            assert exact_discrete_fixed_point(pop, params) is None
        assert not iterate_best_response(pop, params).converged

    @pytest.mark.parametrize("wealths, q, want", [
        # she abstains; on the step (0.4, 0.6) both bet and the map is 1/2
        ((1.0, 1.0), 0.5, Fraction(1, 2)),
        # she abstains and the map is 1/4 on that step, below its left end:
        # the crossing is the jump where the low bettor starts on Outcome 2
        ((3.0, 1.0), 0.3, 1 - Fraction(0.8) * (1 - Fraction(0.25))),
        # she backs Outcome 1 with sqrt(18/7) - 1 on (0.4, 0.6), where the
        # map is above 0.6; past 0.6 only Outcome 2 is backed: the jump there
        ((1.0, 1.0), 0.9, Fraction(0.8) * Fraction(0.75)),
    ])
    def test_two_bettors_by_hand(self, wealths, q, want):
        # beliefs 1/4 and 3/4 at kappa = 0.8: the high one backs Outcome 1
        # below P = 0.6, the low one Outcome 2 above P = 0.4, and no other
        # breakpoint lies in the band (0.2, 0.8)
        pop = DiscretePopulation(beliefs=np.array([0.25, 0.75]), wealths=np.array(wealths))
        params = MarketParams(kappa=0.8, q=q, w=1.0)
        with localcontext() as ctx:
            ctx.prec = REFEREE_PRECISION
            assert exact_discrete_fixed_point(pop, params) == _dec(want)
        assert abs(_ulps_off(pop, params)) <= 1.0
