"""An independent high-precision referee for the bundled sweeps and random markets.

Every bundled scenario's measure is a wedge or a symmetrized wedge, and a
tabulated measure's density is linear between float knots. Each density is
piecewise linear with rational knots, so its cumulative and first moment are
piecewise polynomials with rational coefficients, written here from the
knots alone. A Gaussian mixture's cumulative is a sum of erf values, taken
from erf's Maclaurin series, and its first moment adds exp values. At 50
significant decimal digits the referee evaluates the composed best-response
map at a candidate p:
- the small-bettor totals at p;
- the large bettor's regime, decided at p from those totals;
- her square-root stake, capped at the budget.

It then bisects the map's crossing with the diagonal to a bracket below
1e-30, and reports p* with the totals d1*, d2* and the stakes a1, a2 there,
the house revenue, and the small bettors' subjective profit from each
betting group's first moment. It computes no action boundary and calls no
float code of the package: from parieq it takes only the scenario files and
the float results it judges.
"""

import itertools
import math
import random
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from parieq.cli import BASELINE_W
from parieq.equilibrium import solve
from parieq.measure import gaussian_mixture, scaled, tabulated
from parieq.metrics import diffuse_subjective_profit, house_revenue
from parieq.response import MarketParams
from parieq.scenario import bundled_scenarios, load_scenario
from parieq.stackelberg import KAPPA_SEARCH_HI, KAPPA_SEARCH_LO, grid_revenues

PRECISION = 50  # significant decimal digits
BRACKET = Decimal("1e-30")

FIELDS = ("p_star", "d1_star", "d2_star", "a1", "a2")
# max |float - referee| over the 550 rows, each pinned rounded up in its third
# digit. p*: 4.9505e-11, on example4_case1 at w = 1e-10, where the float solve
# stops at p* = 0.5 with a residual within its 1e-10 tolerance. The totals
# and stakes carry that error times the map's slopes: d1* 4.6403e-11 on
# example2 at kappa = 0.9081, d2* 7.7007e-09 and a2 3.8505e-09 on appendixA at
# kappa = 0.5205, w = 1, and a1 1.6005e-09 on example4_case2 at kappa = 0.5001,
# w = 1, where the float stake is half the referee's
BOUNDS = dict(zip(FIELDS, (4.96e-11, 4.65e-11, 7.71e-09, 1.61e-09, 3.86e-09)))
# (scenario, take) of the rows near a regime boundary, whose tiny stakes
# are most sensitive to the bisection's error; printed at both budgets
BOUNDARY_ROWS = {("example4_case2", 0.5001), ("appendixA", 0.5205)}

METRICS = ("house_revenue", "diffuse_subjective_profit")
# max |float - referee| over the 550 rows, pinned the same way. Revenue:
# 2.400e-09 on example4_case2 at kappa = 0.5001, w = 1, the halved stake's
# row. Subjective profit: 2.761e-04 on appendixA at kappa = 0.9999, w = 1,
# then 2.059e-04 on example3 at kappa = 0.7857, w = 1; on both, adaptive
# Simpson converges falsely across the wedge's knee at 1/n, and scipy's quad
# split at the knee agrees with the referee
METRIC_BOUNDS = dict(zip(METRICS, (2.41e-09, 2.77e-04)))

# the first 16 takes of each bundled 256-take optimize_take grid, where the
# lanes' composed map and solve's boundaries differ on six takes, and
# every 16th take: 31 takes per grid
GRID_TAKES = sorted(set(range(16)) | set(range(0, 256, 16)))
# max |grid revenue - referee| over them, pinned rounded up in its third
# digit: 1.4710e-14 on example4_case2 at take 16 (kappa = 0.53146); solve's
# errors there reach 2.4e-09. The lanes run to float resolution, so on 3 of
# the 186 takes the grid is farther than solve by less than 2.3e-16, at
# most 6.4e-16 against solve's 4.1e-16 (example4_case1, take 2)
GRID_REVENUE_BOUND = 1.48e-14

# random tabulated markets (see _random_markets)
FUZZ_SEED, FUZZ_MARKETS = 1, 1000
# max |float - referee| over them, pinned the same way: p* 4.0060e-11, d1*
# 2.3142e-09, d2* 2.0500e-09, a1 8.2606e-10 and a2 5.9215e-10
FUZZ_BOUNDS = dict(zip(FIELDS, (4.01e-11, 2.32e-09, 2.06e-09, 8.27e-10, 5.93e-10)))
# |float - referee| / referee over the positive stakes. Rounding p* alone to
# the float nearest the referee's gives at most 3.14e-04 (kappa = 0.50011,
# q = 1, stake 8.17e-12), so a solve converged to float resolution meets this
STAKE_REL_BOUND = 1e-3


# Gaussian mixtures (see _mixture_markets): (means, stddevs, scale factor)
# templates and (kappa, q, w) points
MIXTURE_SEED, MIXTURE_DRAWS = 2, 6
MIXTURE_TEMPLATES = (((0.3, 0.7), (0.2, 0.2), 1.0),
                     ((0.2, 0.5, 0.8), (0.25, 0.3, 0.25), 1.0),
                     ((0.4, 0.75), (0.3, 0.2), 1.5))
MIXTURE_POINTS = ((0.6, 0.3, 1.0), (0.75, 0.85, 0.1), (0.9, 0.6, 1.0))
# max |float - referee| over them, pinned the same way, all on the kappa =
# 0.90 point: p* 4.4823e-11, d1* 2.0730e-10, d2* 1.7855e-10, a1 2.1092e-10,
# a2 1.2954e-10, revenue 1.7790e-11 and subjective profit 2.8340e-11 from
# first moments (2.8388e-11 when it was integrated by adaptive Simpson)
MIXTURE_BOUNDS = dict(zip(FIELDS + METRICS, (4.49e-11, 2.08e-10, 1.79e-10, 2.11e-10,
                                             1.30e-10, 1.78e-11, 2.84e-11)))
# max |exact_moment - referee| over both betting groups' intervals, [t1, 1]
# and [0, t2], at the thresholds of the float solve on each of them, pinned
# the same way: 3.5580e-16 on [0.61046, 1] at kappa = 0.9023, a moment of 1.046
MIXTURE_MOMENT_BOUND = 3.56e-16
# |mass - referee| / referee on a kernel a million times wider than [0, 1],
# over intervals to one side of its mean: 2.3091e-16 on [0.6, 0.9], pinned
# the same way. Its z there are below 1e-6, where erfc values near 1 would
# cancel to about 2.6e-10, as they did before erf served that side
WIDE_KERNEL = ((1.0,), (0.5,), (1e6,), 1.0)
WIDE_KERNEL_INTERVALS = ((0.0, 0.3), (0.1, 0.45), (0.55, 1.0), (0.6, 0.9), (0.7, 1.0))
WIDE_KERNEL_REL_BOUND = 2.31e-16


def _wedge_knots(spec: dict) -> list[tuple[Fraction, Fraction]]:
    # a bundled wedge or symmetrized wedge as exact (belief, density) knots,
    # the density linear between them
    n = Fraction(spec["n"])
    knee = 1 / n

    def wedge(p):  # falls linearly to 1/n at the knee 1/n, then flat at 1/n
        return 2 * (n - 1) * (1 - n * p) + knee if p < knee else knee

    if spec["kind"] == "wedge":
        f, xs = wedge, {Fraction(0), knee, Fraction(1)}
    else:
        assert spec["kind"] == "symmetrized_wedge"  # wedge(n) averaged with its mirror
        f, xs = (lambda p: (wedge(p) + wedge(1 - p)) / 2), {Fraction(0), knee, 1 - knee,
                                                             Fraction(1)}
    return [(x, f(x)) for x in sorted(xs)]


def _pieces(knots) -> list[tuple[Fraction, ...]]:
    # per linear piece of the density from knot a, with slope s: (a, mass
    # below a, first moment below a, density at a, s). At a + t the mass
    # below is m0 + t (f(a) + s t / 2) and the first moment is
    # m1 + t (a f(a) + t ((a s + f(a)) / 2 + s t / 3))
    out, m0, m1 = [], Fraction(0), Fraction(0)
    for (a, fa), (b, fb) in zip(knots, knots[1:]):
        s, t = (fb - fa) / (b - a), b - a
        out.append((a, m0, m1, fa, s))
        m0 += t * (fa + s * t / 2)
        m1 += t * (a * fa + t * ((a * s + fa) / 2 + s * t / 3))
    out.append((knots[-1][0], m0, m1, knots[-1][1], Fraction(0)))
    return out


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _cumulatives(knots):
    # the mass and the first moment of [0, x] at the context's precision,
    # for x in [0, 1]
    pieces = [tuple(map(_decimal, piece)) for piece in _pieces(knots)]
    edges = [a for a, *_ in pieces]

    def piece(x):
        a, m0, m1, fa, s = pieces[bisect_right(edges, x) - 1]
        return x - a, a, m0, m1, fa, s

    def F(x: Decimal) -> Decimal:
        t, a, m0, m1, fa, s = piece(x)
        return m0 + t * (fa + s * t / 2)

    def M(x: Decimal) -> Decimal:
        t, a, m0, m1, fa, s = piece(x)
        return m1 + t * (a * fa + t * ((a * s + fa) / 2 + s * t / 3))
    return F, M


# sqrt(pi) to 68 digits
SQRT_PI = Decimal("1.7724538509055160272981674833411451827975494561223871282138077898529")
ERF_GUARD = 20  # the series' terms reach about exp(x^2) and cancel: 1e12 at |x| = 5.3


def _erf(x: Decimal) -> Decimal:
    # 2 / sqrt(pi) * sum of (-1)^n x^(2n+1) / (n! (2n+1)), summed until a
    # term no longer changes the sum, at the context's precision
    with localcontext() as ctx:
        ctx.prec += ERF_GUARD
        term = total = x  # term: (-1)^n x^(2n+1) / n!
        n = 0
        while True:
            n += 1
            term = -term * x * x / n
            if (nxt := total + term / (2 * n + 1)) == total:
                break
            total = nxt
        out = 2 * total / SQRT_PI
    return +out  # rounded to the caller's precision


def _mixture_cumulatives(spec):
    # the mass and first moment of [0, x] for factor times the Gaussian
    # mixture: kernel k, weight c at mean mu with deviation sd, adds
    # c/2 (erf(z(x)) - erf(z(0))) to the mass, z(t) = (t - mu) / (sd sqrt 2),
    # and mu times that less c sd / sqrt(2 pi) (exp(-z(x)^2) - exp(-z(0)^2))
    # to the first moment
    weights, means, stddevs, factor = spec
    kernels = []
    for c, mu, sd in zip(weights, means, stddevs):
        c, mu, sd = Decimal(c), Decimal(mu), Decimal(sd)
        width = sd * Decimal(2).sqrt()
        kernels.append((c, mu, width, _erf(-mu / width), (-(mu / width) ** 2).exp()))

    def F(x: Decimal) -> Decimal:
        return Decimal(factor) * sum(c / 2 * (_erf((x - mu) / width) - e0)
                                     for c, mu, width, e0, g0 in kernels)

    def M(x: Decimal) -> Decimal:
        return Decimal(factor) * sum(
            mu * c / 2 * (_erf((x - mu) / width) - e0)
            - c * width / (2 * SQRT_PI) * ((-((x - mu) / width) ** 2).exp() - g0)
            for c, mu, width, e0, g0 in kernels)
    return F, M


def _referee(spec, kappa: float, q: float, w: float,
             cumulatives=_cumulatives) -> tuple[Decimal, ...]:
    # (p*, d1*, d2*, a1*, a2*, house revenue, small bettors' subjective
    # profit): the crossing, everyone's wagers there and the two metrics,
    # for the measure whose cumulatives(spec) are F and M
    with localcontext() as ctx:
        ctx.prec = PRECISION
        F, M = cumulatives(spec)
        kappa, q, w = Decimal(kappa), Decimal(q), Decimal(w)  # exact
        total, zero = F(Decimal(1)), Decimal(0)

        def stake(belief, d1, d2, own):
            # the square root exceeds own exactly when the edge at a zero
            # stake is positive, so in the regimes below it needs no max(0, .)
            return min(w, (kappa * belief * d1 * d2 / (1 - kappa * belief)).sqrt() - own)

        def respond(p):
            # the totals at p and the large bettor's best response: (d1, d2, a1, a2)
            d1 = total - F(p / kappa)
            d2 = F(1 - (1 - p) / kappa)
            pool = kappa * (d1 + d2)
            if q * pool > d1:  # a positive edge on Outcome 1 at a zero stake
                return d1, d2, stake(q, d1, d2, d1), zero
            if (1 - q) * pool > d2:  # ... on Outcome 2
                return d1, d2, zero, stake(1 - q, d1, d2, d2)
            return d1, d2, zero, zero

        def phi(p):
            d1, d2, a1, a2 = respond(p)
            return (a1 + d1) / (a1 + a2 + d1 + d2)

        # phi(1 - kappa) = 1 and phi(kappa) = 0, so the ends straddle the root
        lo, hi = 1 - kappa, kappa
        while hi - lo >= BRACKET:
            mid = (lo + hi) / 2
            if phi(mid) > mid:
                lo = mid
            else:
                hi = mid
        p = (lo + hi) / 2
        d1, d2, a1, a2 = respond(p)
        revenue = (1 - kappa) * (d1 + d2 + a1 + a2)
        # each group's edge kappa * belief / p - 1 (Outcome 2 mirrored)
        # integrated against the density: kappa / p times its first moment
        # less its mass
        profit = (kappa / p * (M(Decimal(1)) - M(p / kappa)) - d1
                  + kappa / (1 - p) * (d2 - M(1 - (1 - p) / kappa)) - d2)
        return p, d1, d2, a1, a2, revenue, profit


def _rows():
    # every row of the bundled sweep --baseline: each take, at both budgets
    for name, path in sorted(bundled_scenarios().items()):
        sc = load_scenario(path)
        for kappa in sc.kappa.kappas():
            for w in sorted({BASELINE_W, sc.w}):
                yield name, sc, kappa, w


def random_market(rng: random.Random):
    """One random tabulated market, (knots, params), drawn from rng.

    2 to 6 knots, the inner ones uniform, with values 10^U(-2, 2); kappa
    0.5 + 10^U(-4, log10 0.5) or U(0.5, 1), half each; q 0, 1 or U(0, 1), a
    third each; w 10^U(-10, 1).
    """
    xs = [0.0, *sorted(rng.random() for _ in range(rng.randint(0, 4))), 1.0]
    knots = [(x, 10.0 ** rng.uniform(-2.0, 2.0)) for x in xs]
    if rng.random() < 0.5:
        kappa = 0.5 + 10.0 ** rng.uniform(-4.0, math.log10(0.5))
    else:
        kappa = rng.uniform(0.5, 1.0)
    q = rng.choice((0.0, 1.0, None))
    q = rng.random() if q is None else q
    return knots, MarketParams(kappa=kappa, q=q, w=10.0 ** rng.uniform(-10.0, 1.0))


def _random_markets():
    # seeded, so every run draws the same markets
    rng = random.Random(FUZZ_SEED)
    for _ in range(FUZZ_MARKETS):
        yield random_market(rng)


def _mixture_markets():
    # the benchmark's quadrature_solve mixtures, two plain and one scaled,
    # each jittered as it jitters them, at its three (kappa, q, w) points;
    # q is mirrored on every other draw, so that both stakes occur
    rng = random.Random(MIXTURE_SEED)
    for draw in range(MIXTURE_DRAWS):
        for means, stddevs, factor in MIXTURE_TEMPLATES:
            spec = ([rng.uniform(0.9, 1.1) for _ in means],
                    [mu + rng.uniform(-0.02, 0.02) for mu in means],
                    [sd * rng.uniform(0.97, 1.03) for sd in stddevs],
                    factor * rng.uniform(0.9, 1.1) if factor != 1.0 else 1.0)
            for kappa, q, w in MIXTURE_POINTS:
                kappa += rng.uniform(-0.005, 0.005)
                q += rng.uniform(-0.02, 0.02)
                yield spec, MarketParams(kappa=kappa, q=1.0 - q if draw % 2 else q, w=w)


def _exact(knots) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(x), Fraction(v)) for x, v in knots]


def test_referee_densities_have_unit_mass():
    for spec in ({"kind": "wedge", "n": 1}, {"kind": "wedge", "n": 10},
                 {"kind": "wedge", "n": 100}, {"kind": "symmetrized_wedge", "n": 100}):
        assert _pieces(_wedge_knots(spec))[-1][1] == 1, spec


@pytest.mark.parametrize("knots", [
    _wedge_knots({"kind": "wedge", "n": 10}),
    _wedge_knots({"kind": "symmetrized_wedge", "n": 100}),
    *(_exact(knots) for knots, _ in itertools.islice(_random_markets(), 5))])
def test_referee_moments_are_simpsons_on_each_piece(knots):
    # Simpson's rule is exact for the quadratic p f(p) and the linear f(p)
    # on a linear piece, so it checks the pieces' closed forms
    m0 = m1 = Fraction(0)
    for ((a, fa), (b, fb)), piece in zip(zip(knots, knots[1:]), _pieces(knots)):
        assert piece[:3] == (a, m0, m1)
        mid, fmid = (a + b) / 2, (fa + fb) / 2
        m0 += (b - a) * (fa + 4 * fmid + fb) / 6
        m1 += (b - a) * (a * fa + 4 * mid * fmid + b * fb) / 6
    assert _pieces(knots)[-1][1:3] == (m0, m1)


def test_referee_erf_is_maths_to_float_resolution():
    # at 50 digits the series rounds to within an ulp or so of math.erf,
    # across the range of z the mixtures reach and a little beyond
    with localcontext() as ctx:
        ctx.prec = PRECISION
        for x in (-6.0, -5.3, -1.0, -1e-3, 0.0, 0.1, 0.5, 2.5, 4.0):
            assert float(_erf(Decimal(x))) == pytest.approx(math.erf(x), rel=3e-16, abs=0.0)


def _solved(eq) -> tuple[float, ...]:
    return eq.p_star, eq.d1_star, eq.d2_star, eq.atomic.a1, eq.atomic.a2


def _abs_errors(got, ref) -> list[float]:
    return [float(abs(Decimal(x) - r)) for x, r in zip(got, ref)]


@pytest.fixture(scope="module")
def bundled_rows():
    # per bundled row: (name, kappa, w, the float values of FIELDS and
    # METRICS, the referee's, and |float - referee| for each)
    out = []
    for name, sc, kappa, w in _rows():
        params, m = MarketParams(kappa=kappa, q=sc.q, w=w), sc.belief_measure
        eq = solve(params, m)
        got = (*_solved(eq), house_revenue(eq, params),
               diffuse_subjective_profit(eq, params, m))
        ref = _referee(_wedge_knots(sc.measure), kappa, sc.q, w)
        out.append((name, kappa, w, got, ref, _abs_errors(got, ref)))
    return out


def test_float_solve_agrees_with_the_referee_on_every_bundled_row(bundled_rows):
    rows = bundled_rows
    assert len(rows) == 550
    for name, kappa, w, got, ref, err in rows:
        if (name, round(kappa, 4)) in BOUNDARY_ROWS:
            print(f"{name} kappa={kappa!r} w={w!r}")
            for field, x, r, e in zip(FIELDS, got, ref, err):
                print(f"  {field}: float {x!r} referee {float(r)!r} error {e:.3e}")
    for i, (field, bound) in enumerate(BOUNDS.items()):
        worst = max(rows, key=lambda row: row[5][i])
        assert worst[5][i] <= bound, (field, worst[:3], worst[5][i])


def test_revenue_and_subjective_profit_agree_with_the_referee(bundled_rows):
    for i, (metric, bound) in enumerate(METRIC_BOUNDS.items(), len(FIELDS)):
        ranked = sorted(bundled_rows, key=lambda row: row[5][i], reverse=True)
        for name, kappa, w, got, ref, err in ranked[:3]:
            print(f"{metric} {name} kappa={kappa!r} w={w!r}: float {got[i]!r} "
                  f"referee {float(ref[i])!r} error {err[i]:.3e}")
        assert ranked[0][5][i] <= bound, (metric, ranked[0][:3], ranked[0][5][i])


def test_take_grid_revenues_agree_with_the_referee():
    # and wherever the grid's revenue is not solve's, it is no farther from
    # the referee than solve's or than the bound
    span, errors = KAPPA_SEARCH_HI - KAPPA_SEARCH_LO, []
    grid = [KAPPA_SEARCH_LO + span * i / 255 for i in range(256)]
    for name, path in sorted(bundled_scenarios().items()):
        sc = load_scenario(path)
        revenues = grid_revenues(grid, sc.q, sc.w, sc.belief_measure)
        for i in GRID_TAKES:
            kappa, got = grid[i], revenues[i]
            params = MarketParams(kappa=kappa, q=sc.q, w=sc.w)
            solved = house_revenue(solve(params, sc.belief_measure), params)
            ref = _referee(_wedge_knots(sc.measure), kappa, sc.q, sc.w)[5]
            err, solved_err = _abs_errors((got, solved), (ref, ref))
            if got != solved:
                print(f"{name} kappa={kappa!r}: grid error {err:.3e}, "
                      f"solve's {solved_err:.3e}")
                assert err <= max(solved_err, GRID_REVENUE_BOUND), (
                    name, kappa, err, solved_err)
            errors.append((err, name, kappa))
    assert len(errors) == 6 * len(GRID_TAKES)
    assert max(errors)[0] <= GRID_REVENUE_BOUND, max(errors)


@pytest.fixture(scope="module")
def random_rows():
    # per random market: (knots, params, the float FIELDS, the referee's,
    # and |float - referee| for each)
    out = []
    for knots, params in _random_markets():
        got = _solved(solve(params, tabulated(knots)))
        ref = _referee(_exact(knots), params.kappa, params.q, params.w)[:len(FIELDS)]
        out.append((knots, params, got, ref, _abs_errors(got, ref)))
    return out


def test_float_solve_agrees_with_the_referee_on_random_markets(random_rows):
    assert len(random_rows) == FUZZ_MARKETS
    for i, (field, bound) in enumerate(FUZZ_BOUNDS.items()):
        worst = max(random_rows, key=lambda row: row[4][i])
        assert worst[4][i] <= bound, (field, worst[1], worst[4][i])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a positive stake near a regime boundary comes out at "
                          "about half the referee's (kappa = 0.50069, q = 1: "
                          "2.98e-11 against 5.95e-11). The halving comes from the "
                          "computed action boundary, not from the 1e-10 fixed-point "
                          "tolerance: a map with no boundaries, which chooses her "
                          "side from the totals at each probe, passes at that "
                          "tolerance (ROADMAP item 3)")
def test_positive_stakes_agree_with_the_referee_relatively(random_rows):
    errors = sorted(((float(abs(Decimal(x) - r) / r), params, x, r)
                     for _, params, got, ref, _ in random_rows
                     for x, r in zip(got[3:], ref[3:]) if r > 0),
                    key=lambda e: e[0], reverse=True)
    for rel, params, x, r in errors[:5]:
        print(f"{params}: float {x!r} referee {float(r)!r} relative error {rel:.3e}")
    assert errors[0][0] <= STAKE_REL_BOUND, errors[0]


def test_float_solve_and_metrics_agree_with_the_referee_on_mixtures():
    # per market, the float FIELDS and METRICS, the referee's and their
    # |float - referee|; a factor of 1.0 changes no bit
    rows = []
    for spec, params in _mixture_markets():
        m = scaled(gaussian_mixture(*spec[:3]), spec[3])
        eq = solve(params, m)
        got = (*_solved(eq), house_revenue(eq, params),
               diffuse_subjective_profit(eq, params, m))
        ref = _referee(spec, params.kappa, params.q, params.w, _mixture_cumulatives)
        rows.append((params, got, ref, _abs_errors(got, ref)))
    assert len(rows) == MIXTURE_DRAWS * 9
    for i in (3, 4):  # both stakes occur
        assert any(got[i] > 0.0 for _, got, _, _ in rows)
    for i, (field, bound) in enumerate(MIXTURE_BOUNDS.items()):
        params, got, ref, err = max(rows, key=lambda row: row[3][i])
        print(f"{field} {params}: float {got[i]!r} referee {float(ref[i])!r} "
              f"error {err[i]:.4e}")
        assert err[i] <= bound, (field, params, err[i])


def test_mixture_moments_at_the_thresholds_agree_with_the_referee():
    # the float first moment of each betting group, which the subjective
    # profit multiplies by kappa / p* (or kappa / (1 - p*)), against the
    # referee's M at the same float thresholds
    errors = []
    for spec, params in _mixture_markets():
        m = scaled(gaussian_mixture(*spec[:3]), spec[3])
        thresholds = solve(params, m).thresholds
        t1, t2 = thresholds.bet1_above, thresholds.bet2_below
        with localcontext() as ctx:
            ctx.prec = PRECISION
            M = _mixture_cumulatives(spec)[1]
            for lo, hi in ((t1, 1.0), (0.0, t2)):
                want = M(Decimal(hi)) - M(Decimal(lo))
                got = m.exact_moment(lo, hi)
                errors.append((float(abs(Decimal(got) - want)), params, lo, hi, got))
    assert len(errors) == 2 * MIXTURE_DRAWS * 9
    worst = max(errors, key=lambda e: e[0])
    print(f"worst moment error {worst[0]:.4e} on [{worst[2]!r}, {worst[3]!r}] at "
          f"{worst[1]}: float {worst[4]!r}")
    assert worst[0] <= MIXTURE_MOMENT_BOUND, worst


def test_a_wide_kernel_keeps_its_mass_near_the_mean():
    m = gaussian_mixture(*WIDE_KERNEL[:3])
    with localcontext() as ctx:
        ctx.prec = PRECISION
        F = _mixture_cumulatives(WIDE_KERNEL)[0]
        errors = []
        for lo, hi in WIDE_KERNEL_INTERVALS:
            want = F(Decimal(hi)) - F(Decimal(lo))
            errors.append((float(abs(Decimal(m.exact_mass(lo, hi)) - want) / want), lo, hi))
    worst = max(errors)
    print(f"worst relative mass error {worst[0]:.4e} on [{worst[1]!r}, {worst[2]!r}]")
    assert worst[0] <= WIDE_KERNEL_REL_BOUND, worst
