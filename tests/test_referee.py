"""An independent high-precision referee for the bundled sweeps and random markets.

Every bundled scenario's measure is a wedge or a symmetrized wedge, and a
tabulated measure's density is linear between float knots. Each density is
piecewise linear with rational knots, so its cumulative and first moment are
piecewise polynomials with rational coefficients, written here from the
knots alone. At 50 significant decimal digits the referee evaluates the
composed best-response map at a candidate p:
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
from parieq.measure import tabulated
from parieq.metrics import diffuse_subjective_profit, house_revenue
from parieq.response import MarketParams
from parieq.scenario import bundled_scenarios, load_scenario

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

# random tabulated markets (see _random_markets)
FUZZ_SEED, FUZZ_MARKETS = 1, 1000
# max |float - referee| over them, pinned the same way: p* 4.0060e-11, d1*
# 2.3142e-09, d2* 2.0500e-09, a1 8.2606e-10 and a2 5.9215e-10
FUZZ_BOUNDS = dict(zip(FIELDS, (4.01e-11, 2.32e-09, 2.06e-09, 8.27e-10, 5.93e-10)))
# |float - referee| / referee over the positive stakes. Rounding p* alone to
# the float nearest the referee's gives at most 3.14e-04 (kappa = 0.50011,
# q = 1, stake 8.17e-12), so a solve converged to float resolution meets this
STAKE_REL_BOUND = 1e-3


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


def _referee(knots, kappa: float, q: float, w: float) -> tuple[Decimal, ...]:
    # (p*, d1*, d2*, a1*, a2*, house revenue, small bettors' subjective
    # profit): the crossing, everyone's wagers there and the two metrics
    with localcontext() as ctx:
        ctx.prec = PRECISION
        F, M = _cumulatives(knots)
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


def _random_markets():
    # seeded, so every run draws the same markets: 2 to 6 knots, the inner
    # ones uniform, with values 10^U(-2, 2); kappa 0.5 + 10^U(-4, log10 0.5)
    # or U(0.5, 1), half each; q 0, 1 or U(0, 1), a third each; w 10^U(-10, 1)
    rng = random.Random(FUZZ_SEED)
    for _ in range(FUZZ_MARKETS):
        xs = [0.0, *sorted(rng.random() for _ in range(rng.randint(0, 4))), 1.0]
        knots = [(x, 10.0 ** rng.uniform(-2.0, 2.0)) for x in xs]
        if rng.random() < 0.5:
            kappa = 0.5 + 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        else:
            kappa = rng.uniform(0.5, 1.0)
        q = rng.choice((0.0, 1.0, None))
        q = rng.random() if q is None else q
        yield knots, MarketParams(kappa=kappa, q=q, w=10.0 ** rng.uniform(-10.0, 1.0))


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
                          "2.98e-11 against 5.95e-11): the 1e-10 bisection "
                          "tolerance leaves sqrt(c d1 d2) - own off by about as "
                          "much as the stake itself")
def test_positive_stakes_agree_with_the_referee_relatively(random_rows):
    errors = sorted(((float(abs(Decimal(x) - r) / r), params, x, r)
                     for _, params, got, ref, _ in random_rows
                     for x, r in zip(got[3:], ref[3:]) if r > 0),
                    key=lambda e: e[0], reverse=True)
    for rel, params, x, r in errors[:5]:
        print(f"{params}: float {x!r} referee {float(r)!r} relative error {rel:.3e}")
    assert errors[0][0] <= STAKE_REL_BOUND, errors[0]
