"""Brute-force cross-check: a finite population standing in for the continuum.

The population discretizes the wealth measure into N equal-mass cells,
one small bettor per cell holding the cell's wealth at its mass-median
belief. All N beliefs are found at once, one float64 lane each: a table
of the cumulative mass at N + 1 evenly spaced beliefs brackets each one,
the quadratic through the table at three knots around its cell gives the
first probe, and secant steps on the falling map target - mass(0, x)
take it down to float resolution; the last 32 lanes or fewer still live
finish in Python floats on the take grid's loop, bit for bit. Given an
implied probability P, the bettors apply the threshold rule and the
large bettor best-responds to their totals; the pool share of Outcome 1
that results is the discrete response map. Its totals only jump down on
Outcome 1 and up on Outcome 2 as P rises, so the map is nonincreasing
and crosses the diagonal at exactly one point (possibly at a jump).
Bisecting on which side of the diagonal the map lies narrows the bracket
until float resolution runs out (about 53 halvings of the band), which
pins that point down exactly with no tolerance to tune. The totals
change only where a threshold crosses a bettor, so the roughly 53 probes
compute them once per distinct pair of bettor counts beyond the two
thresholds: 3 to 18 times per call on the benchmark's 12 markets at
N = 2000. A population's beliefs are nondecreasing float64 values in
[0, 1], as discretize makes them, checked once when it is built; so each
count is a binary search in the beliefs, and the totals are sums of the
wealths' two ends.
Agreement with the continuum solver validates both sides; no claim is made
that the finite game itself has this as an equilibrium.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import (_FLOAT_TAIL, _require_solvable_take, _secant_float,
                          _secant_step)
from .errors import DomainError, as_count
# mass is not called here, but benchmarks/spans.py wraps parieq.oracle.mass
from .measure import BeliefMeasure, mass  # noqa: F401
from .response import (AtomicBet, DiffuseAggregate, MarketParams,
                       atomic_best_response, implied_probability)

MIN_POPULATION = 2


@dataclass(frozen=True)
class DiscretePopulation:
    """Finite stand-in population: one belief and one wealth per bettor.

    Both are 1-D numpy float64 arrays of equal length. The beliefs lie in
    [0, 1] and are nondecreasing, as discretize makes them, and
    iterate_best_response relies on their order. Every wealth is finite and
    at least 0, which discretize's total / N can underflow to. All of this
    is checked once, here, and anything else raises DomainError; the arrays
    are then made read-only, so that it holds for the population's life.
    """

    beliefs: np.ndarray
    wealths: np.ndarray

    def __post_init__(self):
        for name, a in (("beliefs", self.beliefs), ("wealths", self.wealths)):
            if not isinstance(a, np.ndarray):
                raise DomainError(f"{name} must be a numpy array, got {type(a).__name__}")
            if not (a.ndim == 1 and a.dtype == np.float64):
                raise DomainError(f"{name} must be a 1-D float64 array, got "
                                  f"{a.dtype} of shape {a.shape}")
        if self.beliefs.size != self.wealths.size:
            raise DomainError(f"{self.beliefs.size} beliefs but "
                              f"{self.wealths.size} wealths")
        if not np.all((self.wealths >= 0.0) & (self.wealths < np.inf)):  # NaN fails both
            raise DomainError("wealths must be finite and nonnegative")
        b = self.beliefs
        if not (np.all((b >= 0.0) & (b <= 1.0)) and np.all(b[:-1] <= b[1:])):  # NaN fails
            raise DomainError("beliefs must lie in [0, 1] and be nondecreasing")
        self.beliefs.flags.writeable = self.wealths.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.beliefs)


@dataclass(frozen=True)
class OracleResult:
    p_approx: float
    converged: bool
    iterations: int
    d1: float
    d2: float
    atomic: AtomicBet
    # responses computed, one per distinct key, the final P's included
    evaluations: int = field(compare=False, repr=False)


def discretize(measure: BeliefMeasure, N: int) -> DiscretePopulation:
    """Split the measure into N equal-mass cells at their mass-median beliefs.

    Belief i solves mass(0, x) = (i + 1/2) * total / N. All N beliefs are
    found at once, one float64 lane each, and every mass comes from the
    measure's exact_mass_array, called with the float 0.0 as its lower
    bound: it broadcasts against the array of upper bounds, so the
    cumulative at 0 is taken once per call, not once per lane. A table of
    the cumulative mass(0, j / N) at the N + 1 knots j / N, taken in one
    call, puts each target in a cell between two knots. Its lane solves
    the falling g(x) = target - mass(0, x) = 0 inside that cell.

    The first probe is where the quadratic through the table at three knots
    meets the target: the cell's two and the one before them, or after them
    at the first cell. It is exact where the cumulative is one quadratic
    across the three, as on the wedge, uniform and tabulated families away
    from their knees and knots, and it is the chord where the table's
    second difference is 0. The probe is moved into the open cell by
    np.nextafter when it falls outside or is not a number. Every later one
    is ``equilibrium._secant_step``'s, the rule the take grid's lanes
    share, with the cell's left knot standing in for the probe before the
    first: a secant step through the last two probes when it lands
    strictly inside the bracket and |g| has at least halved since the
    probe before, else the last step doubled if that stays strictly
    inside, else the bracket's midpoint. Galloping carries a lane across a
    run of beliefs whose masses round to the same value. A lane stops at
    its last probe when the step from it is below float resolution or
    nothing lies strictly inside its bracket. There is no tolerance and no
    iteration cap: every probe lies strictly inside the bracket and
    becomes one of its ends.

    A numpy round costs the same however few lanes are live, and one can
    crawl alone for dozens of rounds at a zero of the density. So once
    ``equilibrium._FLOAT_TAIL`` lanes or fewer are live, each finishes from
    its exact state in Python floats, by exact_mass (exact_mass_array's
    bits) and the take grid's loop ``equilibrium._secant_float``, bit for
    bit. A lane that meets a mass that is not finite raises DomainError.
    """
    N = as_count(N, MIN_POPULATION, math.inf,
                 f"population size must be an integer of at least {MIN_POPULATION}")
    total = measure.total_mass
    mass_array = measure.exact_mass_array
    knots = np.arange(N + 1) / N
    table = mass_array(0.0, knots)  # the last entry is the total
    targets = (np.arange(N) + 0.5) * total / N
    # the knot at or below each target; the last cell also takes a target
    # that rounds up to the total, as the top ones do on a subnormal total
    j = np.minimum(np.searchsorted(table, targets, side="right") - 1, N - 1)
    lo, hi = knots[j], knots[j + 1]
    lane, beliefs = np.arange(N), np.empty(N)
    with np.errstate(all="ignore"):  # an inf or nan seed is moved into its cell
        # the left knot stands in for the probe before the seed
        xp, gp = lo, targets - table[j]
        # the seed: in units of the cell's width and rise the quadratic is
        # D t + a t^2, with a half the second difference and D = 1 - a; the
        # units keep D * D finite on any total
        rise = table[1:] - table[:-1]
        bend = rise[1:] - rise[:-1]  # the second differences at knots 1 to N - 1
        step = rise[j]
        a = 0.5 * bend[np.maximum(j - 1, 0)] / step
        r, D = gp / step, 1.0 - a
        seed = lo + (hi - lo) * (2.0 * r / (D + np.sqrt(D * D + 4.0 * a * r)))
        # fmin and fmax take a nan seed to the cell's last float
        x = np.fmax(np.fmin(seed, np.nextafter(hi, lo)), np.nextafter(lo, hi))
        while lane.size > _FLOAT_TAIL:
            g = targets - mass_array(0.0, x)
            if not np.isfinite(g).all():
                raise _mass_not_finite(measure)
            up = g > 0.0
            lo = np.where(up, x, lo)
            hi = np.where(up, hi, x)
            nxt, done = _secant_step(x, g, xp, gp, lo, hi)
            if done.any():
                beliefs[lane[done]] = x[done]
                keep = np.flatnonzero(~done)
                lane, targets, lo, hi, x, g, nxt = (
                    a[keep] for a in (lane, targets, lo, hi, x, g, nxt))
            xp, gp, x = x, g, nxt
    exact_mass = measure.exact_mass
    # each lane starts with no best point, and its belief is its last probe
    for i, target, *state in zip(lane.tolist(), *(
            a.tolist() for a in (targets, lo, hi, x, xp, gp, x))):
        end = _secant_float(lambda p, t=target: t - exact_mass(0.0, p), *state, math.inf)
        if end is None:
            raise _mass_not_finite(measure)
        beliefs[i] = end[2]
    return DiscretePopulation(beliefs=beliefs, wealths=np.full(N, total / N))


def _mass_not_finite(measure: BeliefMeasure) -> DomainError:
    # discretize's error where a lane meets a mass that is not finite
    return DomainError(f"{measure.kind}: discretize met a mass(0, x) that is not finite")


def discrete_totals(pop: DiscretePopulation, P: float, kappa: float,
                    ) -> tuple[float, float]:
    """Population wagers at implied probability P under the threshold rule.

    Bettors exactly at a threshold abstain, matching the continuum convention.
    This is the reference definition, masked sums over all bettors;
    iterate_best_response takes the same bits from its ordered slices.
    """
    t1 = P / kappa
    t2 = 1.0 - (1.0 - P) / kappa
    d1 = float(pop.wealths[pop.beliefs > t1].sum())
    d2 = float(pop.wealths[pop.beliefs < t2].sum())
    return d1, d2


def iterate_best_response(pop: DiscretePopulation, params: MarketParams) -> OracleResult:
    """Bisect the discrete response map for its crossing of the diagonal.

    Keeps the half of the band [1-kappa, kappa] where P -> (d1 + a1)/pool
    crosses P until float resolution runs out, and returns the last
    bracket's midpoint: the jump point or crossing of the map as computed
    in floats, to one ulp. The exact map, with exact thresholds, totals and
    stake, crosses within 2.70 ulps of it on the benchmark's 12 markets at
    N = 2000 (the exact referee in tests/test_oracle.py). converged=False
    means a probe found nobody wagering, so the map is undefined there.

    Each probe is keyed by how many bettors lie beyond each threshold, the
    comparisons discrete_totals makes, counted by binary search in the
    beliefs, which the population keeps nondecreasing. A threshold moves
    monotonically with P, so each set of bettors beyond it is nested in the
    next: equal counts are equal sets. So one response is cached per
    distinct key: the totals, her best response and implied_probability's
    pool share, each bit for bit what a fresh call would give. evaluations
    counts them. The k1 bettors above t1 are the last k1 and the k2 below
    t2 the first k2, so the totals are those slices' sums: the masks'
    elements in the masks' order, so discrete_totals' bits.
    """
    _require_solvable_take(params.kappa)
    kappa, wealths, ranked = params.kappa, pop.wealths, pop.beliefs.tolist()
    n = len(ranked)
    seen = {}  # (bettors above t1, bettors below t2) -> (d1, d2, bet, share)

    def respond(P):
        key = k1, k2 = (n - bisect_right(ranked, P / kappa),
                        bisect_left(ranked, 1.0 - (1.0 - P) / kappa))
        if key not in seen:
            d = DiffuseAggregate(float(wealths[n - k1:].sum()), float(wealths[:k2].sum()))
            # totals are one-sided near the ends of the band, where she stakes
            # nothing, and the pool is empty exactly when both are zero
            bet = (atomic_best_response(d, params) if d.d1 > 0.0 and d.d2 > 0.0
                   else AtomicBet(0.0, 0.0))
            seen[key] = (d.d1, d.d2, bet,
                         implied_probability(d, bet) if d.d1 + d.d2 > 0.0 else None)
        return seen[key]

    lo, hi = 1.0 - kappa, kappa
    iterations = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # until float resolution runs out
        iterations += 1
        d1, d2, bet, share = respond(mid)
        if share is None:
            return OracleResult(mid, False, iterations, d1, d2, bet, len(seen))
        if share > mid:
            lo = mid
        else:
            hi = mid
    return OracleResult(mid, True, iterations, *respond(mid)[:3], len(seen))
