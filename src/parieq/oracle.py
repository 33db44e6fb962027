"""Brute-force cross-check: a finite population standing in for the continuum.

The population discretizes the wealth measure into N equal-mass cells, one
small bettor per cell holding the cell's wealth at its mass-median belief,
found by safeguarded Newton steps on the cumulative mass (the density is its
derivative) down to float resolution. Given an implied probability P, the
bettors apply the threshold rule and the large bettor best-responds to their
totals; the pool share of Outcome 1 that results is the discrete response
map. Its totals only jump down on Outcome 1 and up on Outcome 2 as P rises,
so the map is nonincreasing and crosses the diagonal at exactly one point
(possibly at a jump). Bisecting on which side of the diagonal the map lies
narrows the bracket until float resolution runs out (about 53 halvings of
the band), which pins that point down exactly with no tolerance to tune.
Agreement with the continuum solver validates both sides; no claim is made
that the finite game itself has this as an equilibrium.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measure import BeliefMeasure, mass
from .response import AtomicBet, DiffuseAggregate, MarketParams, atomic_best_response

MIN_POPULATION = 2


@dataclass(frozen=True)
class DiscretePopulation:
    """Finite stand-in population: sorted beliefs with per-bettor wealth."""

    beliefs: np.ndarray
    wealths: np.ndarray

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


def discretize(measure: BeliefMeasure, N: int) -> DiscretePopulation:
    """Split the measure into N equal-mass cells at their mass-median beliefs.

    Belief i solves g(x) = mass(0, x) - (i + 1/2) * total / N = 0 on the
    bracket [belief i-1, 1]. Since g' is the density, the Newton point
    x - g(x)/density(x) from the last probe x is probed next when it lies
    strictly inside the bracket and |g| has at least halved since the probe
    before; otherwise the bracket's midpoint is. The search stops when the
    probe no longer lands strictly inside the bracket: the Newton point is
    x itself, a step below float resolution, or the bracket holds adjacent
    floats. There is no tolerance and no iteration cap: every midpoint
    probe halves the bracket and every Newton probe has halved |g|, and on
    smooth stretches of the density a handful of probes suffice. The last
    probe's mass carries the running total to the next belief.
    """
    if N < MIN_POPULATION:
        raise DomainError(f"population size must be at least {MIN_POPULATION}, got {N}")
    total = measure.total_mass
    density = measure.density
    beliefs = np.empty(N)
    x_prev = 0.0
    m_prev = 0.0
    for i in range(N):
        target = (i + 0.5) * total / N
        lo, hi = x_prev, 1.0
        # x is the last probe, m its mass beyond x_prev and g its residual;
        # g < 0 at x_prev, since the previous target sits a cell below
        x, m, g, g_last = x_prev, 0.0, m_prev - target, math.inf
        while True:
            probe = x - g / density(x)
            if probe == x:  # the Newton step is below float resolution
                break
            if not (lo < probe < hi and 2.0 * abs(g) <= g_last):
                probe = 0.5 * (lo + hi)
                if not lo < probe < hi:  # the bracket holds adjacent floats
                    break
            g_last = abs(g)
            x, m = probe, mass(measure, x_prev, probe)
            g = m_prev + m - target
            if g < 0.0:
                lo = x
            else:
                hi = x
        beliefs[i] = x
        m_prev += m
        x_prev = x
    wealths = np.full(N, total / N)
    return DiscretePopulation(beliefs=beliefs, wealths=wealths)


def discrete_totals(pop: DiscretePopulation, P: float, kappa: float,
                    ) -> tuple[float, float]:
    """Population wagers at implied probability P under the threshold rule.

    Bettors exactly at a threshold abstain, matching the continuum convention.
    """
    t1 = P / kappa
    t2 = 1.0 - (1.0 - P) / kappa
    d1 = float(pop.wealths[pop.beliefs > t1].sum())
    d2 = float(pop.wealths[pop.beliefs < t2].sum())
    return d1, d2


def _respond(pop: DiscretePopulation, P: float, params: MarketParams,
             ) -> tuple[float, float, AtomicBet]:
    d1, d2 = discrete_totals(pop, P, params.kappa)
    # totals are one-sided near the ends of the band; the optimal stake
    # degenerates to zero there, so short-circuit instead of erroring
    if d1 <= 0.0 or d2 <= 0.0:
        return d1, d2, AtomicBet(a1=0.0, a2=0.0)
    return d1, d2, atomic_best_response(DiffuseAggregate(d1=d1, d2=d2), params)


def iterate_best_response(pop: DiscretePopulation, params: MarketParams) -> OracleResult:
    """Bisect the discrete response map for its crossing of the diagonal.

    Keeps the half of the band [1-kappa, kappa] where P -> (d1 + a1)/pool
    crosses P until float resolution runs out, and returns the last
    bracket's midpoint: the map's jump point or crossing, exact to one ulp.
    converged=False means a probe found nobody wagering, so the map is
    undefined there.
    """
    if params.kappa <= 0.5:
        raise DomainError(f"the band needs kappa > 0.5, got {params.kappa}")
    lo, hi = 1.0 - params.kappa, params.kappa
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        iterations += 1
        d1, d2, bet = _respond(pop, mid, params)
        pool = d1 + d2 + bet.a1 + bet.a2
        if pool <= 0.0:
            return OracleResult(mid, False, iterations, d1, d2, bet)
        if (d1 + bet.a1) / pool > mid:
            lo = mid
        else:
            hi = mid
    P = 0.5 * (lo + hi)
    return OracleResult(P, True, iterations, *_respond(pop, P, params))
