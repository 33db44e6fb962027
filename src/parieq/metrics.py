"""Market metrics evaluated at a solved equilibrium.

The take revenue is deterministic (collected whichever outcome occurs). The
small bettors' profit comes in two flavors: *actual*, computed against an
externally supplied true probability of Outcome 1, and *subjective*, where
each bettor's expectation uses her own belief and the results aggregate over
the population measure.
"""

from dataclasses import dataclass
from typing import Optional

from .equilibrium import Equilibrium
from .errors import DomainError
from .measure import BeliefMeasure, mass
from .quadrature import adaptive_simpson
from .response import MarketParams, diffuse_unit_edge


@dataclass(frozen=True)
class MarketReport:
    """Per-solve metric bundle; actual profit is present only with p_actual."""

    pool_total: float
    house_revenue: float
    diffuse_subjective_profit: float
    atomic_subjective_profit: float
    diffuse_actual_profit: Optional[float] = None


def house_revenue(eq: Equilibrium, params: MarketParams) -> float:
    """Take revenue: (1 - kappa) times the full pool."""
    return take_revenue(params.kappa, eq.d1_star, eq.d2_star, eq.atomic.a1, eq.atomic.a2)


def take_revenue(kappa: float, d1: float, d2: float, a1: float, a2: float) -> float:
    """house_revenue from the take and the four wagers, as floats."""
    return (1.0 - kappa) * (d1 + d2 + a1 + a2)


def _expected_profit(stake1: float, stake2: float, belief: float,
                     eq: Equilibrium, params: MarketParams) -> float:
    # a wager pair at the equilibrium odds, held with this belief in Outcome 1
    if not 0.0 <= belief <= 1.0:
        raise DomainError(f"belief must lie in [0,1], got {belief}")
    edge1, edge2 = diffuse_unit_edge(belief, eq.p_star, params.kappa)
    return stake1 * edge1 + stake2 * edge2


def diffuse_actual_profit(eq: Equilibrium, params: MarketParams,
                          p_actual: float) -> float:
    """Small bettors' total expected profit under the true probability p_actual."""
    return _expected_profit(eq.d1_star, eq.d2_star, p_actual, eq, params)


def atomic_actual_profit(eq: Equilibrium, params: MarketParams,
                         p_actual: float) -> float:
    """Large bettor's expected profit under the true probability p_actual."""
    return _expected_profit(eq.atomic.a1, eq.atomic.a2, p_actual, eq, params)


def diffuse_subjective_profit(eq: Equilibrium, params: MarketParams,
                              measure: BeliefMeasure) -> float:
    """Small bettors' total expected profit under their own beliefs.

    Only the two betting groups contribute: beliefs above the upper threshold
    t1 (staking on Outcome 1) and below the lower one t2 (staking on Outcome
    2). Each group integrates its per-unit edge against the wealth density;
    both integrands are positive on their regions, so the total is
    nonnegative. With the measure's first moment M and its masses at the
    thresholds, the Outcome 1 group gives kappa/p* M(t1, 1) - mass(t1, 1)
    and the Outcome 2 group kappa/(1 - p*) (mass(0, t2) - M(0, t2)) -
    mass(0, t2); an empty group adds the +0.0 of an empty interval's mass
    and moment. The masses come from the measure, so a hand-built
    Equilibrium's totals play no part; its p* outside the band puts a
    threshold outside [0, 1], a DomainError from mass. A measure without a
    moment (the wedge families, tabulated, and scaled over them) integrates
    each group by adaptive_simpson, which gives an empty interval 0.0; it
    raises the same DomainError for such a p*, NaN included, before it
    integrates.
    """
    kappa = params.kappa
    p_star = eq.p_star
    t1 = eq.thresholds.bet1_above
    t2 = eq.thresholds.bet2_below
    moment = measure.exact_moment
    if moment is None:
        # above the band t1 passes 1, below it t2 passes 0: mass() rejects
        # them on the moment branch, comparisons here, with no mass call
        if not (t1 <= 1.0 and t2 >= 0.0):
            raise DomainError(f"p* = {p_star} lies outside the band [1 - kappa, kappa] "
                              f"(kappa={kappa}): thresholds {t1}, {t2}")
        dens = measure.density
        return (adaptive_simpson(lambda p: dens(p) * (kappa * p / p_star - 1.0), t1, 1.0)
                + adaptive_simpson(
                    lambda p: dens(p) * (kappa * (1.0 - p) / (1.0 - p_star) - 1.0), 0.0, t2))
    above, below = mass(measure, t1, 1.0), mass(measure, 0.0, t2)
    return (kappa / p_star * moment(t1, 1.0) - above
            + (kappa / (1.0 - p_star) * (below - moment(0.0, t2)) - below))


def atomic_subjective_profit(eq: Equilibrium, params: MarketParams) -> float:
    """Large bettor's expected profit under her own belief q."""
    return _expected_profit(eq.atomic.a1, eq.atomic.a2, params.q, eq, params)


# Metric column name -> f(eq, params, measure, p_actual). Each entry looks its
# function up here at call time, so one replaced here (a tracer's) is called.
METRICS = {
    "house_revenue": lambda eq, params, measure, p_actual: house_revenue(eq, params),
    "diffuse_actual_profit":
        lambda eq, params, measure, p_actual: diffuse_actual_profit(eq, params, p_actual),
    "diffuse_subjective_profit":
        lambda eq, params, measure, p_actual: diffuse_subjective_profit(eq, params, measure),
    "atomic_subjective_profit":
        lambda eq, params, measure, p_actual: atomic_subjective_profit(eq, params),
}


def market_report(eq: Equilibrium, params: MarketParams, measure: BeliefMeasure,
                  p_actual: Optional[float] = None) -> MarketReport:
    """Every METRICS value and the pool total; diffuse_actual_profit is None
    without p_actual."""
    return MarketReport(
        pool_total=eq.d1_star + eq.d2_star + eq.atomic.a1 + eq.atomic.a2,
        **{name: f(eq, params, measure, p_actual) for name, f in METRICS.items()
           if p_actual is not None or name != "diffuse_actual_profit"})
