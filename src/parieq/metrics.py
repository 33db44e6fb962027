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
from .measure import BeliefMeasure
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
    (staking on Outcome 1) and below the lower one (staking on Outcome 2).
    Each group integrates its per-unit edge against the wealth density; both
    integrands are positive on their regions, so the total is nonnegative.
    An empty group adds the 0.0 adaptive_simpson gives an empty interval.
    """
    kappa = params.kappa
    p_star = eq.p_star
    t1 = eq.thresholds.bet1_above
    t2 = eq.thresholds.bet2_below
    dens = measure.density

    return (adaptive_simpson(lambda p: dens(p) * (kappa * p / p_star - 1.0), t1, 1.0)
            + adaptive_simpson(
                lambda p: dens(p) * (kappa * (1.0 - p) / (1.0 - p_star) - 1.0), 0.0, t2))


def atomic_subjective_profit(eq: Equilibrium, params: MarketParams) -> float:
    """Large bettor's expected profit under her own belief q."""
    return _expected_profit(eq.atomic.a1, eq.atomic.a2, params.q, eq, params)


def market_report(eq: Equilibrium, params: MarketParams, measure: BeliefMeasure,
                  p_actual: Optional[float] = None) -> MarketReport:
    """Bundle all metrics for one solved scenario."""
    pool = eq.d1_star + eq.d2_star + eq.atomic.a1 + eq.atomic.a2
    actual = None if p_actual is None else diffuse_actual_profit(eq, params, p_actual)
    return MarketReport(
        pool_total=pool,
        house_revenue=house_revenue(eq, params),
        diffuse_subjective_profit=diffuse_subjective_profit(eq, params, measure),
        atomic_subjective_profit=atomic_subjective_profit(eq, params),
        diffuse_actual_profit=actual)
