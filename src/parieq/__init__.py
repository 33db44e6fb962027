"""Equilibrium solver for parimutuel wagering with one large bettor.

A continuum of small bettors (described by a wealth measure over beliefs)
and a single budget-constrained large bettor wager on a binary outcome under
a proportional-payout scheme with a house take. The package computes the
market's unique equilibrium implied probability, reconstructs all wagers,
evaluates revenue/profit metrics, optimizes the take, and cross-checks the
continuum solution against a brute-force finite population.
"""

from .equilibrium import Equilibrium, FP_TOL, solve
from .errors import (ConfigError, DomainError, NoEquilibriumError,
                     ParieqError, QuadratureError)
from .measure import (BeliefMeasure, from_density, gaussian_mixture, mass,
                      scaled, symmetrized_wedge, tabulated, uniform, wedge)
from .metrics import (MarketReport, atomic_actual_profit,
                      atomic_subjective_profit, diffuse_actual_profit,
                      diffuse_subjective_profit, house_revenue, market_report)
from .oracle import (DiscretePopulation, OracleResult, discrete_totals,
                     discretize, iterate_best_response)
from .response import (AtomicBet, DiffuseAggregate, DiffuseThresholds,
                       MarketParams, atomic_best_response,
                       diffuse_best_response, diffuse_unit_edge)
from .scenario import (Scenario, SweepSpec, build_measure, bundled_scenarios,
                       dump_scenario, load_scenario, parse_scenario)
from .stackelberg import TakeOptimum, optimize_take

__version__ = "0.1.0"
