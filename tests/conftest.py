"""Shared scenario builders, equilibrium property checks and a fresh boundary
memory for every test."""

from dataclasses import dataclass
from math import nextafter

import numpy as np
import pytest

import parieq.equilibrium
from parieq.equilibrium import Equilibrium
from parieq.measure import (BeliefMeasure, gaussian_mixture, scaled,
                            symmetrized_wedge, tabulated, uniform, wedge)
from parieq.response import MarketParams

BASELINE_W = 1e-10

# every pair of these positive totals, from the least subnormal to the
# largest float, makes c d1 d2 underflow or overflow and d1 + d2 overflow;
# the stake tests pair them with these takes, beliefs and budgets
EXTREME_TOTALS = (5e-324, 1e-320, 2.0**-1022, 1e-300, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e300,
                  1.7e308)
EXTREME_KAPPAS = (0.5001, 0.75, 0.9999, nextafter(1.0, 0.0))
EXTREME_QS = (0.0, 5e-324, 0.3, 0.5, 0.9, 1.0)
EXTREME_WS = (5e-324, BASELINE_W, 1.0, 1e9, 1.7e308)


@pytest.fixture(autouse=True)
def no_remembered_boundary(monkeypatch):
    # compute_pbar1/2 remember their last boundary in module state; every
    # test starts with none, as the first test of a file run alone does,
    # whatever ran before it
    monkeypatch.setattr(parieq.equilibrium, "_last_boundaries",
                        [(None, None, None), (None, None, None)])


@dataclass(frozen=True)
class Scen:
    name: str
    measure: BeliefMeasure
    params: MarketParams


def bundled_cases() -> list[Scen]:
    """The six bundled experiment parameterizations at a representative take."""
    return [
        Scen("example1", wedge(1), MarketParams(kappa=0.8, q=0.9, w=1.0)),
        Scen("example2", wedge(1), MarketParams(kappa=0.8, q=0.57, w=1.0)),
        Scen("example3", wedge(10), MarketParams(kappa=0.8, q=0.95, w=1.0)),
        Scen("example4_case1", symmetrized_wedge(100),
             MarketParams(kappa=0.8, q=1.0, w=BASELINE_W)),
        Scen("example4_case2", wedge(100), MarketParams(kappa=0.8, q=1.0, w=1.0)),
        Scen("appendixA", wedge(100), MarketParams(kappa=0.8, q=0.0, w=1.0)),
    ]


def _random_measure(rng: np.random.Generator) -> BeliefMeasure:
    pick = rng.integers(0, 6)
    if pick == 0:
        return uniform()
    if pick == 1:
        return wedge(int(rng.integers(1, 101)))
    if pick == 2:
        return symmetrized_wedge(int(rng.integers(2, 101)))
    if pick == 3:
        k = int(rng.integers(1, 4))
        # a broad base kernel keeps tails well above float underflow
        weights = [0.3] + list(rng.uniform(0.2, 1.5, k))
        means = [0.5] + list(rng.uniform(0.0, 1.0, k))
        stddevs = [0.6] + list(rng.uniform(0.05, 0.4, k))
        return gaussian_mixture(weights, means, stddevs)
    if pick == 4:
        xs = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(2, 7))))
        knots = [(0.0, rng.uniform(0.2, 3.0))]
        knots += [(float(x), float(rng.uniform(0.2, 3.0))) for x in xs]
        knots += [(1.0, rng.uniform(0.2, 3.0))]
        return tabulated(knots)
    return scaled(wedge(int(rng.integers(1, 101))), float(rng.uniform(0.25, 4.0)))


def scenario_zoo(count: int = 20, seed: int = 20250811) -> list[Scen]:
    """Deterministic pseudo-random scenarios across every measure family."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        measure = _random_measure(rng)
        params = MarketParams(kappa=float(rng.uniform(0.51, 0.99)),
                              q=float(rng.uniform(0.0, 1.0)),
                              w=float(rng.choice([BASELINE_W, 0.1, 1.0, 5.0])))
        out.append(Scen(f"zoo{i:02d}[{measure.kind}]", measure, params))
    return out


def assert_equilibrium_properties(eq: Equilibrium, params: MarketParams,
                                  margin: float = 1e-9) -> None:
    """Structural checks every solved scenario must satisfy.

    Bounds, positive two-sided totals, and the sign equivalence between each
    large-bettor wager and its per-unit edge at the solved probability
    (checked with a strictness margin away from the boundary).
    """
    kappa, q = params.kappa, params.q
    assert 1.0 - kappa < eq.p_star < kappa
    assert eq.d1_star > 0.0 and eq.d2_star > 0.0
    assert eq.atomic.a1 + eq.atomic.a2 <= params.w + 1e-12

    edge1 = kappa * q / eq.p_star - 1.0
    edge2 = kappa * (1.0 - q) / (1.0 - eq.p_star) - 1.0
    if edge1 > margin:
        assert eq.atomic.a1 > 0.0
    if edge1 < -margin:
        assert eq.atomic.a1 == 0.0
    if eq.atomic.a1 > margin:
        assert edge1 > -margin
    if edge2 > margin:
        assert eq.atomic.a2 > 0.0
    if edge2 < -margin:
        assert eq.atomic.a2 == 0.0
    if eq.atomic.a2 > margin:
        assert edge2 > -margin
