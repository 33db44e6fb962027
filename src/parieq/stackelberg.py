"""First-stage take optimization: the organizer picks kappa to maximize revenue.

Revenue as a function of kappa can have kinks (the large bettor's stake
switches between budget-capped and unconstrained) and is not assumed concave,
so a uniform grid scan guards against multimodality and a golden-section pass
refines the best cell. Evaluated candidates are all retained, and the reported
optimum is the best point ever seen, so it can never fall below a grid sample.

The grid's revenues come in one batch from ``grid_revenues``, exactly what
``house_revenue`` of a ``solve`` per grid point would give, with no
``Equilibrium`` built per take; the golden-section pass, about 15 solves
that each depend on the last, calls ``solve`` one take at a time.
"""

import math
from dataclasses import dataclass
from typing import Sequence

from .equilibrium import FP_TOL, grid_fixed_points, solve
from .errors import DomainError
from .measure import BeliefMeasure
from .metrics import house_revenue, take_revenue
from .response import MarketParams, atomic_stakes

# the takes searched here and swept by scenarios: clamped away from the
# degenerate limits kappa -> 0.5 and kappa -> 1
KAPPA_SEARCH_LO = 0.5 + 1e-4
KAPPA_SEARCH_HI = 1.0 - 1e-4

MIN_GRID_POINTS = 16

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_TOL = 1e-5  # width at which the golden-section bracket stops


@dataclass(frozen=True)
class TakeOptimum:
    """Revenue-maximizing take and the grid profile behind it."""

    kappa_star: float
    revenue_star: float
    profile: tuple[tuple[float, float], ...]  # (kappa, revenue) grid samples


def grid_revenues(kappas: Sequence[float], q: float, w: float, measure: BeliefMeasure,
                  fp_tol: float = FP_TOL) -> list[float]:
    """[house_revenue(solve(params, measure, fp_tol), params) for each take],
    bit for bit, with params = MarketParams(kappa=k, q=q, w=w) for k in kappas.

    Each take that grid_fixed_points finishes takes its revenue straight
    from the lane's totals, through the stakes and the revenue formula that
    solve and house_revenue use. Every other take is solved, in order, so
    the first take that fails raises what the scalar loop raises for it.
    """
    out = []
    for k, lane in zip(kappas, grid_fixed_points(kappas, q, w, measure, fp_tol)):
        if lane is None:
            out.append(_solved_revenue(k, q, w, measure, fp_tol))
        else:
            d1, d2 = lane[2:]
            out.append(take_revenue(k, d1, d2, *atomic_stakes(k, q, w, d1, d2)))
    return out


def _solved_revenue(kappa: float, q: float, w: float, measure: BeliefMeasure,
                    fp_tol: float) -> float:
    params = MarketParams(kappa=kappa, q=q, w=w)
    return house_revenue(solve(params, measure, fp_tol=fp_tol), params)


def optimize_take(measure: BeliefMeasure, q: float, w: float,
                  grid_points: int = 256, fp_tol: float = FP_TOL) -> TakeOptimum:
    """Maximize take revenue over kappa in the clamped search interval."""
    # bool is an int subclass and a float breaks range(): neither is a count
    if not (type(grid_points) is int and grid_points >= MIN_GRID_POINTS):
        raise DomainError(f"grid_points must be an integer of at least "
                          f"{MIN_GRID_POINTS}, got {grid_points!r}")
    MarketParams(kappa=KAPPA_SEARCH_LO, q=q, w=w)  # q and w checked before the grid

    span = KAPPA_SEARCH_HI - KAPPA_SEARCH_LO
    grid = [KAPPA_SEARCH_LO + span * i / (grid_points - 1)
            for i in range(grid_points)]
    profile = tuple(zip(grid, grid_revenues(grid, q, w, measure, fp_tol=fp_tol)))

    i_best = max(range(grid_points), key=lambda i: profile[i][1])
    best_k, best_r = profile[i_best]
    lo = grid[max(0, i_best - 1)]
    hi = grid[min(grid_points - 1, i_best + 1)]

    def revenue(kappa: float) -> float:
        # every take evaluated is a candidate for the running best
        nonlocal best_k, best_r
        r = _solved_revenue(kappa, q, w, measure, fp_tol)
        if r > best_r:
            best_k, best_r = kappa, r
        return r

    # golden-section refinement of the best grid cell
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
