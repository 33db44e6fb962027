"""First-stage take optimization: the organizer picks kappa to maximize revenue.

Revenue as a function of kappa can have kinks (the large bettor's stake
switches between budget-capped and unconstrained) and is not assumed concave,
so a uniform grid scan guards against multimodality and a golden-section pass
refines the best cell. Evaluated candidates are all retained, and the reported
take is the best point ever seen, so its lane revenue never falls below a
grid sample; the reported revenue is solve's there (see below).

The grid's revenues come in one array pass from ``grid_revenues``, with no
``Equilibrium`` built per take. The golden-section pass, about 15 probes
that each depend on the last, takes each probe's revenue the same way
from ``fixed_point``, one of the batch's lanes in Python floats, so grid
and probes are ranked on one map. Each take is priced with the stake its
own map takes at p*, as take_revenue(kappa, d1*, d2*, a*, 0.0): her other
stake is 0.0, so that is the float the stake pair gives, and this module
holds no stake formula. Only the reported optimum is solved:
revenue_star is house_revenue(solve(...)) at kappa_star. The search takes
no tolerance: the lanes run to float resolution and solve stops within
FP_TOL, and where solve's bisected action boundaries misplace a regime
switch, its revenue is off by more (up to 2.4e-9 on the bundled
scenarios). So a lane's revenue differs from solve's at most takes, and
is the closer of the two to the exact value, up to float resolution.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .equilibrium import _grid_lanes, fixed_point, solve
from .errors import as_count
from .measure import BeliefMeasure
from .metrics import house_revenue, take_revenue
from .response import MarketParams

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


def grid_revenues(kappas: Sequence[float], q: float, w: float,
                  measure: BeliefMeasure) -> list[float]:
    """The house revenue at each take's equilibrium, with MarketParams(kappa=k,
    q=q, w=w) for k in kappas, which meet grid_fixed_points' precondition.

    Each take that a lane finishes is priced in one array pass from the
    lane's totals and the stake its map takes there, by the revenue formula
    that house_revenue uses; that is house_revenue(solve(params, measure),
    params) up to solve's tolerance and boundaries (see the module
    docstring). Takes whose lane is None are solved in order; the first
    that fails raises.
    """
    kappa, *lanes, ok = _grid_lanes(kappas, q, w, measure)
    with np.errstate(all="ignore"):  # an overflow to inf, or a lane that is not ok
        revenues = take_revenue(kappa, *lanes[2:], 0.0).tolist()
    for i in np.flatnonzero(~ok).tolist():
        revenues[i] = _solved_revenue(kappas[i], q, w, measure)
    return revenues


def _lane_revenue(kappa: float, q: float, w: float, measure: BeliefMeasure,
                  lane: Optional[tuple[float, float, float, float, float]]) -> float:
    # the revenue at a take from its lane's totals and stake, or from solve
    # where the lane is None
    if lane is None:
        return _solved_revenue(kappa, q, w, measure)
    return take_revenue(kappa, *lane[2:], 0.0)


def _solved_revenue(kappa: float, q: float, w: float, measure: BeliefMeasure) -> float:
    params = MarketParams(kappa=kappa, q=q, w=w)
    return house_revenue(solve(params, measure), params)


def optimize_take(measure: BeliefMeasure, q: float, w: float,
                  grid_points: int = 256) -> TakeOptimum:
    """Maximize take revenue over kappa in the clamped search interval.

    Every take evaluated, on the grid or by golden section, is ranked by
    its lane's revenue (see _lane_revenue), and kappa_star is the best of
    them. revenue_star is house_revenue(solve(...)) at kappa_star, the one
    solve of a search whose lanes and probes hand no take over; so the
    search raises what that solve raises, as on a take whose action
    boundaries come out of order.
    """
    grid_points = as_count(grid_points, MIN_GRID_POINTS, math.inf,
                           f"grid_points must be an integer of at least {MIN_GRID_POINTS}")
    MarketParams(kappa=KAPPA_SEARCH_LO, q=q, w=w)  # the grid's lanes take q and w unchecked

    span = KAPPA_SEARCH_HI - KAPPA_SEARCH_LO
    grid = [KAPPA_SEARCH_LO + span * i / (grid_points - 1)
            for i in range(grid_points)]
    profile = tuple(zip(grid, grid_revenues(grid, q, w, measure)))

    i_best = max(range(grid_points), key=lambda i: profile[i][1])
    best_k, best_r = profile[i_best]
    lo = grid[max(0, i_best - 1)]
    hi = grid[min(grid_points - 1, i_best + 1)]

    def revenue(kappa: float) -> float:
        # every take evaluated is a candidate for the running best
        nonlocal best_k, best_r
        r = _lane_revenue(kappa, q, w, measure, fixed_point(kappa, q, w, measure))
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

    return TakeOptimum(kappa_star=best_k,
                       revenue_star=_solved_revenue(best_k, q, w, measure),
                       profile=profile)
