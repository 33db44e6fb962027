"""Fixed-point solver for the wagering game's unique equilibrium.

The construction works on candidate implied probabilities p of Outcome 1,
restricted to [1-kappa, kappa] (outside that band, some bettor who is wagering
would face a nonpositive edge, which best responses rule out; the band is
nonempty exactly when kappa > 0.5, which is also exactly when an equilibrium
exists). For a candidate p:

  d1(p) = mass above p/kappa          (small-bettor total on Outcome 1)
  d2(p) = mass below 1 - (1-p)/kappa  (small-bettor total on Outcome 2)

Two boundary candidates split the band by the large bettor's action: above
``pbar1`` she backs Outcome 1, below ``pbar2`` she backs Outcome 2, and in
between she abstains. Each boundary is the unique root of her zero-edge
condition along the band, found by bisection on a monotone ratio. It does
not depend on her budget, so each boundary remembers its last root (see
compute_pbar1), and the second budget of a take reuses both.

``zeta1``/``zeta2`` give her unconstrained optimal stake on the active side;
the implied-probability response map ``phi`` recomputes the pool share of
Outcome 1 after everyone best-responds to p, with her stake capped at the
budget w. phi is continuous and decreasing with phi(1-kappa) = 1 and
phi(kappa) = 0, so it crosses the diagonal exactly once; ``solve`` brackets
that crossing by bisection and rebuilds the equilibrium from it.

``grid_fixed_points`` runs the same three bisections for many takes at
once, one float64 numpy lane per kappa and bisection, and gives for each
take the fixed point, residual and totals that ``solve`` returns, bit for
bit, as floats: no ``Equilibrium`` is built. A take that ``solve`` would
reject, or whose lane meets a value that is not finite, gets None, for the
caller to hand to ``solve`` (``stackelberg.grid_revenues`` does). The batch
pays when the grid is large: each numpy step has a fixed overhead, so at
kappa = 0.8, q = 0.9, w = 1 a batch of one took 25 times as long as a
``solve`` that bisects both boundaries on wedge(100) (6.5 against 0.26 ms),
20 times on a 4-knot tabulated density and 12 times on a 2-kernel Gaussian
mixture. So single solves stay scalar, and ``solve`` remains the reference
the grid is tested against.
"""

from dataclasses import dataclass
from math import inf, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NoEquilibriumError
from .measure import BeliefMeasure, mass
from .response import (AtomicBet, DiffuseAggregate, DiffuseThresholds,
                       MarketParams, atomic_best_response,
                       diffuse_best_response)

FP_TOL = 1e-10


@dataclass(frozen=True)
class PhiContext:
    """Per-scenario state for evaluating the response map phi."""

    params: MarketParams
    measure: BeliefMeasure
    pbar1: float  # large bettor backs Outcome 1 for candidates above this
    pbar2: float  # ... and Outcome 2 for candidates below this


@dataclass(frozen=True)
class Equilibrium:
    """Solved market state: fixed point plus reconstructed wagers."""

    p_star: float
    d1_star: float
    d2_star: float
    atomic: AtomicBet
    thresholds: DiffuseThresholds
    residual: float  # |phi(p_star) - p_star|


def _D(p: float, kappa: float, m: BeliefMeasure) -> tuple[float, float]:
    # small-bettor totals (d1, d2) at candidate p: the mass above p/kappa,
    # then the mass below 1 - (1-p)/kappa. Inside the band at least one of
    # them is positive; masses that round to zero can make both vanish,
    # and every ratio of them would then divide by zero
    # p must lie in [1-kappa, kappa], as every caller's does: 1 - kappa is
    # exact and rounding monotone, so both thresholds lie in [0, 1]
    d1 = mass(m, p / kappa, 1.0)
    d2 = mass(m, 0.0, 1.0 - (1.0 - p) / kappa)
    if d1 + d2 == 0.0:
        raise DomainError(f"small-bettor totals vanish at candidate p={p} "
                          f"(kappa={kappa}): the measure's masses round to zero")
    return d1, d2


def _bisect_decreasing(g: Callable[[float], float], lo: float, hi: float,
                       width_tol: float, residual_tol: float = inf,
                       ) -> tuple[float, float]:
    """Root of a decreasing g on a bracket lo < hi with g(lo) >= 0 >= g(hi).

    The precondition is not checked. The solver's brackets are the band
    [1 - kappa, kappa]: at its ends one small-bettor total is exactly 0.0,
    which fixes the signs of both boundary ratios and of phi(p) - p there.
    Shrinks until the bracket is narrower than width_tol with the best |g|
    within residual_tol, stops early at an exact zero, and stops at the
    latest when float resolution runs out; on the band that takes at most
    105 midpoints. Very steep crossings can leave |g| above residual_tol at
    every point evaluated; the best of them is returned regardless, with its
    honest residual. Returns (root, |g(root)|).
    """
    glo, ghi = g(lo), g(hi)
    best_p, best_g = (lo, abs(glo)) if abs(glo) <= abs(ghi) else (hi, abs(ghi))
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # until float resolution runs out
        gmid = g(mid)
        if abs(gmid) < best_g:
            best_p, best_g = mid, abs(gmid)
        if gmid == 0.0:  # exact crossing, common in symmetric markets
            return mid, 0.0
        if gmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < width_tol and best_g <= residual_tol:
            return best_p, best_g
    return best_p, best_g


def compute_pbar1(params: MarketParams, measure: BeliefMeasure,
                  tol: float = FP_TOL) -> float:
    """Boundary candidate above which the large bettor backs Outcome 1.

    Unique root of q = d1 / (kappa (d1 + d2)) along the band; the ratio falls
    continuously from 1/kappa to 0, so the root is interior unless q = 0, in
    which case the boundary collapses to kappa exactly.

    The last root is remembered, keyed by the measure object (compared with
    ``is``, so a copy that compares equal is another key) and by kappa, q
    and tol; a call with that key returns it without bisecting. The
    boundaries do not depend on the budget w, and ``sweep --baseline``
    solves both budgets of a take in a row, so one entry is all such a
    sweep can reuse. Any other key bisects and replaces the entry; a call
    that raises leaves it as it was.
    """
    _require_solvable_take(params.kappa)
    if params.q == 0.0:
        return params.kappa
    kappa, q, m = params.kappa, params.q, measure

    def g(p: float) -> float:
        d1, d2 = _D(p, kappa, m)
        return d1 / (kappa * (d1 + d2)) - q

    return _remembered_root(0, g, params, measure, tol)


def compute_pbar2(params: MarketParams, measure: BeliefMeasure,
                  tol: float = FP_TOL) -> float:
    """Boundary candidate below which the large bettor backs Outcome 2.

    Mirror of compute_pbar1 on the rising ratio d2 / (kappa (d1 + d2));
    collapses to 1 - kappa exactly when q = 1. Remembers its last root in
    an entry of its own, with compute_pbar1's key.
    """
    _require_solvable_take(params.kappa)
    if params.q == 1.0:
        return 1.0 - params.kappa
    kappa, q, m = params.kappa, params.q, measure

    def g(p: float) -> float:
        d1, d2 = _D(p, kappa, m)
        # rising ratio; negate to reuse the decreasing-map bisection
        return (1.0 - q) - d2 / (kappa * (d1 + d2))

    return _remembered_root(1, g, params, measure, tol)


# each boundary's last (measure, (kappa, q, tol), root): pbar1's, then
# pbar2's. An entry is one tuple, read once and replaced whole, so threads
# sharing it see a whole entry; two that miss at once both bisect
_last_roots: list = [(None, None, None), (None, None, None)]


def _remembered_root(slot: int, g: Callable[[float], float],
                     params: MarketParams, measure: BeliefMeasure,
                     tol: float) -> float:
    # the bisection on the band, or its root from the entry in slot when
    # the key matches; the measure is held, so its identity stays unique.
    # Keys that compare equal bisect to the same bits: a signed zero q or
    # tol enters only as 1 - q and in hi - lo < tol
    last_measure, last_key, last_root = _last_roots[slot]
    key = (params.kappa, params.q, tol)
    if last_measure is measure and last_key == key:
        return last_root
    root, _ = _bisect_decreasing(g, 1.0 - params.kappa, params.kappa, tol)
    _last_roots[slot] = (measure, key, root)
    return root


def _require_solvable_take(kappa: float) -> None:
    if kappa <= 0.5:
        raise DomainError(f"band is empty unless kappa > 0.5, got {kappa}")


def phi_context(params: MarketParams, measure: BeliefMeasure,
                fp_tol: float = FP_TOL) -> PhiContext:
    """Precompute the action boundaries for a scenario."""
    pbar1 = compute_pbar1(params, measure, tol=fp_tol)
    pbar2 = compute_pbar2(params, measure, tol=fp_tol)
    # the true boundaries are ordered; a coarse fp_tol, or masses that
    # cancel to zero, can leave the computed ones equal or swapped
    if not pbar2 < pbar1:
        raise DomainError(f"action boundaries out of order: pbar2={pbar2} >= "
                          f"pbar1={pbar1} at fp_tol={fp_tol}")
    return PhiContext(params=params, measure=measure, pbar1=pbar1, pbar2=pbar2)


def _stake(kappa: float, belief: float, d1: float, d2: float, own: float) -> float:
    # unconstrained optimal stake on the side held with probability belief,
    # whose small-bettor total is own
    denom = 1.0 - kappa * belief  # positive: kappa < 1 and belief <= 1
    return max(0.0, sqrt(kappa * belief / denom * d1 * d2) - own)


def zeta1(p: float, ctx: PhiContext) -> float:
    """Unconstrained optimal stake on Outcome 1 at candidate p in [pbar1, kappa].

    Past kappa, mass() rejects p, as in phi.
    """
    kappa, q = ctx.params.kappa, ctx.params.q
    if p < ctx.pbar1:
        raise DomainError(f"candidate probability {p} lies below pbar1={ctx.pbar1}")
    d1, d2 = _D(p, kappa, ctx.measure)
    return _stake(kappa, q, d1, d2, d1)


def zeta2(p: float, ctx: PhiContext) -> float:
    """Unconstrained optimal stake on Outcome 2 at candidate p in [1-kappa, pbar2].

    Below 1 - kappa, mass() rejects p, as in phi.
    """
    kappa, q = ctx.params.kappa, ctx.params.q
    if p > ctx.pbar2:
        raise DomainError(f"candidate probability {p} lies above pbar2={ctx.pbar2}")
    d1, d2 = _D(p, kappa, ctx.measure)
    return _stake(kappa, 1.0 - q, d1, d2, d2)


def phi(p: float, ctx: PhiContext) -> float:
    """Implied probability produced by best responses to candidate p.

    p must lie in the band [1 - kappa, kappa]. The band check is mass()'s:
    past the band, NaN included, a threshold leaves [0, 1] (see _D).
    """
    kappa, q, w = ctx.params.kappa, ctx.params.q, ctx.params.w
    d1, d2 = _D(p, kappa, ctx.measure)
    a1 = min(w, _stake(kappa, q, d1, d2, d1)) if p > ctx.pbar1 else 0.0
    a2 = min(w, _stake(kappa, 1.0 - q, d1, d2, d2)) if p < ctx.pbar2 else 0.0
    return (a1 + d1) / (a1 + a2 + d1 + d2)


def solve(params: MarketParams, measure: BeliefMeasure,
          fp_tol: float = FP_TOL) -> Equilibrium:
    """Compute the unique equilibrium, or raise NoEquilibriumError.

    Bisects phi(p) - p over the band; the endpoint values phi(1-kappa) = 1
    and phi(kappa) = 0 guarantee the sign change, and monotonicity makes the
    crossing unique. The bracket is narrowed below fp_tol and the reported
    fixed-point residual is driven below fp_tol as well.
    """
    if not fp_tol > 0.0:
        raise DomainError(f"fp_tol must be positive, got {fp_tol}")
    if params.kappa <= 0.5:
        raise NoEquilibriumError("no equilibrium: kappa must exceed 0.5")
    ctx = phi_context(params, measure, fp_tol=fp_tol)
    p_star, residual = _bisect_decreasing(
        lambda p: phi(p, ctx) - p,
        1.0 - params.kappa, params.kappa,
        width_tol=fp_tol, residual_tol=fp_tol)
    # every wager rebuilt from the fixed point and the totals there
    d1s, d2s = _D(p_star, params.kappa, measure)
    atomic = atomic_best_response(DiffuseAggregate(d1=d1s, d2=d2s), params)
    thresholds = diffuse_best_response(p_star, params.kappa)
    return Equilibrium(p_star=p_star, d1_star=d1s, d2_star=d2s,
                       atomic=atomic, thresholds=thresholds, residual=residual)


# --------------------------------------------------------------------------
# many takes at once: each lane replays the scalar operations in their order
# --------------------------------------------------------------------------

def grid_fixed_points(kappas: Sequence[float], q: float, w: float,
                      measure: BeliefMeasure, fp_tol: float = FP_TOL,
                      ) -> list[Optional[tuple[float, float, float, float]]]:
    """Per take, solve's (p_star, residual, d1_star, d2_star), or None.

    The take at kappa k is solve(MarketParams(kappa=k, q=q, w=w), measure,
    fp_tol). The boundary bisections and the fixed-point bisection run for
    every float kappa at once, one float64 lane each: first one loop over
    both boundaries (a pbar1 lane and a pbar2 lane per kappa), then one over
    the fixed points. Each lane takes ``_bisect_decreasing``'s midpoint
    steps, keeps its best point and exits where it does. Masses come from
    the measure's exact_mass_array, which matches exact_mass bit for bit, so
    each lane that finishes holds the bits solve returns.

    None marks a take that only ``solve`` can decide, because it raises
    there or may: a kappa that is not a float in (0.5, 1), a q or w that
    MarketParams rejects, every take when fp_tol is not positive, action
    boundaries out of order, a value that is not finite (where Python's
    float division or math.sqrt raises), or totals at the fixed point that
    are not both positive. A lane with both totals positive is one that
    solve returns without raising. An error the measure itself raises
    propagates from the batch.
    """
    try:  # the scalar solve rejects every take then, each with its own error
        MarketParams(kappa=0.75, q=q, w=w)
    except DomainError:
        return [None] * len(kappas)
    lanes = [i for i, k in enumerate(kappas)
             if isinstance(k, float) and 0.5 < k < 1.0 and fp_tol > 0.0]
    with np.errstate(all="ignore"):  # non-finite values mark lanes, not warnings
        solved = _fixed_point_lanes(np.array([kappas[i] for i in lanes], dtype=float),
                                    q, w, measure, fp_tol)
    finished, *values = (a.tolist() for a in solved)
    out: list = [None] * len(kappas)
    for j, lane in zip(finished, zip(*values)):
        out[lanes[j]] = lane
    return out


def _fixed_point_lanes(kappa: np.ndarray, q: float, w: float, m: BeliefMeasure,
                       fp_tol: float):
    # (lane, p_star, residual, d1, d2) for each lane that finishes with both
    # totals positive
    lo, hi = 1.0 - kappa, kappa
    # both boundaries in one loop: per kappa a pbar1 lane, unless q = 0 pins
    # pbar1 to kappa, and a pbar2 lane, unless q = 1 pins pbar2 to 1 - kappa
    halves = [is1 for is1, pinned in ((True, q == 0.0), (False, q == 1.0))
              if not pinned]
    on_pbar1, k2 = np.repeat(halves, kappa.size), np.tile(kappa, len(halves))

    def g_bar(p):
        d1, d2 = _D_lanes(p, k2, m)
        t = k2 * (d1 + d2)
        # compute_pbar2's rising ratio, negated as there
        return np.where(on_pbar1, d1 / t - q, (1.0 - q) - d2 / t)

    bar, _, bar_ok = _bisect_lanes(g_bar, np.tile(lo, len(halves)),
                                   np.tile(hi, len(halves)), fp_tol)
    bar, bar_ok = bar.reshape(len(halves), -1), bar_ok.reshape(len(halves), -1)
    pbar1 = hi if q == 0.0 else bar[0]
    pbar2 = lo if q == 1.0 else bar[-1]
    live = np.flatnonzero(bar_ok.all(axis=0) & (pbar2 < pbar1))
    kappa, lo, hi, pbar1, pbar2 = (a[live] for a in (kappa, lo, hi, pbar1, pbar2))
    # each side's stake coefficient kappa b / (1 - kappa b), rounded as
    # _stake rounds it before the product d1 d2
    c1, c2 = (kappa * b / (1.0 - kappa * b) for b in (q, 1.0 - q))

    def g(p):
        return _phi_lanes(p, kappa, w, m, pbar1, pbar2, c1, c2) - p

    p_star, residual, ok = _bisect_lanes(g, lo, hi, fp_tol, residual_tol=fp_tol)
    d1s, d2s = _D_lanes(p_star, kappa, m)
    ok &= (d1s > 0.0) & (d2s > 0.0)
    return live[ok], p_star[ok], residual[ok], d1s[ok], d2s[ok]


def _D_lanes(p: np.ndarray, kappa: np.ndarray, m: BeliefMeasure):
    # _D per lane for p in the band, one exact_mass_array call per total with
    # the float band end as the other bound, so a measure takes its
    # cumulative there once per call; at a band end the empty interval's
    # mass is +0.0, as from mass()
    return (m.exact_mass_array(p / kappa, 1.0),
            m.exact_mass_array(0.0, 1.0 - (1.0 - p) / kappa))


def _phi_lanes(p, kappa, w, m, pbar1, pbar2, c1, c2):
    # phi per lane, bit for bit: s is its a1 + a2, the one stake the lane's
    # regime selects, c1 and c2 its stake coefficients on Outcome 1 and 2.
    # Every probe lies in [1 - kappa, kappa]
    d1, d2 = _D_lanes(p, kappa, m)
    back1 = p > pbar1  # which excludes p < pbar2, as pbar2 < pbar1 on every lane
    c, own = np.where(back1, c1, c2), np.where(back1, d1, d2)
    # min(w, _stake(...)) with Python's min/max tie rules. A negative d1 * d2
    # (masses rounded below zero) makes math.sqrt raise but np.sqrt return
    # NaN, so NaN is kept to mark the lane for solve, unless she abstains
    s = np.sqrt(c * d1 * d2) - own
    s = np.where(s <= 0.0, 0.0, s)
    s = np.where(back1 | (p < pbar2), np.where(s >= w, w, s), 0.0)
    return (np.where(back1, s, 0.0) + d1) / (s + d1 + d2)


def _bisect_lanes(g, lo: np.ndarray, hi: np.ndarray, width_tol: float,
                  residual_tol: float = inf):
    """_bisect_decreasing on every lane at once.

    g(p) evaluates every lane at its point p. The arrays stay full width:
    each round evaluates every lane, and masked copies update only the
    live ones. Each lane takes the scalar bisection's midpoint steps, keeps
    its best point, and returns where the scalar one returns: at an exact
    zero, once the bracket is narrower than width_tol and the best |g| is
    within residual_tol, or when its bracket runs out of floats. Returns
    (root, |g(root)|, ok). A lane where g is not finite is not ok, its root
    meaningless, for ``solve`` to redo. Each lane's bracket meets
    _bisect_decreasing's precondition, unchecked.
    """
    lo, hi = lo.copy(), hi.copy()  # updated in place
    glo, ghi = g(lo), g(hi)
    ok = np.isfinite(glo) & np.isfinite(ghi)  # totals that vanish give NaN
    take_lo = abs(glo) <= abs(ghi)
    best_p = np.where(take_lo, lo, hi)
    best_g = np.where(take_lo, abs(glo), abs(ghi))
    live = ok
    # a lane whose bracket runs out of floats stops, as in the scalar loop
    while (live := live & (lo < (mid := 0.5 * (lo + hi))) & (mid < hi)).any():
        gm = g(mid)
        agm = abs(gm)
        zero = gm == 0.0  # exact crossing: that midpoint, whatever the best
        better = live & ((agm < best_g) | zero)
        np.copyto(best_p, mid, where=better)
        np.copyto(best_g, agm, where=better)
        up = gm > 0.0
        np.copyto(lo, mid, where=live & up)
        np.copyto(hi, mid, where=live & ~up)
        ok &= ~live | np.isfinite(gm)
        stop = zero | (hi - lo < width_tol) & (best_g <= residual_tol)
        live &= ok & ~stop
    return best_p, best_g, ok
