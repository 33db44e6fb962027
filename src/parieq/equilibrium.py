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
condition along the band, found by bisection on a monotone ratio.

``zeta1``/``zeta2`` give her unconstrained optimal stake on the active side;
the implied-probability response map ``phi`` recomputes the pool share of
Outcome 1 after everyone best-responds to p, with her stake capped at the
budget w. phi is continuous and decreasing with phi(1-kappa) = 1 and
phi(kappa) = 0, so it crosses the diagonal exactly once; ``solve`` brackets
that crossing by bisection and rebuilds the equilibrium from it.
"""

from dataclasses import dataclass
from math import nextafter, sqrt
from typing import Callable

from .errors import DomainError, NoEquilibriumError
from .measure import BeliefMeasure, mass
from .response import (AtomicBet, DiffuseAggregate, DiffuseThresholds,
                       MarketParams, atomic_best_response,
                       diffuse_best_response)

FP_TOL = 1e-10
_DOMAIN_EPS = 1e-9
_MAX_BISECT = 200


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


def _clamp_to(p: float, lo: float, hi: float, what: str) -> float:
    # tolerate float dust at interval ends, reject genuine violations
    if lo - _DOMAIN_EPS <= p <= hi + _DOMAIN_EPS:
        return min(max(p, lo), hi)
    raise DomainError(f"{what} must lie in [{lo}, {hi}], got {p}")


def _D(p: float, kappa: float, m: BeliefMeasure) -> tuple[float, float]:
    # small-bettor totals (d1, d2) at candidate p: the mass above p/kappa,
    # then the mass below 1 - (1-p)/kappa
    return (mass(m, min(p / kappa, 1.0), 1.0),
            mass(m, 0.0, max(1.0 - (1.0 - p) / kappa, 0.0)))


def _bisect_decreasing(g: Callable[[float], float], lo: float, hi: float,
                       width_tol: float, residual_tol: float | None = None,
                       ) -> tuple[float, float]:
    """Root of a decreasing g with a sign change across [lo, hi].

    Accepts the bracket in either orientation. Shrinks until the bracket is
    narrower than width_tol and, when residual_tol is given, keeps going
    until |g| <= residual_tol or float resolution runs out. Very steep
    crossings can leave |g| above residual_tol at every representable point;
    the best point found is returned regardless, with its honest residual.
    Returns (root, |g(root)|).
    """
    if hi < lo:
        lo, hi = hi, lo
    glo, ghi = g(lo), g(hi)
    if glo < ghi:
        raise DomainError("bisection target is not decreasing on the bracket")
    if glo < 0.0 or ghi > 0.0:
        raise DomainError("bisection bracket does not straddle a root")
    best_p, best_g = (lo, abs(glo)) if abs(glo) <= abs(ghi) else (hi, abs(ghi))
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        gmid = g(mid)
        if abs(gmid) < best_g:
            best_p, best_g = mid, abs(gmid)
        if gmid == 0.0:  # exact crossing, common in symmetric markets
            return mid, 0.0
        if gmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < width_tol:
            if residual_tol is None or best_g <= residual_tol:
                return best_p, best_g
    if residual_tol is not None and best_g > residual_tol:
        # the bracket is ulp-wide; the bisection midpoints need not include
        # the representable point nearest the true root, so scan neighbors
        up = dn = best_p
        for _ in range(8):
            up = nextafter(up, 1.0)
            dn = nextafter(dn, 0.0)
            for cand in (up, dn):
                gc = abs(g(cand))
                if gc < best_g:
                    best_p, best_g = cand, gc
    return best_p, best_g


def compute_pbar1(params: MarketParams, measure: BeliefMeasure,
                  tol: float = FP_TOL) -> float:
    """Boundary candidate above which the large bettor backs Outcome 1.

    Unique root of q = d1 / (kappa (d1 + d2)) along the band; the ratio falls
    continuously from 1/kappa to 0, so the root is interior unless q = 0, in
    which case the boundary collapses to kappa exactly.
    """
    _require_solvable_take(params.kappa)
    if params.q == 0.0:
        return params.kappa
    kappa, q, m = params.kappa, params.q, measure

    def g(p: float) -> float:
        d1, d2 = _D(p, kappa, m)
        return d1 / (kappa * (d1 + d2)) - q

    root, _ = _bisect_decreasing(g, 1.0 - kappa, kappa, tol)
    return root


def compute_pbar2(params: MarketParams, measure: BeliefMeasure,
                  tol: float = FP_TOL) -> float:
    """Boundary candidate below which the large bettor backs Outcome 2.

    Mirror of compute_pbar1 on the rising ratio d2 / (kappa (d1 + d2));
    collapses to 1 - kappa exactly when q = 1.
    """
    _require_solvable_take(params.kappa)
    if params.q == 1.0:
        return 1.0 - params.kappa
    kappa, q, m = params.kappa, params.q, measure

    def g(p: float) -> float:
        d1, d2 = _D(p, kappa, m)
        # rising ratio; negate to reuse the decreasing-map bisection
        return (1.0 - q) - d2 / (kappa * (d1 + d2))

    root, _ = _bisect_decreasing(g, 1.0 - kappa, kappa, tol)
    return root


def _require_solvable_take(kappa: float) -> None:
    if kappa <= 0.5:
        raise DomainError(f"band is empty unless kappa > 0.5, got {kappa}")


def phi_context(params: MarketParams, measure: BeliefMeasure,
                fp_tol: float = FP_TOL) -> PhiContext:
    """Precompute the action boundaries for a scenario."""
    pbar1 = compute_pbar1(params, measure, tol=fp_tol)
    pbar2 = compute_pbar2(params, measure, tol=fp_tol)
    assert pbar2 < pbar1  # guaranteed by kappa > 0.5
    return PhiContext(params=params, measure=measure, pbar1=pbar1, pbar2=pbar2)


def _stake(kappa: float, belief: float, d1: float, d2: float, own: float) -> float:
    # unconstrained optimal stake on the side held with probability belief,
    # whose small-bettor total is own
    denom = 1.0 - kappa * belief
    assert denom > 0.0
    return max(0.0, sqrt(kappa * belief / denom * d1 * d2) - own)


def zeta1(p: float, ctx: PhiContext) -> float:
    """Unconstrained optimal stake on Outcome 1 at candidate p in [pbar1, kappa]."""
    kappa, q = ctx.params.kappa, ctx.params.q
    p = _clamp_to(p, ctx.pbar1, kappa, "candidate probability")
    d1, d2 = _D(p, kappa, ctx.measure)
    return _stake(kappa, q, d1, d2, d1)


def zeta2(p: float, ctx: PhiContext) -> float:
    """Unconstrained optimal stake on Outcome 2 at candidate p in [1-kappa, pbar2]."""
    kappa, q = ctx.params.kappa, ctx.params.q
    p = _clamp_to(p, 1.0 - kappa, ctx.pbar2, "candidate probability")
    d1, d2 = _D(p, kappa, ctx.measure)
    return _stake(kappa, 1.0 - q, d1, d2, d2)


def phi(p: float, ctx: PhiContext) -> float:
    """Implied probability produced by best responses to candidate p."""
    kappa, q, w = ctx.params.kappa, ctx.params.q, ctx.params.w
    p = _clamp_to(p, 1.0 - kappa, kappa, "candidate probability")
    d1, d2 = _D(p, kappa, ctx.measure)
    if p < ctx.pbar2:
        stake = min(w, _stake(kappa, 1.0 - q, d1, d2, d2))
        return d1 / (stake + d1 + d2)
    if p <= ctx.pbar1:
        return d1 / (d1 + d2)
    stake = min(w, _stake(kappa, q, d1, d2, d1))
    return (stake + d1) / (stake + d1 + d2)


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
    d1s, d2s = _D(p_star, params.kappa, measure)
    atomic = atomic_best_response(DiffuseAggregate(d1=d1s, d2=d2s), params)
    thresholds = diffuse_best_response(p_star, params.kappa)
    return Equilibrium(p_star=p_star, d1_star=d1s, d2_star=d2s,
                       atomic=atomic, thresholds=thresholds, residual=residual)
