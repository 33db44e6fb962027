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
condition along the band, found by bisection on a monotone ratio. phi only
compares its candidate with the boundaries, so each is a ``Boundary``: a
bisection that a comparison advances only as far as it has to, whose
finished root is the full bisection's, bit for bit. A solve takes about
half the boundary steps of two full bisections. A boundary does not depend
on her budget, so each remembers its last Boundary (see compute_pbar1),
and the second budget of a take resumes both where the first left them.

``zeta1``/``zeta2`` give her unconstrained optimal stake on the active side;
the implied-probability response map ``phi`` recomputes the pool share of
Outcome 1 after everyone best-responds to p, with her stake capped at the
budget w. phi is continuous and decreasing with phi(1-kappa) = 1 and
phi(kappa) = 0, so it crosses the diagonal exactly once; ``solve`` brackets
that crossing by bisection and rebuilds the equilibrium from it.

``grid_fixed_points`` solves many takes at once, one float64 numpy lane
per kappa, with no ``Equilibrium`` built, and checks neither its takes
nor the market: ``stackelberg.optimize_take`` has. Its lanes find the
crossing of the composed best-response map: at each candidate the large
bettor's side is decided from the totals there, by
``response.atomic_stakes``' float tests, with no boundary. phi(p) - p
falls with slope at most -1, so any search that keeps the crossing in
its bracket finds it; the lanes take secant steps, by the rule
``oracle.discretize`` uses too (``_secant_step``), to float resolution
with no tolerance, in 7 to 26 rounds on the bundled 256-take grids. A
lane's fixed point lies within FP_TOL of solve's, which stops at that
tolerance and whose bisected boundaries can misplace a regime switch;
its revenue is the closer of the two to a 50-digit referee, up to float
resolution. A take whose lane meets a value that is not finite, or whose
totals are not both positive, gets None, for the caller to hand to
``solve`` (as ``stackelberg.grid_revenues`` does).

``fixed_point`` is one such lane in Python floats, bit for bit, for a
take found one at a time, as each golden-section probe of
``stackelberg.optimize_take`` is: numpy's fixed cost per operation makes
a batch of one slow. Its loop, ``_secant_float``, also finishes the
grid's last 32 live lanes, where a numpy round costs more than looping
over them. At kappa = 0.8, q = 0.9, w = 1 on wedge(100), a
4-knot tabulated density and a 2-kernel Gaussian mixture, a batch of one
took 0.4 to 1.2 ms, a ``solve`` with no remembered boundary 0.07 to 0.13
ms and ``fixed_point`` 0.02 to 0.03 ms (in process, on one CPU).
``solve`` stays the scalar path that builds an ``Equilibrium``.
"""

from dataclasses import dataclass, field
from math import copysign, inf, isfinite, nan, nextafter, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NoEquilibriumError, ParieqError
from .measure import BeliefMeasure, mass
from .response import (AtomicBet, DiffuseAggregate, DiffuseThresholds,
                       MarketParams, atomic_best_response,
                       diffuse_best_response)

FP_TOL = 1e-10
_FLOAT_TAIL = 32  # live lanes that _secant_lanes finishes in floats


@dataclass(frozen=True)
class PhiContext:
    """Per-market state for evaluating the response map phi; see phi_context."""

    params: MarketParams
    measure: BeliefMeasure
    pbar1: "Boundary"  # large bettor backs Outcome 1 for candidates above this
    pbar2: "Boundary"  # ... and Outcome 2 for candidates below this
    # the stake coefficients on Outcome 1 and 2, from params
    c1: float = field(repr=False, compare=False)
    c2: float = field(repr=False, compare=False)


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
        raise _totals_vanish(p, kappa)
    return d1, d2


def _totals_vanish(p: float, kappa: float) -> DomainError:
    # the error of _D and phi when both totals at p are zero
    return DomainError(f"small-bettor totals vanish at candidate p={p} "
                       f"(kappa={kappa}): the measure's masses round to zero")


def _bisect_decreasing(g: Callable[[float], float], lo: float, hi: float,
                       width_tol: float, residual_tol: float = inf,
                       ) -> tuple[float, float]:
    """Root of a decreasing g on a bracket lo < hi with g(lo) >= 0 >= g(hi).

    The precondition is not checked. The solver's brackets are the band
    [1 - kappa, kappa]: at its ends one small-bettor total is exactly 0.0,
    which fixes the signs of both boundary ratios and of phi(p) - p there.
    Shrinks until the bracket is narrower than width_tol with the best |g|
    within residual_tol, stops early at an exact zero, even at an end, and
    stops at the latest when float resolution runs out; on the band that
    takes at most 105 midpoints. Very steep crossings can leave |g| above
    residual_tol at every point evaluated; the best of them is returned
    regardless, with its honest residual. Returns (root, |g(root)|).
    """
    state = _bisect_steps(g, _bisect_start(g, lo, hi), width_tol, residual_tol)
    return state[2], state[3]


def _bisect_start(g: Callable[[float], float], lo: float, hi: float) -> tuple:
    # the bisection's state (lo, hi, best_p, best_g, done) once g is known
    # at both ends: best_p is the point of least |g| so far, best_g that |g|;
    # an exact zero at the better end is the root, as at a midpoint
    glo, ghi = g(lo), g(hi)
    best_p, best_g = (lo, abs(glo)) if abs(glo) <= abs(ghi) else (hi, abs(ghi))
    return lo, hi, best_p, best_g, best_g == 0.0


def _bisect_steps(g: Callable[[float], float], state: tuple, width_tol: float,
                  residual_tol: float, once: bool = False) -> tuple:
    # the bisection's loop, from a state to the state where it ends (done,
    # with its root in best_p), or after one step if once; a finished state
    # is returned as it is
    if state[4]:
        return state
    lo, hi, best_p, best_g, _ = state
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # until float resolution runs out
        gmid = g(mid)
        if (agmid := abs(gmid)) < best_g:
            best_p, best_g = mid, agmid
        if gmid == 0.0:  # exact crossing, common in symmetric markets
            return lo, hi, mid, 0.0, True
        if gmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < width_tol and best_g <= residual_tol:
            return lo, hi, best_p, best_g, True
        if once:
            return lo, hi, best_p, best_g, False
    return lo, hi, best_p, best_g, True


class Boundary:
    """An action boundary's bisection, advanced only as far as it is asked.

    Boundary(g, lo, hi).root() is _bisect_decreasing(g, lo, hi, FP_TOL)[0],
    bit for bit: the constructor evaluates g at both ends, as that
    bisection does first, and finishes at an end where g is exactly 0; each
    later step is one pass of the same loop, _bisect_steps, with
    residual_tol = inf. below(p) and above(p) compare the root with p and
    take only the steps that the comparison needs: the root the remaining
    steps can return is the best point so far or a midpoint strictly inside
    the bracket, so once p lies past the bracket and on the same side of
    the best point, the answer is known.

    The state is _bisect_steps's tuple (lo, hi, best_p, best_g, done). A
    step reads it once and replaces it whole, so threads sharing a
    boundary see a state of the same bisection, and a g that raises leaves
    it as it was. Two threads that step at once may store an earlier state
    over a later one; that repeats steps, and every answer from either
    state is the finished root's.
    """

    __slots__ = ("_g", "_state")

    def __init__(self, g: Callable[[float], float], lo: float, hi: float):
        self._g = g
        self._state = _bisect_start(g, lo, hi)

    def __repr__(self) -> str:
        lo, hi, best_p, _, done = self._state
        return (f"Boundary(root={best_p!r})" if done
                else f"Boundary(bracket=({lo!r}, {hi!r}), best={best_p!r})")

    def _step(self) -> tuple:
        # the state after one more step; a finished state stays as it is
        self._state = state = _bisect_steps(self._g, self._state, FP_TOL, inf, once=True)
        return state

    def root(self) -> float:
        """The finished bisection's root."""
        state = self._state
        while not state[4]:
            state = self._step()
        return state[2]

    def span(self) -> tuple[float, float]:
        """The closed interval holding every root the remaining steps can return."""
        lo, hi, best_p, _, done = self._state
        if done:
            return best_p, best_p
        return (best_p if best_p < lo else lo), (best_p if best_p > hi else hi)

    def below(self, p: float) -> bool:
        """root() < p, stepping only until that is decided."""
        while True:
            lo, hi, best_p, _, done = self._state
            if done or (p >= hi and p > best_p) or (p <= lo and p <= best_p):
                return best_p < p
            self._step()

    def above(self, p: float) -> bool:
        """root() > p, stepping only until that is decided."""
        while True:
            lo, hi, best_p, _, done = self._state
            if done or (p <= lo and p < best_p) or (p >= hi and p >= best_p):
                return best_p > p
            self._step()


def compute_pbar1(params: MarketParams, measure: BeliefMeasure) -> Boundary:
    """Boundary candidate above which the large bettor backs Outcome 1.

    Unique root of q = d1 / (kappa (d1 + d2)) along the band; the ratio falls
    continuously from 1/kappa to 0, so the root is interior unless q = 0,
    where the ratio minus q is exactly 0 at kappa and the bisection ends
    there. Returns the bisection as a Boundary, with only the band ends
    evaluated; its root() is the bisection's root to FP_TOL, whatever
    tolerance solve is given.

    The last boundary is remembered, keyed by the measure object (compared
    with ``is``, so a copy that compares equal is another key) and by
    kappa and q; a call with that key returns it, as far as earlier
    comparisons have advanced it. The boundaries do not depend on the
    budget w, and ``sweep --baseline`` solves both budgets of a take in a
    row, so one entry is all such a sweep can reuse. Any other key starts
    a new bisection and replaces the entry; a call that raises leaves it
    as it was.
    """
    _require_solvable_take(params.kappa)
    kappa, q, m = params.kappa, params.q, measure

    def g(p: float) -> float:
        d1, d2 = _D(p, kappa, m)
        return d1 / (kappa * (d1 + d2)) - q

    return _remembered_boundary(0, g, params, measure)


def compute_pbar2(params: MarketParams, measure: BeliefMeasure) -> Boundary:
    """Boundary candidate below which the large bettor backs Outcome 2.

    Mirror of compute_pbar1 on the rising ratio d2 / (kappa (d1 + d2)),
    whose bisection ends at 1 - kappa when q = 1. Remembers its last
    boundary in an entry of its own, with compute_pbar1's key.
    """
    _require_solvable_take(params.kappa)
    kappa, q, m = params.kappa, params.q, measure

    def g(p: float) -> float:
        d1, d2 = _D(p, kappa, m)
        # rising ratio; negate to reuse the decreasing-map bisection
        return (1.0 - q) - d2 / (kappa * (d1 + d2))

    return _remembered_boundary(1, g, params, measure)


# each boundary's last (measure, (kappa, q), Boundary): pbar1's, then
# pbar2's. An entry is one tuple, read once and replaced whole, so threads
# sharing it see a whole entry; two that miss at once both start one
_last_boundaries: list = [(None, None, None), (None, None, None)]


def _remembered_boundary(slot: int, g: Callable[[float], float],
                         params: MarketParams, measure: BeliefMeasure) -> Boundary:
    # a new bisection on the band, or the one in slot when the key matches;
    # the measure is held, so its identity stays unique. Keys that compare
    # equal bisect to the same bits: a signed zero q enters only as 1 - q
    last_measure, last_key, last = _last_boundaries[slot]
    key = (params.kappa, params.q)
    if last_measure is measure and last_key == key:
        return last
    boundary = Boundary(g, 1.0 - params.kappa, params.kappa)
    _last_boundaries[slot] = (measure, key, boundary)
    return boundary


def _require_solvable_take(kappa: float) -> None:
    if kappa <= 0.5:
        raise DomainError(f"band is empty unless kappa > 0.5, got {kappa}")


def _ordered(low: Boundary, high: Boundary) -> bool:
    # low.root() < high.root(), stepping the wider span until the two spans
    # are disjoint; two finished boundaries have one-point spans
    while True:
        (lo1, hi1), (lo2, hi2) = low.span(), high.span()
        if hi1 < lo2:
            return True
        if hi2 <= lo1:
            return False
        (low if hi1 - lo1 >= hi2 - lo2 else high)._step()


def phi_context(params: MarketParams, measure: BeliefMeasure) -> PhiContext:
    """The market's boundaries, bisected to FP_TOL and checked to be in order."""
    pbar1, pbar2 = compute_pbar1(params, measure), compute_pbar2(params, measure)
    # the true boundaries are ordered; two that lie within FP_TOL of each
    # other, as on steep wedges next to a band end, or masses that cancel
    # to zero, can leave the computed ones equal or swapped
    if not _ordered(pbar2, pbar1):
        raise DomainError(f"action boundaries out of order: pbar2={pbar2.root()} >= "
                          f"pbar1={pbar1.root()}")
    kappa, q = params.kappa, params.q
    return PhiContext(params=params, measure=measure, pbar1=pbar1, pbar2=pbar2,
                      c1=_stake_coefficient(kappa, q),
                      c2=_stake_coefficient(kappa, 1.0 - q))


def _stake_coefficient(kappa, belief):
    # kappa b / (1 - kappa b) for the side held with probability b = belief,
    # on floats or arrays; the denominator is positive, as kappa < 1 and
    # b <= 1. A stake is sqrt of it times d1 d2, rounded in that order
    return kappa * belief / (1.0 - kappa * belief)


def _stake(c: float, d1: float, d2: float, own: float, cap: float = inf) -> float:
    # optimal stake, capped at cap, on the side whose stake coefficient is c
    # and whose small-bettor total is own: min(cap, max(0.0, s)) for a
    # positive cap, with its ties and its NaN (to 0.0), in comparisons
    s = sqrt(c * d1 * d2) - own
    return cap if s >= cap else (s if s > 0.0 else 0.0)


def zeta1(p: float, ctx: PhiContext) -> float:
    """Unconstrained optimal stake on Outcome 1 at candidate p in [pbar1, kappa].

    Past kappa, mass() rejects p, as in phi.
    """
    if ctx.pbar1.above(p):
        raise DomainError(f"candidate probability {p} lies below pbar1={ctx.pbar1.root()}")
    d1, d2 = _D(p, ctx.params.kappa, ctx.measure)
    return _stake(ctx.c1, d1, d2, d1)


def zeta2(p: float, ctx: PhiContext) -> float:
    """Unconstrained optimal stake on Outcome 2 at candidate p in [1-kappa, pbar2].

    Below 1 - kappa, mass() rejects p, as in phi.
    """
    if ctx.pbar2.below(p):
        raise DomainError(f"candidate probability {p} lies above pbar2={ctx.pbar2.root()}")
    d1, d2 = _D(p, ctx.params.kappa, ctx.measure)
    return _stake(ctx.c2, d1, d2, d2)


def phi(p: float, ctx: PhiContext) -> float:
    """Implied probability produced by best responses to candidate p.

    p must lie in the band [1 - kappa, kappa]. phi reads the totals itself,
    by _D's two mass() calls and its vanish check, one call frame less on
    the hottest evaluation. The band check is mass()'s: past the band, NaN
    included, a threshold leaves [0, 1] (see _D).

    The regimes are atomic_stakes': she backs Outcome 1 where pbar1 lies
    below p, Outcome 2 where pbar2 lies above it, and abstains otherwise,
    with one stake a from _stake capped at her budget. phi_context's order
    check makes pbar2 < pbar1, so the first two regimes never overlap, the
    second boundary is asked only when the first says no, and each pool
    share, (a + d1) / (a + d1 + d2), d1 / (a + d1 + d2) or d1 / (d1 + d2),
    is the float that (a1 + d1) / (a1 + a2 + d1 + d2) gives with the other
    stake at 0.0.
    """
    kappa, m = ctx.params.kappa, ctx.measure
    d1 = mass(m, p / kappa, 1.0)
    d2 = mass(m, 0.0, 1.0 - (1.0 - p) / kappa)
    if d1 + d2 == 0.0:
        raise _totals_vanish(p, kappa)
    if ctx.pbar1.below(p):
        a = _stake(ctx.c1, d1, d2, d1, ctx.params.w)
        return (a + d1) / (a + d1 + d2)
    if ctx.pbar2.above(p):
        return d1 / (_stake(ctx.c2, d1, d2, d2, ctx.params.w) + d1 + d2)
    return d1 / (d1 + d2)


def solve(params: MarketParams, measure: BeliefMeasure,
          fp_tol: float = FP_TOL) -> Equilibrium:
    """Compute the unique equilibrium, or raise NoEquilibriumError.

    Bisects phi(p) - p over the band; the endpoint values phi(1-kappa) = 1
    and phi(kappa) = 0 guarantee the sign change, and monotonicity makes the
    crossing unique. fp_tol stops this bisection and nothing else: the
    bracket is narrowed below fp_tol and the reported fixed-point residual
    is driven below fp_tol as well. The map, phi_context's, does not depend
    on fp_tol, so at any fp_tol eq.residual is |phi(p_star) - p_star| on it.
    Masses that round negative, where a stake's square root fails, raise a
    DomainError.
    """
    if not fp_tol > 0.0:
        raise DomainError(f"fp_tol must be positive, got {fp_tol}")
    if params.kappa <= 0.5:
        raise NoEquilibriumError("no equilibrium: kappa must exceed 0.5")
    try:
        ctx = phi_context(params, measure)
        p_star, residual = _bisect_decreasing(
            lambda p: phi(p, ctx) - p,
            1.0 - params.kappa, params.kappa,
            width_tol=fp_tol, residual_tol=fp_tol)
        # every wager rebuilt from the fixed point and the totals there
        d1s, d2s = _D(p_star, params.kappa, measure)
        atomic = atomic_best_response(DiffuseAggregate(d1=d1s, d2=d2s), params)
    except ParieqError:
        raise
    except ValueError as exc:  # math.sqrt of a negative product d1 * d2
        raise DomainError(f"the measure's masses round negative at kappa="
                          f"{params.kappa}: a stake's square root fails ({exc})") from exc
    thresholds = diffuse_best_response(p_star, params.kappa)
    return Equilibrium(p_star=p_star, d1_star=d1s, d2_star=d2s,
                       atomic=atomic, thresholds=thresholds, residual=residual)


# --------------------------------------------------------------------------
# many takes at once: each lane replays the scalar operations in their order
# --------------------------------------------------------------------------

def grid_fixed_points(kappas: Sequence[float], q: float, w: float,
                      measure: BeliefMeasure,
                      ) -> list[Optional[tuple[float, float, float, float]]]:
    """Per take, the composed map's (p_star, residual, d1_star, d2_star), or None.

    The take at kappa k is the market MarketParams(kappa=k, q=q, w=w). The
    precondition is not checked: every kappa is a float in (0.5, 1), and q
    and w are values MarketParams accepts, as in optimize_take's grid. Every
    fixed point is found at once, one float64 lane each, in one loop of
    ``_secant_lanes`` on the composed map (see the module docstring), to
    float resolution with no tolerance. The residual is |phi(p_star) -
    p_star| at the lane's best point. Masses come from the measure's
    exact_mass_array, which matches exact_mass bit for bit.

    None marks a take that only ``solve`` can decide, because it raises
    there or may: a lane that meets a value that is not finite (where
    Python's float division or math.sqrt would raise), or totals at the
    fixed point that are not both positive. An error the measure itself
    raises propagates from the batch.
    """
    kappa = np.array(kappas, dtype=float)
    with np.errstate(all="ignore"):  # non-finite values mark lanes, not warnings
        c1, c2 = _stake_coefficient(kappa, q), _stake_coefficient(kappa, 1.0 - q)

        def g(p):
            return _phi_lanes(p, kappa, q, w, measure, c1, c2) - p

        p_star, residual, ok = _secant_lanes(
            g, 1.0 - kappa, kappa, lambda i: _composed_map(float(kappa[i]), q, w, measure))
        d1s, d2s = _D_lanes(p_star, kappa, measure)
        ok &= (d1s > 0.0) & (d2s > 0.0)
    lanes = zip(p_star.tolist(), residual.tolist(), d1s.tolist(), d2s.tolist())
    return [lane if good else None for good, lane in zip(ok.tolist(), lanes)]


def _D_lanes(p: np.ndarray, kappa: np.ndarray, m: BeliefMeasure):
    # _D per lane for p in the band, one exact_mass_array call per total with
    # the float band end as the other bound, so a measure takes its
    # cumulative there once per call; at a band end the empty interval's
    # mass is +0.0, as from mass()
    return (m.exact_mass_array(p / kappa, 1.0),
            m.exact_mass_array(0.0, 1.0 - (1.0 - p) / kappa))


def _phi_lanes(p, kappa, q, w, m, c1, c2):
    # the composed best-response map per lane: her side is decided at p from
    # the totals there, by atomic_stakes' float tests, and s is the one
    # stake that side takes; c1 and c2 are her stake coefficients on Outcome
    # 1 and 2. Every probe lies in [1 - kappa, kappa]
    d1, d2 = _D_lanes(p, kappa, m)
    t = kappa * (d1 + d2)
    back1 = q > d1 / t
    back2 = ~back1 & (1.0 - q > d2 / t)
    c, own = np.where(back1, c1, c2), np.where(back1, d1, d2)
    # min(w, max(0.0, sqrt(c * d1 * d2) - own)) with Python's min/max tie
    # rules. A negative d1 * d2 (masses rounded below zero) makes math.sqrt
    # raise but np.sqrt return NaN, so NaN is kept to mark the lane for
    # solve, unless she abstains
    s = np.sqrt(c * d1 * d2) - own
    s = np.where(s <= 0.0, 0.0, s)
    s = np.where(back1 | back2, np.where(s >= w, w, s), 0.0)
    return (np.where(back1, s, 0.0) + d1) / (s + d1 + d2)


def _secant_step(x, g, xp, gp, lo, hi):
    """The next probe of a bracketing secant search, on every lane at once.

    x is the last probe and g the map there, xp the probe before and gp
    the map there, and lo < hi the bracket, already narrowed by x. The next
    probe is the secant point through the two probes when it lies strictly
    inside the bracket and |g| has at least halved since xp. Otherwise the
    lane gallops, repeating its last step doubled, if that stays strictly
    inside, and else takes the bracket's midpoint. Galloping carries a lane
    across a run of points where the map rounds to one value. Returns
    (next probe, done): a lane is done when the secant step from x rounds
    to nothing, as at an exact zero, or when nothing lies strictly inside
    its bracket. Shared by ``_secant_lanes`` and ``oracle.discretize``;
    ``_secant_step_float`` takes the same step on one lane's floats. Its
    inf or nan steps, never inside a bracket, warn unless the caller's
    loop has entered np.errstate, as both callers' do.
    """
    probe = x - g * (x - xp) / (g - gp)
    gallop = x + 2.0 * (x - xp)
    nxt = np.where((lo < probe) & (probe < hi) & (2.0 * np.abs(g) <= np.abs(gp)),
                   probe, np.where((lo < gallop) & (gallop < hi), gallop,
                                   0.5 * (lo + hi)))
    return nxt, (probe == x) | ~((lo < nxt) & (nxt < hi))


def _secant_lanes(g, lo: np.ndarray, hi: np.ndarray, lane_map=None):
    """Root of a decreasing g on every lane at once, to float resolution.

    g(p) evaluates every lane at its point p, and each lane's bracket lo <
    hi has g(lo) >= 0 >= g(hi), unchecked. A lane's first probe is the
    chord through its bracket's ends, moved strictly inside, with the upper
    end standing in for the probe before it; every later one is
    ``_secant_step``'s, and each probe replaces the bracket end whose sign
    it shares. A lane keeps its best point, where |g| is least, and stops
    where ``_secant_step`` says it is done. There is no tolerance. Returns
    (root, |g(root)|, ok). A lane where g is not finite is not ok, its root
    meaningless, for ``solve`` to redo.

    A round evaluates every lane, live or not, in 58 to 77 us on the
    bundled 256-take grids; one lane's round in floats takes 1.2 to 1.7 us
    (in process, one CPU). So, given lane_map(i), lane i's g in floats,
    once _FLOAT_TAIL lanes or fewer are live each finishes from its exact
    state by ``_secant_float``, with the same bits. Against numpy rounds
    to the end, that made the six bundled searches 6.5 % faster at 32
    lanes, 3.0 % at 64, and 4.9 % slower at 128.
    """
    with np.errstate(all="ignore"):  # non-finite values mark lanes, not warnings
        glo, ghi = g(lo), g(hi)
        ok = np.isfinite(glo) & np.isfinite(ghi)  # totals that vanish give NaN
        take_lo = abs(glo) <= abs(ghi)
        best_p = np.where(take_lo, lo, hi)
        best_g = np.where(take_lo, abs(glo), abs(ghi))
        chord = lo + (hi - lo) * (glo / (glo - ghi))
        # fmin and fmax take a nan chord to the bracket's last float
        x = np.fmax(np.fmin(chord, np.nextafter(hi, lo)), np.nextafter(lo, hi))
        xp, gp = hi, ghi
        lo, hi = lo.copy(), hi.copy()  # updated in place
        live = ok & (lo < x) & (x < hi)
        while n_live := np.count_nonzero(live):
            if lane_map is not None and n_live <= _FLOAT_TAIL:
                tail = np.flatnonzero(live)
                for i, *state in zip(tail.tolist(), *(
                        a[tail].tolist() for a in (lo, hi, x, xp, gp, best_p, best_g))):
                    end = _secant_float(lane_map(i), *state)
                    ok[i] = end is not None
                    if end:
                        best_p[i], best_g[i] = end
                break
            gx = g(x)
            agx = abs(gx)
            better = live & (agx < best_g)
            np.copyto(best_p, x, where=better)
            np.copyto(best_g, agx, where=better)
            up = gx > 0.0
            np.copyto(lo, x, where=live & up)
            np.copyto(hi, x, where=live & ~up)
            ok &= ~live | np.isfinite(gx)
            nxt, done = _secant_step(x, gx, xp, gp, lo, hi)
            live &= ok & ~done
            xp, gp, x = x, gx, np.where(live, nxt, x)  # a finished lane stays put
    return best_p, best_g, ok


# --------------------------------------------------------------------------
# one take: a lane of grid_fixed_points in Python floats
# --------------------------------------------------------------------------

def fixed_point(kappa: float, q: float, w: float, measure: BeliefMeasure,
                ) -> Optional[tuple[float, float, float, float]]:
    """grid_fixed_points([kappa], q, w, measure)[0], bit for bit, in floats.

    The same precondition, unchecked. The lane's operations in their order:
    the composed map (``_composed_map``) with its totals from mass(), the
    chord start, ``_secant_float``'s rounds by ``_secant_step``'s rule, the
    best point and the totals there. Where Python raises and numpy gives
    a value that is not finite (a zero divisor, math.sqrt of a negative
    product), the map gives NaN, and the take gets None as its lane does.
    """
    g = _composed_map(kappa, q, w, measure)
    lo, hi = 1.0 - kappa, kappa
    glo, ghi = g(lo), g(hi)
    if not (isfinite(glo) and isfinite(ghi)):
        return None
    best_p, best_g = (lo, abs(glo)) if abs(glo) <= abs(ghi) else (hi, abs(ghi))
    chord = lo + (hi - lo) * _divide(glo, glo - ghi)
    below_hi, above_lo = nextafter(hi, lo), nextafter(lo, hi)
    x = chord if chord < below_hi else below_hi  # np.fmin: a NaN chord gives below_hi
    x = x if x > above_lo else above_lo
    if (end := _secant_float(g, lo, hi, x, hi, ghi, best_p, best_g)) is None:
        return None
    best_p, best_g = end
    d1 = mass(measure, best_p / kappa, 1.0)
    d2 = mass(measure, 0.0, 1.0 - (1.0 - best_p) / kappa)
    return (best_p, best_g, d1, d2) if d1 > 0.0 and d2 > 0.0 else None


def _composed_map(kappa: float, q: float, w: float,
                  measure: BeliefMeasure) -> Callable[[float], float]:
    # phi(p) - p for one take, _phi_lanes' lane in floats: NaN where Python
    # raises and numpy gives a value that is not finite
    c1, c2 = _stake_coefficient(kappa, q), _stake_coefficient(kappa, 1.0 - q)

    def g(p: float) -> float:
        d1 = mass(measure, p / kappa, 1.0)
        d2 = mass(measure, 0.0, 1.0 - (1.0 - p) / kappa)
        try:
            t = kappa * (d1 + d2)
            if q > d1 / t:
                a1 = a = _stake(c1, d1, d2, d1, w)
            elif 1.0 - q > d2 / t:
                a1, a = 0.0, _stake(c2, d1, d2, d2, w)
            else:
                a1 = a = 0.0
            return (a1 + d1) / (a + d1 + d2) - p
        except (ZeroDivisionError, ValueError):  # numpy's inf or NaN
            return nan

    return g


def _secant_float(g: Callable[[float], float], lo: float, hi: float, x: float,
                  xp: float, gp: float, best_p: float, best_g: float,
                  ) -> Optional[tuple[float, float]]:
    # a lane's secant rounds in floats, from its state in _secant_lanes' loop
    # to its (best_p, best_g), or None where g is not finite
    while lo < x < hi:
        gx = g(x)
        if not isfinite(gx):
            return None
        if abs(gx) < best_g:
            best_p, best_g = x, abs(gx)
        if gx > 0.0:
            lo = x
        else:
            hi = x
        nxt, done = _secant_step_float(x, gx, xp, gp, lo, hi)
        if done:
            break
        xp, gp, x = x, gx, nxt
    return best_p, best_g


def _secant_step_float(x: float, g: float, xp: float, gp: float, lo: float,
                       hi: float) -> tuple[float, bool]:
    # _secant_step on one lane's floats, bit for bit, ties, signed zeros,
    # infinities and NaN included
    probe = x - _divide(g * (x - xp), g - gp)
    gallop = x + 2.0 * (x - xp)
    if lo < probe < hi and 2.0 * abs(g) <= abs(gp):
        nxt = probe
    elif lo < gallop < hi:
        nxt = gallop
    else:
        nxt = 0.5 * (lo + hi)
    return nxt, probe == x or not lo < nxt < hi


def _divide(a: float, b: float) -> float:
    # a / b as numpy divides: by a zero, an infinity of the quotient's sign,
    # or NaN for 0 / 0 and NaN / 0
    if b:
        return a / b
    return nan if a == 0.0 or a != a else copysign(inf, a) * copysign(1.0, b)
