"""Wealth measures describing the population of small bettors.

A measure assigns to each belief interval the total initial wealth of the
small bettors whose subjective probability of Outcome 1 lies in it. Every
supported measure has a continuous, everywhere-positive density on [0, 1];
construction rejects anything else, since a vanishing density or an atom
breaks both coverage and uniqueness of the market solution.

Where positivity comes from: every measure carries a floor, a float proven
from its parameters to be at or below the float density at every p in
[0, 1], or 0.0 when nothing is proven. A positive floor is the proof; a
measure whose floor is 0.0 has its density sampled at 10,001 evenly spaced
points at construction, and any sample that is not positive rejects it.
- wedge and symmetrized_wedge: 1.0/n, for an order in [1, 2**53].
- uniform: 1.0.
- tabulated: the least of the last knot value and each piece's bound, a
  on a rising piece from a to b and a + (b - a) on a falling one.
  Neighbouring knot values that fall so steeply that this rounds to zero
  are rejected.
- gaussian_mixture: the largest kernel term at the end of [0, 1] farther
  from its mean, with exp's value there taken two floats down to allow for
  its rounding; 0.0 when a coefficient overflows, since inf * 0 is NaN.
  A kernel that underflows at its far end contributes 0.0.
- scaled: factor times the base's floor, 0.0 when that underflows.
- from_density: 0.0, since a user density can vanish anywhere. Its scan
  also rejects a density whose largest sample there exceeds twice the
  largest its adaptive pass took: the pass missed a peak.

Families
--------
wedge(n)              piecewise-linear density, steep near 0 for large n,
                      flat at 1/n beyond the knee at p = 1/n; unit total mass
uniform()             unit density (identical to wedge(1))
symmetrized_wedge(n)  average of wedge(n) and its mirror image
gaussian_mixture(...) positive combination of Gaussian kernels
tabulated(knots)      piecewise-linear interpolation of user knots
scaled(base, factor)  base measure with density multiplied by factor

Every measure answers interval-mass questions through one function, its
exact_mass, and mass() only checks the interval before calling it. An empty
interval [x, x] has mass +0.0 from every measure, scalar and array alike,
and so does [0.0, -0.0]: each family's mass is a difference of one
cumulative at the interval's two ends (or a sum or a multiple of such
differences), and c - c is +0.0 for every finite c. mass() and the
solver's lanes rely on that rule. The wedge families, uniform, tabulated
and from_density take that difference in one place, where the band ends'
cumulatives are constants: cum(1.0) is taken once, at construction, and a
lower bound of zero gives cum(hi) + 0.0. On these families the cumulative
of a zero is a zero, so that is the difference's float, except that
[0.0, -0.0] gets +0.0 where cum(-0.0) - cum(0.0) is -0.0. The Gaussian
mixture takes each kernel's erf or erfc at 0.0 and 1.0 as at any other
bound. The built-in families take their cumulatives from their
antiderivatives: piecewise polynomials for the wedge families and tabulated
densities, erf and erfc differences for Gaussian mixtures, and the base's
mass times the factor for scaled. from_density, which wraps an arbitrary
user density, builds a piecewise-cubic cumulative once at construction,
from an adaptive Simpson pass to a tolerance relative to its total, and
never calls the density again. A measure whose total mass is not finite is
rejected at construction.

exact_moment(lo, hi), the first moment of [lo, hi] (the integral of p
times the density), serves the small bettors' subjective profit. It is
optional, as exact_mass once was: uniform takes it from the cumulative
p^2/2, a Gaussian mixture from erf and exp differences, from_density from
quartic pieces built with its cumulative, and scaled as the factor times
its base's, when the base has one. The wedge families and tabulated have
none yet, so their subjective profit is still integrated by adaptive
Simpson. Where a moment exists, an empty interval's moment is +0.0, as its
mass is.

exact_mass_array is exact_mass over float64 arrays, element for element,
for the grid solver and the oracle's discretization. Its two bounds
broadcast against each other as numpy operands do, so either may be a
float: discretize passes the float 0.0 as its lower bound, and the grid
solver's _D_lanes passes the float 1.0 as d1's upper bound and the float
0.0 as d2's lower bound. On the families built on one cumulative, that
band end's cumulative is then a constant, read once per call instead of
computed once per lane.
By default it calls exact_mass on each element through np.frompyfunc, so
the bits are the same by construction. The wedge families build their
scalar cumulative and its array twin in one place, from constants computed
once per measure, with the same operations in the same order; uniform and
tabulated write theirs over arrays the same way, and scaled multiplies its
base's array mass by the factor. The Gaussian mixture (numpy has no erf)
and from_density take the default.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError, as_count
# adaptive_simpson is not called here, but benchmarks/spans.py wraps
# parieq.measure.adaptive_simpson
from .quadrature import adaptive_simpson, simpson_panels  # noqa: F401

POSITIVITY_GRID = 10_001


@dataclass(frozen=True)
class BeliefMeasure:
    """A finite measure on [0, 1] given by a positive continuous density.

    exact_mass(lo, hi) is the measure's interval mass for 0 <= lo <= hi <= 1:
    a closed form for every built-in family, and for from_density the
    difference of the cumulative it built at construction; it is +0.0 when
    lo == hi. total_mass is exact_mass(0, 1).
    exact_mass_array(lo, hi) takes float64 arrays and returns, element for
    element, the bits exact_mass returns. The bounds broadcast against each
    other, so a float lower bound such as the 0.0 discretize passes is
    paired with every upper bound; _D_lanes passes the floats 1.0 and 0.0,
    the band ends, whose cumulatives are constants on the families built on
    one cumulative.
    floor is a float at or below density(p) at every p in [0, 1], proven
    from the family's parameters; 0.0 when nothing is proven, and then the
    constructors establish positivity by sampling the density.
    exact_moment(lo, hi) is the first moment, the integral of p dmu over
    [lo, hi] for 0 <= lo <= hi <= 1, +0.0 when lo == hi: a closed form for
    uniform and Gaussian mixtures, quartic pieces for from_density and the
    factor times the base's for scaled. It is None on the wedge families
    and tabulated, and on scaled over any of them.
    """

    density: Callable[[float], float]
    total_mass: float
    kind: str
    exact_mass: Callable[[float, float], float] = field(repr=False, compare=False)
    exact_mass_array: Callable[[np.ndarray | float, np.ndarray], np.ndarray] = field(
        repr=False, compare=False)
    floor: float = 0.0
    exact_moment: Callable[[float, float], float] | None = field(
        default=None, repr=False, compare=False)

    def __repr__(self) -> str:  # density callables have no useful repr
        return f"BeliefMeasure(kind={self.kind!r}, total_mass={self.total_mass!r})"


def mass(m: BeliefMeasure, lo: float, hi: float) -> float:
    """Wealth held by bettors with beliefs in [lo, hi].

    Endpoint openness is immaterial because the measure has a density. An
    empty interval's mass is the +0.0 that exact_mass returns for it.
    """
    if not (0.0 <= lo <= hi <= 1.0):
        raise DomainError(f"mass requires 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
    return m.exact_mass(lo, hi)


def _validate_density(density: Callable[[float], float], kind: str) -> tuple[float, float]:
    """Sample density on the positivity grid; return its largest sample and where.

    Continuity is guaranteed by the family constructions.
    """
    top, at = 0.0, 0.0
    for i in range(POSITIVITY_GRID):
        p = i / (POSITIVITY_GRID - 1)
        value = density(p)
        if not value > 0.0:
            raise DomainError(f"{kind}: density must be positive on [0,1], got {value} at p={p}")
        if value > top:
            top, at = value, p
    return top, at


def _finish(density, kind, exact_mass, exact_mass_array=None, floor=0.0,
            peak=math.inf, exact_moment=None) -> BeliefMeasure:
    # floor: proven lower bound of the density, 0.0 when unproven; peak: the
    # largest density sample the construction took, if it took any
    if floor == 0.0:
        top, at = _validate_density(density, kind)
        if top > 2.0 * peak:
            raise QuadratureError(
                f"{kind}: density reaches {top} at p={at}, more than twice the largest "
                f"value {peak} its adaptive pass sampled; the pass missed a peak")
    total = exact_mass(0.0, 1.0)
    if not math.isfinite(total):  # e.g. knot values or weights near the float maximum
        raise DomainError(f"{kind}: total mass must be finite, got {total}")
    return BeliefMeasure(density=density, total_mass=total, kind=kind,
                         exact_mass=exact_mass,
                         exact_mass_array=exact_mass_array or _elementwise(exact_mass),
                         floor=floor, exact_moment=exact_moment)


def _elementwise(exact_mass):
    # exact_mass called on each element pair of two float64 arrays
    ufunc = np.frompyfunc(exact_mass, 2, 1)
    return lambda lo, hi: ufunc(lo, hi).astype(float)


def from_density(density: Callable[[float], float], kind: str = "custom") -> BeliefMeasure:
    """Wrap an arbitrary positive continuous density (validated by sampling).

    Its cumulative is built once, here: an adaptive Simpson pass over
    [0, 1] (quadrature.simpson_panels) to a tolerance relative to the total,
    and on each accepted half-panel the quadratic through its three density
    samples, integrated to a cubic. Each piece starts at the previous one's
    right-end value and is capped by its own, so the float cumulative is
    continuous and nondecreasing across piece edges. Every mass is a
    difference of that cumulative; the density is not called again. The
    first moment is built the same way, from p times the same quadratics,
    integrated to quartic pieces. A
    sample that is not positive and finite is a DomainError; a density the
    pass cannot resolve (a jump, say) is a QuadratureError, and so is one
    whose positivity scan finds a value above twice the pass's largest
    sample, a peak the pass never saw.
    """

    def sample(p: float) -> float:
        value = density(p)
        if not 0.0 < value < math.inf:
            raise DomainError(
                f"{kind}: density must be positive and finite on [0,1], got {value} at p={p}")
        return value

    edges, pieces, moments, top, upper, peak = [], [], [], 0.0, 0.0, 0.0
    for lo, hi, f0, fm, f1 in simpson_panels(sample):
        peak = max(peak, f0, fm, f1)
        # with q(t) = f0 + b t + c t^2 through the samples at t = 0, 1/2, 1,
        # the mass of [lo, lo + t h] is h t (f0 + t (b/2 + t c/3)), and its
        # first moment h t (lo (f0 + t (b/2 + t c/3)) + h t (f0/2 + t (b/3 + t c/4)))
        h = hi - lo
        b2 = 0.5 * (4.0 * fm - 3.0 * f0 - f1)
        c3 = 2.0 * (f0 - 2.0 * fm + f1) / 3.0
        e2, e3, e4 = 0.5 * f0, 2.0 * b2 / 3.0, 0.75 * c3
        # each cumulative's expression at t = 1, bit for bit
        head, top = top, top + h * (f0 + (b2 + c3))
        first, upper = upper, upper + h * (lo * (f0 + (b2 + c3)) + h * (e2 + (e3 + e4)))
        edges.append(lo)
        pieces.append((lo, h, head, f0, b2, c3, top))
        moments.append((lo, h, first, f0, b2, c3, e2, e3, e4, upper))

    def cumulative(p: float) -> float:
        lo, h, head, f0, b2, c3, top = pieces[bisect_right(edges, p) - 1]
        t = (p - lo) / h  # exact: h is a power of 2
        return min(head + h * (t * (f0 + t * (b2 + t * c3))), top)

    def first_moment(p: float) -> float:
        lo, h, head, f0, b2, c3, e2, e3, e4, top = moments[bisect_right(edges, p) - 1]
        t = (p - lo) / h
        return min(head + h * (t * (lo * (f0 + t * (b2 + t * c3))
                                    + h * (t * (e2 + t * (e3 + t * e4))))), top)

    return _finish(density, kind, *_interval_masses(cumulative), peak=peak,
                   exact_moment=_interval_masses(first_moment)[0])


def _interval_masses(cum, cum_array=None):
    # exact_mass and exact_mass_array as cum(hi) - cum(lo), with the band
    # ends' cumulatives as constants (see the module docstring); without
    # cum_array, _finish calls exact_mass per element
    top = cum(1.0)

    def exact(lo: float, hi: float) -> float:
        upper = top if hi == 1.0 else cum(hi)
        return upper + 0.0 if lo == 0.0 else upper - cum(lo)

    if cum_array is None:
        return exact, None

    def exact_array(lo, hi):
        # a float bound at a band end reads the constant; in an array lower
        # bound a zero takes the difference, and + 0.0 gives exact's +0.0
        # where that is cum(-0.0) - cum(0.0)
        upper = top if isinstance(hi, float) and hi == 1.0 else cum_array(hi)
        if isinstance(lo, float) and lo == 0.0:
            return upper + 0.0
        return upper - cum_array(lo) + 0.0
    return exact, exact_array


# --------------------------------------------------------------------------
# wedge family
# --------------------------------------------------------------------------

# Density of the wedge family: linear ramp below 1/n, constant 1/n above.
# For 1 <= n <= 2**53 the float result is at least 1.0/n at every p. The
# floats n - 1 and 2(n - 1) are exact, 2n(n - 1) is off by one rounding, and
# a float p below 1.0/n lies at least 2**-54 / n below 1/n, so the rounded
# ramp term never exceeds 2(n - 1) and the sum never drops below 1.0/n.
def _wedge_density(n: int) -> Callable[[float], float]:
    cut, ramp, top = 1.0 / n, -2.0 * n * (n - 1), 2.0 * (n - 1)
    return lambda p: ramp * p + top + cut if p < cut else cut


def _wedge_order(n: int) -> int:
    # above 2**53 the order is no longer an exact float, and the density
    # loses its positivity proof
    return as_count(n, 1, 2**53, "wedge order must be an integer in [1, 2**53]")


def _wedge_cumulatives(n: int):
    # the cumulative of the wedge density, as a float function and its
    # elementwise numpy twin: the same constants, the same operations in the
    # same order; -n(n - 1) stays a Python int, and head is the ramp's mass
    cut, a = 1.0 / n, -n * (n - 1)
    b, head = 2.0 * (n - 1) + cut, (n - 1) / n + cut * cut

    def cum(p: float) -> float:
        return a * p * p + b * p if p <= cut else head + (p - cut) * cut

    def cum_array(p: np.ndarray) -> np.ndarray:
        return np.where(p <= cut, a * p * p + b * p, head + (p - cut) * cut)
    return cum, cum_array


def wedge(n: int) -> BeliefMeasure:
    """Wedge measure of order n; total mass 1, wedge(1) is uniform."""
    n = _wedge_order(n)
    return _finish(_wedge_density(n), f"wedge(n={n})",
                   *_interval_masses(*_wedge_cumulatives(n)), floor=1.0 / n)


def uniform() -> BeliefMeasure:
    """Unit density on [0, 1]."""
    identity = lambda p: p  # the cumulative, on floats and arrays alike
    return _finish(lambda p: 1.0, "uniform", *_interval_masses(identity, identity),
                   floor=1.0, exact_moment=_interval_masses(lambda p: 0.5 * p * p)[0])


def symmetrized_wedge(n: int) -> BeliefMeasure:
    """Symmetric measure splitting the wedge's wealth between both extremes."""
    n = _wedge_order(n)
    w, w_array = _interval_masses(*_wedge_cumulatives(n))
    density = _wedge_density(n)

    # the wedge's mass on [lo, hi] and on its mirror image [1 - hi, 1 - lo],
    # so a band end's float bound reaches the mirror as the other band end
    def exact(lo: float, hi: float) -> float:
        return 0.5 * (w(lo, hi) + w(1.0 - hi, 1.0 - lo))

    def exact_array(lo, hi):
        return 0.5 * (w_array(lo, hi) + w_array(1.0 - hi, 1.0 - lo))

    # each wedge term is at least 1.0/n, so their float sum is at least 2.0/n
    # and its half at least 1.0/n. As 1/n <= 0.5 for n >= 2, at most one of
    # p and 1 - p lies below the knee, and the other term is the cut; for
    # n = 1 every term is 1.0. So one density call gives the two calls' bits
    cut = 1.0 / n
    return _finish(lambda p: 0.5 * (density(p if p < 0.5 else 1.0 - p) + cut),
                   f"symmetrized_wedge(n={n})", exact, exact_array, floor=1.0 / n)


# --------------------------------------------------------------------------
# gaussian mixture
# --------------------------------------------------------------------------

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gaussian_mixture(weights: Sequence[float], means: Sequence[float],
                     stddevs: Sequence[float]) -> BeliefMeasure:
    """Mixture-of-Gaussians measure; masses are exact erf differences.

    Kernel k adds w_k/2 * (erf(z(hi)) - erf(z(lo))) to the mass of [lo, hi],
    z(p) = (p - mu_k)/(sd_k*sqrt 2); on an interval to one side of mu_k
    whose far end has |z| > 0.5, where that difference cancels, it takes
    the same difference of erfc values. Its first moment on [lo, hi] is
    mu_k times that mass plus sd_k^2 (g_k(lo) - g_k(hi)), g_k the kernel's
    density, whose sd_k^2 g_k(p) is w_k sd_k/sqrt(2 pi) exp(-z(p)^2); the
    difference of the two exp values is taken through expm1 (see moment).
    The mu_k mass term is the mass's own erf sum with w_k mu_k in place of
    w_k. Where a moment coefficient, w_k mu_k / 2 or w_k sd_k/sqrt(2 pi),
    overflows, exact_moment is None.
    """
    weights = tuple(float(x) for x in weights)
    means = tuple(float(x) for x in means)
    stddevs = tuple(float(x) for x in stddevs)
    if not (len(weights) == len(means) == len(stddevs)) or not weights:
        raise DomainError("mixture parameter lists must be nonempty and equal-length")
    if not all(map(math.isfinite, (*weights, *means, *stddevs))):
        raise DomainError("mixture parameters must be finite")
    for wgt, sd in zip(weights, stddevs):
        if wgt <= 0.0:
            raise DomainError(f"mixture weights must be positive, got {wgt}")
        if sd <= 0.0:
            raise DomainError(f"mixture stddevs must be positive, got {sd}")
    erf, erfc, exp, expm1 = math.erf, math.erfc, math.exp, math.expm1

    # each kernel's sd sqrt 2
    widths = tuple(sd * math.sqrt(2.0) for sd in stddevs)

    def erf_sum(coefs):
        # sum over kernels of coef * (erf(z(hi)) - erf(z(lo))) on [lo, hi]:
        # the mass with each kernel's w/2 as its coef
        kernels = tuple(zip(coefs, means, widths))

        def total(lo: float, hi: float) -> float:
            out = 0.0
            for c, mu, width in kernels:
                a, b = (lo - mu) / width, (hi - mu) / width
                # erfc only on a tail reaching past |z| = 0.5, where the erf
                # values near +-1 would cancel; nearer the mean the erfc
                # values near 1 would
                if a < -0.5 and b < 0.0:  # a lower tail's mirror image is an upper one
                    out += c * (erfc(-b) - erfc(-a))
                elif b > 0.5 and a > 0.0:
                    out += c * (erfc(a) - erfc(b))
                else:
                    out += c * (erf(b) - erf(a))
            return out
        return total

    exact = erf_sum(0.5 * wgt for wgt in weights)
    # each kernel's density coefficient w / (sd sqrt(2 pi)), its mean and sd
    terms = tuple((wgt * _INV_SQRT_2PI / sd, mu, sd)
                  for wgt, mu, sd in zip(weights, means, stddevs))
    # each kernel's w sd / sqrt(2 pi), mean and sd sqrt 2
    bumps = tuple((wgt * sd * _INV_SQRT_2PI, mu, width)
                  for wgt, mu, sd, width in zip(weights, means, stddevs, widths))
    half_w_mu = tuple(0.5 * wgt * mu for wgt, mu in zip(weights, means))
    moment = None
    if all(map(math.isfinite, (*half_w_mu, *(c for c, _, _ in bumps)))):
        weighted = erf_sum(half_w_mu)

        def moment(lo: float, hi: float) -> float:
            # exp(-a^2) - exp(-b^2) is taken as the exp at the end nearer the
            # mean times expm1 of b^2 - a^2 = (b - a)(b + a), so that a wide
            # kernel's difference does not cancel
            out = weighted(lo, hi)
            for c, mu, width in bumps:
                a, b = (lo - mu) / width, (hi - mu) / width
                rise = (hi - lo) / width * (a + b)
                if rise >= 0.0:
                    out -= c * exp(-a * a) * expm1(-rise)
                else:
                    out += c * exp(-b * b) * expm1(rise)
            return out

    def density(p: float) -> float:
        out = 0.0
        for coef, mu, sd in terms:
            z = (p - mu) / sd
            out += coef * exp(-0.5 * z * z)
        return out

    return _finish(density, f"gaussian_mixture(k={len(weights)})", exact,
                   floor=_mixture_floor(terms), exact_moment=moment)


def _mixture_floor(terms) -> float:
    # A float lower bound of the mixture density on [0, 1], or 0.0. With every
    # coefficient wgt * C / sd finite, no term is NaN, and a float sum of
    # finite nonnegative terms is at least its largest term. Rounding keeps
    # order, so |p - mu|, |z| and z * z are largest, and exp's argument
    # least, at the end of [0, 1] farther from the mean. exp is within one
    # ulp of the correctly rounded value, so at any p it returns at least
    # the float two below what it returns at that end, and the product with
    # the coefficient keeps the order.
    floor = 0.0
    for coef, mu, sd in terms:
        if coef == math.inf:  # inf * exp(...) is NaN where exp underflows
            return 0.0
        z = max(abs(0.0 - mu), abs(1.0 - mu)) / sd
        far = math.nextafter(math.nextafter(math.exp(-0.5 * z * z), 0.0), 0.0)
        floor = max(floor, coef * far)
    return floor


# --------------------------------------------------------------------------
# tabulated and scaled
# --------------------------------------------------------------------------

def tabulated(knots: Sequence[tuple[float, float]]) -> BeliefMeasure:
    """Piecewise-linear density through (belief, value) knots spanning [0, 1].

    Knot beliefs must be strictly increasing with first 0 and last 1; every
    value must be positive, and no piece may fall so steeply (by a factor of
    about 2**53) that its float interpolant rounds to zero. Together these
    keep the density positive at every float p. Each piece's slope must be
    finite, or its cumulative would be NaN at its left knot. The last knot
    starts a flat piece, so the total at p = 1 needs no branch; mass()
    rejects a p outside [0, 1].
    """
    pts = [(float(p), float(v)) for p, v in knots]
    if not all(math.isfinite(x) for pt in pts for x in pt):
        raise DomainError("tabulated knots must be finite")
    if len(pts) < 2:
        raise DomainError("tabulated density needs at least two knots")
    xs = [p for p, _ in pts]
    vs = [v for _, v in pts]
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise DomainError("tabulated knots must start at 0 and end at 1")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise DomainError("tabulated knot beliefs must be strictly increasing")
    if any(v <= 0.0 for v in vs):
        raise DomainError("tabulated knot values must be positive")
    # t <= 1, so on a falling piece the float interpolant a + t (b - a) never
    # drops below its value a + (b - a) at t = 1, and on a rising one never
    # below a; at p = 1 the density is the last value
    floor = min(vs[-1], *(a + (b - a) if b < a else a for a, b in zip(vs, vs[1:])))
    if floor <= 0.0:
        raise DomainError("tabulated knot values fall too steeply for a positive interpolant")

    def density(p: float) -> float:
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"belief must lie in [0,1], got {p}")
        i = bisect_right(xs, p)
        if i >= len(xs):
            return vs[-1]
        t = (p - xs[i - 1]) / (xs[i] - xs[i - 1])
        return vs[i - 1] + t * (vs[i] - vs[i - 1])

    # mass below each knot (the trapezoid rule is exact on each linear piece)
    # and each piece's slope; within a piece the cumulative is quadratic
    heads, slopes = [0.0], []
    for i in range(1, len(xs)):
        heads.append(heads[-1] + 0.5 * (vs[i - 1] + vs[i]) * (xs[i] - xs[i - 1]))
        slopes.append((vs[i] - vs[i - 1]) / (xs[i] - xs[i - 1]))
    if not all(math.isfinite(slope) for slope in slopes):
        raise DomainError("tabulated knots make a piece too steep: its slope overflows")
    slopes.append(0.0)  # the last knot's piece, where d = 0: heads[-1] + 0.0
    # each piece's cumulative is capped at its right knot's, as from_density
    # caps its pieces: on a falling piece head + d (v + s d / 2) can round an
    # ulp above it just left of the knot, and a mass up to 1 would go negative
    ends = heads[1:] + heads[-1:]

    def cumulative(p: float) -> float:
        i = bisect_right(xs, p) - 1
        d = p - xs[i]
        c, end = heads[i] + d * (vs[i] + 0.5 * slopes[i] * d), ends[i]
        return end if c > end else c  # a NaN stays NaN, as in np.minimum

    xs_a, heads_a, vs_a = np.array(xs), np.array(heads), np.array(vs)
    slopes_a, ends_a = np.array(slopes), np.array(ends)

    def cumulative_array(p: np.ndarray) -> np.ndarray:
        # cumulative elementwise, same operations in the same order
        i = np.searchsorted(xs_a, p, side="right") - 1
        d = p - xs_a[i]
        return np.minimum(heads_a[i] + d * (vs_a[i] + 0.5 * slopes_a[i] * d), ends_a[i])

    return _finish(density, f"tabulated(k={len(pts)})",
                   *_interval_masses(cumulative, cumulative_array), floor)


def scaled(base: BeliefMeasure, factor: float) -> BeliefMeasure:
    """The base measure with all wealth multiplied by factor > 0."""
    if not 0.0 < factor < math.inf:
        raise DomainError(f"scale factor must be positive and finite, got {factor}")
    base_density, base_mass, base_mass_array, base_moment = (
        base.density, base.exact_mass, base.exact_mass_array, base.exact_moment)
    # rounding is monotone, so factor * base.density(p) >= factor * base.floor;
    # a tiny factor can underflow that product to 0.0, and then it is scanned
    return _finish(lambda p: factor * base_density(p),
                   f"scaled({base.kind}, factor={factor})",
                   lambda lo, hi: factor * base_mass(lo, hi),
                   lambda lo, hi: factor * base_mass_array(lo, hi), factor * base.floor,
                   exact_moment=None if base_moment is None
                   else lambda lo, hi: factor * base_moment(lo, hi))
