"""Wealth measures describing the population of small bettors.

A measure assigns to each belief interval the total initial wealth of the
small bettors whose subjective probability of Outcome 1 lies in it. Every
supported measure has a continuous, everywhere-positive density on [0, 1];
construction rejects anything else, since a vanishing density or an atom
breaks both coverage and uniqueness of the market solution.

Where positivity comes from:
- wedge, symmetrized_wedge, uniform and tabulated: their parameter checks
  prove it, for the float density at every p, so nothing is sampled. The
  wedge order must lie in [1, 2**53], and neighbouring tabulated knot
  values must not fall so steeply that the interpolant rounds to zero.
- from_density, gaussian_mixture and scaled: sampled at 10,001 evenly
  spaced points at construction. A user density can vanish anywhere, a
  Gaussian kernel underflows far from its mean, and a tiny scale factor
  underflows the product.

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
exact_mass, and mass() only checks the interval before calling it. The
built-in families take it from their antiderivatives: piecewise
polynomials for the wedge families and tabulated densities, erf
differences for Gaussian mixtures, and the base's mass times the factor
for scaled. from_density, which wraps an arbitrary user density, runs
adaptive Simpson quadrature on each call. A measure whose total mass is
not finite is rejected at construction.

exact_mass_array is exact_mass over float64 arrays, element for element,
for the grid solver. By default it calls exact_mass on each element
through np.frompyfunc, so the bits are the same by construction. The
wedge families, which the take optimization runs on, pass their
antiderivative written over arrays, with the scalar one's constants and
operation order.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .quadrature import adaptive_simpson

POSITIVITY_GRID = 10_001


@dataclass(frozen=True)
class BeliefMeasure:
    """A finite measure on [0, 1] given by a positive continuous density.

    exact_mass(lo, hi) is the measure's interval mass for 0 <= lo < hi <= 1:
    a closed form for every built-in family, adaptive Simpson quadrature of
    the density for from_density. total_mass is exact_mass(0, 1).
    exact_mass_array(lo, hi) takes float64 arrays and returns, element for
    element, the bits exact_mass returns.
    """

    density: Callable[[float], float]
    total_mass: float
    kind: str
    exact_mass: Callable[[float, float], float] = field(repr=False, compare=False)
    exact_mass_array: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(
        repr=False, compare=False)

    def __repr__(self) -> str:  # density callables have no useful repr
        return f"BeliefMeasure(kind={self.kind!r}, total_mass={self.total_mass!r})"


def mass(m: BeliefMeasure, lo: float, hi: float) -> float:
    """Wealth held by bettors with beliefs in [lo, hi].

    Endpoint openness is immaterial because the measure has a density.
    """
    if not (0.0 <= lo <= hi <= 1.0):
        raise DomainError(f"mass requires 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    return m.exact_mass(lo, hi)


def _validate_density(density: Callable[[float], float], kind: str) -> None:
    # sampling check; continuity is guaranteed by the family constructions
    for i in range(POSITIVITY_GRID):
        p = i / (POSITIVITY_GRID - 1)
        if not density(p) > 0.0:
            raise DomainError(
                f"{kind}: density must be positive on [0,1], got {density(p)} at p={p}")


def _finish(density, kind, exact_mass, exact_mass_array=None) -> BeliefMeasure:
    total = exact_mass(0.0, 1.0)
    if not math.isfinite(total):  # e.g. knot values or weights near the float maximum
        raise DomainError(f"{kind}: total mass must be finite, got {total}")
    return BeliefMeasure(density=density, total_mass=total, kind=kind,
                         exact_mass=exact_mass,
                         exact_mass_array=exact_mass_array or _elementwise(exact_mass))


def _elementwise(exact_mass):
    # exact_mass called on each element pair of two float64 arrays
    ufunc = np.frompyfunc(exact_mass, 2, 1)
    return lambda lo, hi: ufunc(lo, hi).astype(float)


def from_density(density: Callable[[float], float], kind: str = "custom") -> BeliefMeasure:
    """Wrap an arbitrary positive continuous density (validated by sampling).

    Its masses are adaptive Simpson quadratures of the density, run afresh
    on every call.
    """
    _validate_density(density, kind)
    # adaptive_simpson is looked up at call time, so a wrapper swapped into
    # this module after construction still sees every quadrature
    return _finish(density, kind, lambda lo, hi: adaptive_simpson(density, lo, hi))


# --------------------------------------------------------------------------
# wedge family
# --------------------------------------------------------------------------

# Density of the wedge family: linear ramp below 1/n, constant 1/n above.
# For 1 <= n <= 2**53 the float result is at least 1.0/n at every p. The
# floats n - 1 and 2(n - 1) are exact, 2n(n - 1) is off by one rounding, and
# a float p below 1.0/n lies at least 2**-54 / n below 1/n, so the rounded
# ramp term never exceeds 2(n - 1) and the sum never drops below 1.0/n.
def _wedge_density(n: int, p: float) -> float:
    if p < 1.0 / n:
        return -2.0 * n * (n - 1) * p + 2.0 * (n - 1) + 1.0 / n
    return 1.0 / n


def _check_wedge_args(n: int) -> None:
    # bool is an int subclass, not an order; above 2**53 the order is no
    # longer an exact float, and the density loses its positivity proof
    if not (type(n) is int and 1 <= n <= 2**53):
        raise DomainError(f"wedge order must be an integer in [1, 2**53], got {n!r}")


def _wedge_antiderivative(n: int, p: float) -> float:
    cut = 1.0 / n
    if p <= cut:
        return -n * (n - 1) * p * p + (2.0 * (n - 1) + cut) * p
    head = (n - 1) / n + cut * cut  # integral of the ramp piece up to 1/n
    return head + (p - cut) * cut


def _wedge_antiderivative_array(n: int, p: np.ndarray) -> np.ndarray:
    # _wedge_antiderivative elementwise, same operations in the same order
    cut = 1.0 / n
    head = (n - 1) / n + cut * cut
    return np.where(p <= cut, -n * (n - 1) * p * p + (2.0 * (n - 1) + cut) * p,
                    head + (p - cut) * cut)


def wedge(n: int) -> BeliefMeasure:
    """Wedge measure of order n; total mass 1, wedge(1) is uniform."""
    _check_wedge_args(n)

    def exact(lo: float, hi: float) -> float:
        return _wedge_antiderivative(n, hi) - _wedge_antiderivative(n, lo)

    def exact_array(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return _wedge_antiderivative_array(n, hi) - _wedge_antiderivative_array(n, lo)

    return _finish(lambda p: _wedge_density(n, p), f"wedge(n={n})", exact, exact_array)


def uniform() -> BeliefMeasure:
    """Unit density on [0, 1]."""
    return _finish(lambda p: 1.0, "uniform", exact_mass=lambda lo, hi: hi - lo)


def symmetrized_wedge(n: int) -> BeliefMeasure:
    """Symmetric measure splitting the wedge's wealth between both extremes."""
    _check_wedge_args(n)

    def exact(lo: float, hi: float) -> float:
        fwd = _wedge_antiderivative(n, hi) - _wedge_antiderivative(n, lo)
        rev = _wedge_antiderivative(n, 1.0 - lo) - _wedge_antiderivative(n, 1.0 - hi)
        return 0.5 * (fwd + rev)

    def exact_array(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        cum = lambda p: _wedge_antiderivative_array(n, p)
        return 0.5 * ((cum(hi) - cum(lo)) + (cum(1.0 - lo) - cum(1.0 - hi)))

    return _finish(lambda p: 0.5 * (_wedge_density(n, p) + _wedge_density(n, 1.0 - p)),
                   f"symmetrized_wedge(n={n})", exact, exact_array)


# --------------------------------------------------------------------------
# gaussian mixture
# --------------------------------------------------------------------------

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gaussian_mixture(weights: Sequence[float], means: Sequence[float],
                     stddevs: Sequence[float]) -> BeliefMeasure:
    """Mixture-of-Gaussians measure; masses are exact erf differences.

    Kernel k contributes w_k/2 * (erf((hi - mu_k)/(sd_k*sqrt 2))
    - erf((lo - mu_k)/(sd_k*sqrt 2))) to the mass of [lo, hi].
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
    kernels = tuple((0.5 * wgt, mu, sd * math.sqrt(2.0))
                    for wgt, mu, sd in zip(weights, means, stddevs))

    def exact(lo: float, hi: float) -> float:
        out = 0.0
        for half_w, mu, width in kernels:
            out += half_w * (math.erf((hi - mu) / width) - math.erf((lo - mu) / width))
        return out

    def density(p: float) -> float:
        out = 0.0
        for wgt, mu, sd in zip(weights, means, stddevs):
            z = (p - mu) / sd
            out += wgt * _INV_SQRT_2PI / sd * math.exp(-0.5 * z * z)
        return out

    label = f"gaussian_mixture(k={len(weights)})"
    _validate_density(density, label)  # a kernel underflows far from its mean
    return _finish(density, label, exact_mass=exact)


# --------------------------------------------------------------------------
# tabulated and scaled
# --------------------------------------------------------------------------

def tabulated(knots: Sequence[tuple[float, float]]) -> BeliefMeasure:
    """Piecewise-linear density through (belief, value) knots spanning [0, 1].

    Knot beliefs must be strictly increasing with first 0 and last 1; every
    value must be positive, and no piece may fall so steeply (by a factor of
    about 2**53) that its float interpolant rounds to zero. Together these
    keep the density positive at every float p.
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
    # each piece's interpolant below at t = 1: on a falling piece the float
    # interpolant never drops below it, on a rising one never below the left value
    if any(a + (b - a) <= 0.0 for a, b in zip(vs, vs[1:])):
        raise DomainError("tabulated knot values fall too steeply for a positive interpolant")

    def density(p: float) -> float:
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"belief must lie in [0,1], got {p}")
        i = bisect_right(xs, p)
        if i >= len(xs):
            return vs[-1]
        if i == 0:
            return vs[0]
        t = (p - xs[i - 1]) / (xs[i] - xs[i - 1])
        return vs[i - 1] + t * (vs[i] - vs[i - 1])

    # mass below each knot (the trapezoid rule is exact on each linear piece)
    # and each piece's slope; within a piece the cumulative is quadratic
    heads, slopes = [0.0], []
    for i in range(1, len(xs)):
        heads.append(heads[-1] + 0.5 * (vs[i - 1] + vs[i]) * (xs[i] - xs[i - 1]))
        slopes.append((vs[i] - vs[i - 1]) / (xs[i] - xs[i - 1]))

    def cumulative(p: float) -> float:
        i = bisect_right(xs, p)
        if i >= len(xs):
            return heads[-1]
        d = p - xs[i - 1]
        return heads[i - 1] + d * (vs[i - 1] + 0.5 * slopes[i - 1] * d)

    return _finish(density, f"tabulated(k={len(pts)})",
                   exact_mass=lambda lo, hi: cumulative(hi) - cumulative(lo))


def scaled(base: BeliefMeasure, factor: float) -> BeliefMeasure:
    """The base measure with all wealth multiplied by factor > 0."""
    if not 0.0 < factor < math.inf:
        raise DomainError(f"scale factor must be positive and finite, got {factor}")
    base_mass = base.exact_mass
    density = lambda p: factor * base.density(p)
    label = f"scaled({base.kind}, factor={factor})"
    _validate_density(density, label)  # a tiny factor underflows the product
    return _finish(density, label, lambda lo, hi: factor * base_mass(lo, hi))
