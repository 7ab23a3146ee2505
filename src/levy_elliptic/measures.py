"""Symmetric Levy measures: exact integrals, exponents, and jump samplers.

The measure families form a closed enumeration rather than a pluggable
density, because correct jump sampling and divergence detection need exact
tail formulas:

* ``AlphaStable(alpha)`` -- density (alpha/2) |z|^(-alpha-1), alpha in (0,2).
* ``SymmetricTwoPoint(rate, magnitude)`` -- rate * (delta_{+a} + delta_{-a}) / 2.
* ``VarianceGamma(c, m)`` -- density (c/|z|) exp(-m |z|).
* ``NullMeasure`` -- no jumps.

All families are symmetric under z -> -z, and every integral used by the
rest of the package (tail mass, truncated second moments, small-jump
p-moments, cosine exponents) has a closed form here.  Divergent integrals
are flagged by the analytic criterion (e.g. p <= alpha for the stable
family), never by watching quadrature blow up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class AlphaStable:
    """Symmetric alpha-stable jump measure with density (alpha/2)|z|^(-alpha-1)."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")


@dataclass(frozen=True)
class SymmetricTwoPoint:
    """Two equal atoms at +/- magnitude with total mass ``rate``."""

    rate: float
    magnitude: float

    def __post_init__(self):
        if self.rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.magnitude <= 0.0:
            raise ValueError(f"magnitude must be > 0, got {self.magnitude}")


@dataclass(frozen=True)
class VarianceGamma:
    """Symmetric variance-gamma jump measure with density (c/|z|) exp(-m|z|)."""

    c: float
    m: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if self.m <= 0.0:
            raise ValueError(f"m must be > 0, got {self.m}")


@dataclass(frozen=True)
class NullMeasure:
    """The zero measure: a noise with no jump component."""


LevyMeasure = Union[AlphaStable, SymmetricTwoPoint, VarianceGamma, NullMeasure]


@dataclass(frozen=True)
class LevyTriplet:
    """Noise law (b, sigma, nu): drift, Gaussian scale, jump measure.

    Constructing a triplet checks sigma >= 0 and evaluates the defining
    integral of a Levy measure, int (z^2 ^ 1) nu(dz) < infinity, through
    the closed forms below.
    """

    b: float
    sigma: float
    measure: LevyMeasure

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        check = truncated_variance(self.measure, 1.0) + tail_mass(self.measure, 1.0)
        if not math.isfinite(check):
            raise ValueError("measure violates the Levy integrability condition")


@dataclass(frozen=True)
class NuStats:
    """Tail mass above eps, variance below eps, and p-moment below 1."""

    tail_mass: float
    small_variance: float
    p_moment_small: float


def tail_mass(measure: LevyMeasure, radius: float) -> float:
    """nu({|z| > radius}).  Infinite for infinite-activity families at radius 0."""
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    if isinstance(measure, NullMeasure):
        return 0.0
    if isinstance(measure, SymmetricTwoPoint):
        return measure.rate if measure.magnitude > radius else 0.0
    if radius == 0.0:
        return math.inf
    if isinstance(measure, AlphaStable):
        return radius ** (-measure.alpha)
    if isinstance(measure, VarianceGamma):
        from scipy.special import exp1

        return 2.0 * measure.c * exp1(measure.m * radius)
    raise TypeError(f"unknown measure {measure!r}")


def truncated_variance(measure: LevyMeasure, radius: float) -> float:
    """int_{|z| <= radius} z^2 nu(dz)."""
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    if isinstance(measure, NullMeasure) or radius == 0.0:
        return 0.0
    if isinstance(measure, SymmetricTwoPoint):
        a = measure.magnitude
        return measure.rate * a * a if a <= radius else 0.0
    if isinstance(measure, AlphaStable):
        a = measure.alpha
        return a * radius ** (2.0 - a) / (2.0 - a)
    if isinstance(measure, VarianceGamma):
        mr = measure.m * radius
        return 2.0 * measure.c * (-math.expm1(-mr) - mr * math.exp(-mr)) / measure.m**2
    raise TypeError(f"unknown measure {measure!r}")


def band_variance(measure: LevyMeasure, lo: float, hi: float = 1.0) -> float:
    """int_{lo < |z| <= hi} z^2 nu(dz)."""
    if not 0.0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    return truncated_variance(measure, hi) - truncated_variance(measure, lo)


def small_moment(measure: LevyMeasure, p: float) -> float:
    """int_{|z| <= 1} |z|^p nu(dz); math.inf when the integral diverges."""
    if p <= 0.0:
        raise ValueError(f"p must be > 0, got {p}")
    if isinstance(measure, NullMeasure):
        return 0.0
    if isinstance(measure, SymmetricTwoPoint):
        a = measure.magnitude
        return measure.rate * a**p if a <= 1.0 else 0.0
    if isinstance(measure, AlphaStable):
        a = measure.alpha
        if p <= a:
            return math.inf
        return a / (p - a)
    if isinstance(measure, VarianceGamma):
        from scipy import special

        c, m = measure.c, measure.m
        # 2c int_0^1 z^(p-1) e^(-mz) dz = 2c Gamma(p) P(p, m) / m^p
        return 2.0 * c * special.gamma(p) * special.gammainc(p, m) / m**p
    raise TypeError(f"unknown measure {measure!r}")


def nu_stats(measure: LevyMeasure, eps: float, p: float) -> NuStats:
    """Tail mass, small-jump variance and small-jump p-moment at level eps.

    ``eps`` must lie in (0, 1]; the p-moment is always taken over |z| <= 1.
    Divergent p-moments are reported as math.inf.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return NuStats(
        tail_mass=tail_mass(measure, eps),
        small_variance=truncated_variance(measure, eps),
        p_moment_small=small_moment(measure, p),
    )


def _stable_cos_constant(alpha: float) -> float:
    # int_R (1 - cos uz) (alpha/2)|z|^(-1-alpha) dz = C(alpha) |u|^alpha with
    # C(alpha) = Gamma(2-alpha) cos(pi alpha / 2) / (1 - alpha).  The sinc
    # form below is smooth through alpha = 1 where the quotient is 0/0.
    t = alpha - 1.0
    return math.gamma(2.0 - alpha) * (math.pi / 2.0) * np.sinc(t / 2.0)


def jump_exponent(measure: LevyMeasure, u):
    """int (cos(uz) - 1) nu(dz), the jump part of the exponent (closed form).

    ``u`` may be a scalar or an array; the result has its shape.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(measure, NullMeasure):
        out = np.zeros_like(u)
    elif isinstance(measure, SymmetricTwoPoint):
        out = measure.rate * (np.cos(u * measure.magnitude) - 1.0)
    elif isinstance(measure, AlphaStable):
        out = -_stable_cos_constant(measure.alpha) * np.abs(u) ** measure.alpha
    elif isinstance(measure, VarianceGamma):
        out = -measure.c * np.log1p((u / measure.m) ** 2)
    else:
        raise TypeError(f"unknown measure {measure!r}")
    return out[()]


def jump_exponent_quadrature(measure: LevyMeasure, u: float, tol: float = 1e-10) -> float:
    """Adaptive-quadrature evaluation of int (cos(uz) - 1) nu(dz).

    An independent route to cross-check the closed forms.  In t = |u| z the
    integral runs over (0, 1] in doubling pieces from min(|u|, 1), where
    cos t - 1 = -2 sin^2(t/2) keeps its relative precision at small t, and
    over the oscillatory tail (1, inf) with a cosine-weighted rule; so a
    small |u| neither shrinks the oscillation nor spreads the mass of nu
    over an interval far longer than the rule can see.
    """
    from scipy import integrate

    if isinstance(measure, NullMeasure):
        return 0.0
    if isinstance(measure, SymmetricTwoPoint):
        # Purely atomic: quadrature degenerates to the exact sum.
        return jump_exponent(measure, u)
    u = abs(float(u))
    if isinstance(measure, AlphaStable):
        a = measure.alpha

        def density(t):  # both half-lines folded onto (0, inf), in t = u z
            return a * u**a * t ** (-1.0 - a)

    elif isinstance(measure, VarianceGamma):
        c, m = measure.c, measure.m

        def density(t):
            return 2.0 * c * np.exp(-m * t / u) / t

    else:
        raise TypeError(f"unknown measure {measure!r}")
    if u == 0.0:
        return 0.0

    edges = [0.0, min(u, 1.0)]
    while edges[-1] < 1.0:
        edges.append(min(2.0 * edges[-1], 1.0))
    head = sum(
        integrate.quad(lambda t: -2.0 * np.sin(0.5 * t) ** 2 * density(t), lo, hi, epsabs=0.0, epsrel=tol)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    mass = integrate.quad(density, 1.0, np.inf, epsabs=0.0, epsrel=tol)[0]
    if mass == 0.0:
        return head
    # The weighted rule takes an absolute tolerance only: scale it by the mass.
    osc = integrate.quad(density, 1.0, np.inf, weight="cos", wvar=1.0, epsabs=tol * mass, limit=400)[0]
    return head + osc - mass


def characteristic_exponent(triplet: LevyTriplet, u):
    """Exponent of the noise law per unit volume at frequency u.

    Returns i*b*u - sigma^2 u^2 / 2 + int (cos(uz) - 1) nu(dz); the jump
    integral is real because every supported measure is symmetric, so the
    imaginary part equals b*u exactly.  ``u`` may be a scalar or an array.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"u must be finite, got {u}")
    real = -0.5 * triplet.sigma**2 * u * u + jump_exponent(triplet.measure, u)
    return (real + 1j * (triplet.b * u))[()]


def sample_jump_sizes(
    measure: LevyMeasure,
    lo: float,
    rng: np.random.Generator,
    size: int | None = None,
    hi: float = math.inf,
):
    """Draw jump sizes from nu restricted to {lo < |z| <= hi}, normalized.

    Signs are symmetric by construction.  Magnitudes use the inverse-tail
    transform (stable), the atom itself (two-point), or rejection against a
    shifted exponential envelope (variance-gamma).  Raises when the range
    carries no mass or infinite mass.
    """
    if not 0.0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    n = 1 if size is None else int(size)
    mass = tail_mass(measure, lo) - tail_mass(measure, hi)
    if mass == 0.0:
        raise ValueError("no jumps above threshold")
    if not math.isfinite(mass):
        raise ValueError("infinite jump intensity above threshold; use eps > 0")

    if isinstance(measure, SymmetricTwoPoint):
        mags = np.full(n, measure.magnitude)
    elif isinstance(measure, AlphaStable):
        # Inverse of the band tail t^-alpha - hi^-alpha; r = 0 when hi = inf.
        a = measure.alpha
        r = (lo / hi) ** a
        mags = lo * (r + (1.0 - r) * rng.random(n)) ** (-1.0 / a)
    elif isinstance(measure, VarianceGamma):
        mags = _vg_magnitudes(measure, lo, hi, rng, n)
    else:  # pragma: no cover - guarded by tail_mass above
        raise TypeError(f"unknown measure {measure!r}")

    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    out = signs * mags
    return out[0] if size is None else out


def sample_band_jump_sizes(
    measure: LevyMeasure, lo: float, hi: float, rng: np.random.Generator, size: int | None = None
):
    """``sample_jump_sizes(measure, lo, rng, size, hi)``.  Nothing in the package
    calls it; it stays only while ``perfbench/tracer.py`` traces it by name."""
    return sample_jump_sizes(measure, lo, rng, size, hi)


def _vg_magnitudes(measure: VarianceGamma, lo: float, hi: float, rng, n: int) -> np.ndarray:
    # Density on (lo, inf) is proportional to z^-1 e^(-mz), dominated by the
    # shifted exponential m e^(-m(z-lo)) with acceptance ratio lo / z; a
    # finite hi rejects the proposals above it too.
    from scipy.special import exp1

    m = measure.m
    band_share = 1.0 - tail_mass(measure, hi) / tail_mass(measure, lo)
    accept_rate = max(lo * m * math.exp(m * lo) * exp1(m * lo) * band_share, 1e-3)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        batch = min(int(todo / accept_rate) + 16, 10_000_000)
        prop = lo + rng.exponential(scale=1.0 / m, size=batch)
        keep = prop[(rng.random(batch) * prop < lo) & (prop <= hi)]
        take = keep[: todo]
        out[filled : filled + take.size] = take
        filled += take.size
    return out


def measure_to_dict(measure: LevyMeasure) -> dict:
    """JSON-friendly encoding used by config files and manifests."""
    if isinstance(measure, AlphaStable):
        return {"kind": "alpha_stable", "alpha": measure.alpha}
    if isinstance(measure, SymmetricTwoPoint):
        return {"kind": "two_point", "rate": measure.rate, "magnitude": measure.magnitude}
    if isinstance(measure, VarianceGamma):
        return {"kind": "variance_gamma", "c": measure.c, "m": measure.m}
    if isinstance(measure, NullMeasure):
        return {"kind": "null"}
    raise TypeError(f"unknown measure {measure!r}")


def measure_from_dict(data: dict) -> LevyMeasure:
    kind = data.get("kind")
    if kind == "alpha_stable":
        return AlphaStable(alpha=float(data["alpha"]))
    if kind == "two_point":
        return SymmetricTwoPoint(rate=float(data["rate"]), magnitude=float(data["magnitude"]))
    if kind == "variance_gamma":
        return VarianceGamma(c=float(data["c"]), m=float(data["m"]))
    if kind == "null":
        return NullMeasure()
    raise ValueError(f"unknown measure kind {kind!r}")
