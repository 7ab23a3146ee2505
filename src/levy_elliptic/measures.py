"""Symmetric Levy measures: one frozen dataclass per family.

The families form a closed enumeration rather than a pluggable density,
because correct jump sampling and divergence detection need exact tail
formulas:

* ``AlphaStable(alpha)`` -- density (alpha/2) |z|^(-alpha-1), alpha in (0,2).
* ``SymmetricTwoPoint(rate, magnitude)`` -- rate * (delta_{+a} + delta_{-a}) / 2.
* ``VarianceGamma(c, m)`` -- density (c/|z|) exp(-m |z|).
* ``NullMeasure`` -- no jumps.

Everything that depends on the family lives on its class (see
``LevyMeasure``): closed-form tail mass and truncated variance, the jump
exponent, the density that the reference quadrature integrates, the band
magnitude sampler, the small-jump index and the config shape.  All
families are symmetric under z -> -z.  Integrability verdicts read only
the tail mass at 0 and the small-jump index (e.g. int |f|^alpha < infinity
for the stable family), so divergence is decided analytically, never by
watching quadrature blow up.

A new family is one class here plus one row in ``FAMILIES``: its ``kind``
names it in config objects, and its shorthand ``head:a,b`` takes the
fields in declaration order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, ClassVar

import numpy as np

from . import _rng
from ._checks import ConfigError, as_number, reported_at


class LevyMeasure:
    """Base of the families: the methods every family defines.

    ``kind`` names the family in config objects and ``heads`` adds short
    names for the ``head:a,b`` shorthand.  ``density`` is None for purely
    atomic families; others define it as a method.
    """

    kind: ClassVar[str]
    heads: ClassVar[tuple[str, ...]] = ()
    density: Callable | None = None
    small_jump_index: float = 0.0  # inf of p with int_{|z|<=1} |z|^p nu(dz) < infinity

    def tail_mass(self, radius: float) -> float:
        """nu({|z| > radius}), radius >= 0; infinite at 0 for infinite activity."""
        raise NotImplementedError

    def truncated_variance(self, radius: float) -> float:
        """int_{|z| <= radius} z^2 nu(dz), radius >= 0."""
        raise NotImplementedError

    def jump_exponent(self, u: np.ndarray) -> np.ndarray:
        """int (cos(uz) - 1) nu(dz) in closed form, elementwise over an array u."""
        raise NotImplementedError

    def band_magnitudes(self, lo: float, hi: float, u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Magnitudes |z| from nu restricted to {lo < |z| <= hi}, normalized, one per u.

        ``u`` holds each jump's first uniform, in (0, 1); a family that needs
        more draws takes them from ``rng``.  The result may be ``u`` itself,
        overwritten.
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-friendly encoding used by config files and manifests."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class AlphaStable(LevyMeasure):
    """Symmetric alpha-stable jump measure with density (alpha/2)|z|^(-alpha-1)."""

    alpha: float
    kind = "alpha_stable"
    heads = ("alpha", "stable")

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")

    @property
    def small_jump_index(self) -> float:
        return self.alpha

    def density(self, z):
        return 0.5 * self.alpha * z ** (-1.0 - self.alpha)

    def tail_mass(self, radius):
        return radius ** (-self.alpha) if radius > 0.0 else math.inf

    def truncated_variance(self, radius):
        a = self.alpha
        return a * radius ** (2.0 - a) / (2.0 - a)

    def jump_exponent(self, u):
        return -_stable_cos_constant(self.alpha) * np.abs(u) ** self.alpha

    def band_magnitudes(self, lo, hi, u, rng):
        # Inverse of the band tail t^-alpha - hi^-alpha, in place; r = 0 when
        # hi = inf, where the affine map below is the identity and is skipped.
        # v^(-1/alpha) as exp(log(v) (-1/alpha)): on a 2.1 GHz Xeon 0.06 ms a
        # block of 2^14 against 0.08 ms for v ** (-1/alpha).  exp scales the
        # rounding of its argument by |log v| / alpha <= 37 / alpha, so the
        # largest magnitudes are within about 37 / alpha ulp (the power: 18).
        a = self.alpha
        if hi != math.inf:
            r = (lo / hi) ** a
            u *= 1.0 - r
            u += r
        np.log(u, out=u)
        u *= -1.0 / a
        np.exp(u, out=u)
        u *= lo
        return u


@dataclass(frozen=True)
class SymmetricTwoPoint(LevyMeasure):
    """Two equal atoms at +/- magnitude with total mass ``rate``."""

    rate: float
    magnitude: float
    kind = "two_point"
    heads = ("twopoint",)

    def __post_init__(self):
        if self.rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.magnitude <= 0.0:
            raise ValueError(f"magnitude must be > 0, got {self.magnitude}")

    def tail_mass(self, radius):
        return self.rate if self.magnitude > radius else 0.0

    def truncated_variance(self, radius):
        a = self.magnitude
        return self.rate * a * a if a <= radius else 0.0

    def jump_exponent(self, u):
        return self.rate * (np.cos(u * self.magnitude) - 1.0)

    def band_magnitudes(self, lo, hi, u, rng):
        u.fill(self.magnitude)
        return u


@dataclass(frozen=True)
class VarianceGamma(LevyMeasure):
    """Symmetric variance-gamma jump measure with density (c/|z|) exp(-m|z|)."""

    c: float
    m: float
    kind = "variance_gamma"
    heads = ("vgamma",)

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if self.m <= 0.0:
            raise ValueError(f"m must be > 0, got {self.m}")

    def density(self, z):
        return self.c * np.exp(-self.m * z) / z

    def tail_mass(self, radius):
        from scipy.special import exp1

        return 2.0 * self.c * exp1(self.m * radius)

    def truncated_variance(self, radius):
        mr = self.m * radius
        return 2.0 * self.c * (-math.expm1(-mr) - mr * math.exp(-mr)) / self.m**2

    def jump_exponent(self, u):
        return -self.c * np.log1p((u / self.m) ** 2)

    def band_magnitudes(self, lo, hi, u, rng):
        # The density z^-1 e^(-mz) on (lo, hi] splits at c = min(max(lo, 1/m), hi).
        # On (lo, c] log-uniform proposals are kept with probability
        # e^(-m(z-lo)) >= 1/e; on (c, hi] proposals c + Exp(m), truncated at hi,
        # are kept with probability c/z, which is at least 0.59 on average since
        # mc >= 1.  Each draw's piece is fixed first, by u with the piece's E1
        # mass as its weight: picking the piece again after a rejection would
        # bias the law.  So draws stay i.i.d. in draw order.
        from scipy.special import exp1

        m = self.m
        c = min(max(lo, 1.0 / m), hi)
        e_lo, e_c, e_hi = exp1(m * lo), exp1(m * c), exp1(m * hi)
        below = u * (e_lo - e_hi) < e_lo - e_c
        n_below = int(np.count_nonzero(below))
        span, cut = math.log(c / lo), -math.expm1(-m * (hi - c))
        out = np.empty(len(u))
        out[below] = _rejection_draws(rng, n_below, lambda v: lo * np.exp(span * v), lambda z: np.exp(-m * (z - lo)))
        out[~below] = _rejection_draws(rng, len(u) - n_below, lambda v: c - np.log1p(-cut * v) / m, lambda z: c / z)
        return out


def _rejection_draws(rng, n, propose, keep_probability):
    """n i.i.d. draws in order: proposals propose(U), each kept with keep_probability(z)."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        batch = 2 * (n - filled) + 16
        z = propose(rng.random(batch))
        take = z[rng.random(batch) < keep_probability(z)][: n - filled]
        out[filled : filled + take.size] = take
        filled += take.size
    return out


@dataclass(frozen=True)
class NullMeasure(LevyMeasure):
    """The zero measure: a noise with no jump component."""

    kind = "null"

    def tail_mass(self, radius):
        return 0.0

    def truncated_variance(self, radius):
        return 0.0

    def jump_exponent(self, u):
        return np.zeros_like(u)


# The registry: config kind -> family class.
FAMILIES: dict[str, type[LevyMeasure]] = {
    cls.kind: cls for cls in (AlphaStable, SymmetricTwoPoint, VarianceGamma, NullMeasure)
}
_HEADS = {head: cls for cls in FAMILIES.values() for head in (cls.kind, *cls.heads)}


def parse_measure(spec: dict | str, path: str = "measure") -> LevyMeasure:
    """A measure from its config object or from its shorthand.

    The object is ``{"kind": KIND, FIELD: number, ...}`` with exactly the
    family's fields; the shorthand is ``head:a,b`` with the fields in
    declaration order (``alpha:1.5``, ``twopoint:1,0.5``, ``vgamma:1,1``,
    ``null``).  Raises ConfigError naming the offending key under ``path``.
    """
    if isinstance(spec, str):
        head, _, rest = spec.partition(":")
        cls = _HEADS.get(head.strip().lower())
        if cls is None:
            raise ConfigError(path, f"unknown measure shorthand {spec!r}")
        names = [f.name for f in fields(cls)]
        try:
            args = [float(arg) for arg in rest.split(",")] if rest else []
        except ValueError:
            args = None
        if args is None or len(args) != len(names):
            shape = ":" + ",".join(names) if names else ""
            raise ConfigError(path, f"expected {head}{shape} with numbers, got {spec!r}")
        spec = {"kind": cls.kind, **dict(zip(names, args))}
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object or shorthand")
    cls = FAMILIES.get(spec.get("kind"))
    if cls is None:
        raise ConfigError(f"{path}.kind", f"unknown measure kind; one of {sorted(FAMILIES)}")
    names = [f.name for f in fields(cls)]
    for key in spec:
        if key != "kind" and key not in names:
            raise ConfigError(f"{path}.{key}", f"unknown key for {cls.kind}")
    for name in names:
        if name not in spec:
            raise ConfigError(f"{path}.{name}", f"missing parameter of {cls.kind}")
    return reported_at(path, cls, *(as_number(spec[name], f"{path}.{name}") for name in names))


@dataclass(frozen=True)
class LevyTriplet:
    """Noise law (b, sigma, nu): drift, Gaussian scale, jump measure.

    Constructing a triplet checks sigma >= 0 and evaluates the defining
    integral of a Levy measure, int (z^2 ^ 1) nu(dz) < infinity, through
    the closed forms above.
    """

    b: float
    sigma: float
    measure: LevyMeasure

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        check = self.measure.truncated_variance(1.0) + self.measure.tail_mass(1.0)
        if not math.isfinite(check):
            raise ValueError("measure violates the Levy integrability condition")

    def to_dict(self) -> dict:
        return {"b": self.b, "sigma": self.sigma, "measure": self.measure.to_dict()}


def check_band(lo: float, hi: float) -> None:
    """A band lo < |z| <= hi of jump sizes needs 0 <= lo < hi."""
    if not 0.0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")


def band_variance(measure: LevyMeasure, lo: float, hi: float = 1.0) -> float:
    """int_{lo < |z| <= hi} z^2 nu(dz)."""
    check_band(lo, hi)
    return measure.truncated_variance(hi) - measure.truncated_variance(lo)


def _stable_cos_constant(alpha: float) -> float:
    # int_R (1 - cos uz) (alpha/2)|z|^(-1-alpha) dz = C(alpha) |u|^alpha with
    # C(alpha) = Gamma(2-alpha) cos(pi alpha / 2) / (1 - alpha).  The sinc
    # form below is smooth through alpha = 1 where the quotient is 0/0.
    t = alpha - 1.0
    return math.gamma(2.0 - alpha) * (math.pi / 2.0) * np.sinc(t / 2.0)


def jump_exponent_quadrature(measure: LevyMeasure, u: float, tol: float = 1e-10) -> float:
    """Adaptive-quadrature evaluation of int (cos(uz) - 1) nu(dz).

    An independent route to cross-check the closed forms: it integrates the
    family's density, not its exponent.  In t = |u| z the integral runs over
    (0, 1] in doubling pieces from min(|u|, 1), where cos t - 1 =
    -2 sin^2(t/2) keeps its relative precision at small t, and over the
    oscillatory tail (1, inf) with a cosine-weighted rule; so a small |u|
    neither shrinks the oscillation nor spreads the mass of nu over an
    interval far longer than the rule can see.
    """
    from scipy import integrate

    if measure.density is None:
        # Purely atomic: quadrature degenerates to the exact sum.
        return float(measure.jump_exponent(np.asarray(u, dtype=float)))
    u = abs(float(u))
    if u == 0.0:
        return 0.0

    def density(t):  # both half-lines folded onto (0, inf), in t = u z
        return 2.0 * measure.density(t / u) / u

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
    non_finite = int(np.count_nonzero(~np.isfinite(u)))
    if non_finite:
        raise ValueError(f"u must be finite, got {non_finite} non-finite of {u.size} values")
    real = -0.5 * triplet.sigma**2 * u * u + triplet.measure.jump_exponent(u)
    return (real + 1j * (triplet.b * u))[()]


def sample_jump_sizes(
    measure: LevyMeasure,
    lo: float,
    rng: np.random.Generator,
    size: int,
    hi: float = math.inf,
) -> np.ndarray:
    """Draw jump sizes from nu restricted to {lo < |z| <= hi}, normalized.

    In draw order: one raw word of ``rng`` per jump gives its first uniform
    and its sign (``_rng.uniforms_and_signs``); then the family's
    ``band_magnitudes`` maps the uniforms to magnitudes and draws any
    further words, as variance-gamma's rejection rounds do.  ``rng`` must
    run on PCG64.  Raises when the range carries no mass or infinite mass.
    A draw of size 0 takes no words.
    """
    check_band(lo, hi)
    mass = measure.tail_mass(lo) - measure.tail_mass(hi)
    if mass == 0.0:
        raise ValueError("no jumps above threshold")
    if not math.isfinite(mass):
        raise ValueError("infinite jump intensity above threshold; use eps > 0")
    u, signs = _rng.uniforms_and_signs(rng, int(size))
    mags = measure.band_magnitudes(lo, hi, u, rng)
    bits = mags.view(np.uint64)
    bits |= signs
    return mags


def sample_band_jump_sizes(
    measure: LevyMeasure, lo: float, hi: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``sample_jump_sizes(measure, lo, rng, size, hi)``.  Nothing in the package
    calls it; it stays only while ``perfbench/tracer.py`` traces it by name."""
    return sample_jump_sizes(measure, lo, rng, size, hi)

