"""Decision procedures for noise integrability and solution existence.

* ``rr_integrability`` decides whether a deterministic integrand f is
  integrable against the noise in the sense of Rajput & Rosinski (1989).
  Each part of the triplet asks f for one L^q exponent: q = 1 for a drift
  b != 0, q = 2 for a Gaussian part sigma > 0, and for an infinite-activity
  jump measure its small-jump index, because the jump integrand
  int (|z w|^2 ^ 1) nu(dz) grows like w^index (like log w at index 0); a
  finite measure asks for none.  f passes when ``lq_finite`` holds at every
  exponent, which each descriptor decides analytically, never by quadrature.

* ``green_kernel_integrability`` applies that rule to the untruncated Green
  kernel G_gamma(centre, .), described by its diagonal singularity
  |x - centre|^(2 gamma - d).  At gamma = 1 this is the classical rule for
  second-order operators: any triplet at d <= 3, and at d >= 4 sigma = 0
  with a small-jump index below d/(d-2).

* ``existence_verdict`` is the spectral threshold: a mild solution exists
  iff gamma > d/4 (all inequalities strict).  The verdict also carries the
  regularity ceiling r_max = 2 gamma - d/2 and the continuity flag.  For
  noise with jumps that flag is gamma > d/2, the paper's sufficient
  condition: an atom z at y adds z G_gamma(., y), which is unbounded at y
  unless gamma > d/2.  Without jumps (nu = 0) the field is Gaussian with
  E|u(x) - u(y)|^2 = O(|x - y|^min(4 gamma - d, 2)), so by
  Kolmogorov-Chentsov it is continuous wherever it exists, and the flag is
  existence itself.  Every exponent the kernel rule asks for is at most 2, so
  existence implies kernel integrability; for pure-jump noise the converse
  can fail, and the threshold stays the gate.  A triplet with no random part
  (sigma = 0, nu = 0) is not white noise: its solution is the deterministic
  u = b (-Laplace)^(-gamma) 1.  The Dirichlet coefficients of 1 on a box
  decay like prod 1/k_i, so 1 lies in H^s for every s < 1/2 at every d, and
  u exists for every gamma > 0 with r_max = 2 gamma + 1/2.  It is
  continuous too: (-Laplace)^(-gamma) 1 is (1 / Gamma(gamma)) int_0^inf
  t^(gamma - 1) e^(t Laplace) 1 dt, a uniformly convergent integral of
  continuous functions bounded by 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import HyperBox
from .functions import RadialPower, lq_finite
from .measures import LevyTriplet


@dataclass(frozen=True)
class IntegrabilityReport:
    """The L^q exponents the noise asks of an integrand, and the verdict."""

    exponents: tuple[float, ...]
    verdict: bool

    def to_dict(self) -> dict:
        return {"exponents": list(self.exponents), "verdict": self.verdict}


@dataclass(frozen=True)
class ExistenceVerdict:
    """Threshold verdict for one (dimension, gamma, noise) combination."""

    d: int
    gamma: float
    triplet: LevyTriplet
    exists: bool
    r_max: float
    continuous: bool

    def __post_init__(self):
        if self.continuous and not self.exists:
            raise ValueError("continuity implies existence; inconsistent verdict")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "gamma": self.gamma,
            "triplet": self.triplet.to_dict(),
            "exists": self.exists,
            "r_max": self.r_max,
            "continuous": self.continuous,
        }


def rr_integrability(f, triplet: LevyTriplet, box: HyperBox) -> IntegrabilityReport:
    """Whether the noise integrates f: f lies in L^q(box) at every exponent the triplet asks for."""
    exponents = []
    if triplet.b != 0.0:
        exponents.append(1.0)
    if triplet.sigma != 0.0:
        exponents.append(2.0)
    if not math.isfinite(triplet.measure.tail_mass(0.0)):
        exponents.append(float(triplet.measure.small_jump_index))
    return IntegrabilityReport(tuple(exponents), all(lq_finite(f, box, q) for q in exponents))


def green_kernel_integrability(box: HyperBox, gamma: float, triplet: LevyTriplet) -> IntegrabilityReport:
    """``rr_integrability`` of G_gamma(centre, .) through its singularity |x - centre|^(2 gamma - d)."""
    centre = tuple(0.5 * (box.lower + box.upper))
    return rr_integrability(RadialPower(2.0 * gamma - box.dim, centre), triplet, box)


def existence_verdict(d: int, gamma: float, triplet: LevyTriplet) -> ExistenceVerdict:
    """Existence, Sobolev ceiling and continuity for one configuration."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    g = float(gamma)
    if g <= 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    no_jumps = triplet.measure.tail_mass(0.0) == 0.0
    if no_jumps and triplet.sigma == 0.0:
        # No random part: u = b (-Laplace)^(-gamma) 1, in H^r for r < 2 gamma + 1/2.
        return ExistenceVerdict(d, g, triplet, True, 2.0 * g + 0.5, True)
    exists = g > d / 4.0
    # Without jumps the field is Gaussian and continuous wherever it exists.
    continuous = exists if no_jumps else g > d / 2.0
    return ExistenceVerdict(d, g, triplet, exists, 2.0 * g - d / 2.0, continuous)
