"""Decision procedures for noise integrability and solution existence.

Two kinds of verdicts:

* ``rr_integrability`` evaluates the three defining integrals of
  noise-integrability for a deterministic integrand f: int |b f|,
  int |sigma f|^2, and the jump integral int int (|z f(x)|^2 ^ 1) dx nu(dz).
  The inner z-integral has a closed form for every supported measure via
  the split at |z| = 1/|f(x)|; divergent cases are decided analytically
  (for the stable family: finite iff int |f|^alpha < infinity), never by
  quadrature blow-up.

* ``existence_verdict`` encodes the threshold rules for the two operator
  modes: the spectral power of the Dirichlet Laplacian (mild solution
  exists iff gamma > d/4, all inequalities strict), and a Green-bound mode
  for second-order operators whose kernel singularity matches the
  Laplacian's (d <= 3: any triplet; d >= 4: sigma = 0 plus a small-jump
  p-moment for some p < d/(d-2)).  The verdict also carries the regularity
  ceiling r_max = 2 gamma - d/2 and the continuity flag gamma > d/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import HyperBox, box_integral
from .functions import (
    CallableFunction,
    UncertifiedFunctionError,
    abs_power_integral,
    lq_finite,
)
from .measures import LevyMeasure, LevyTriplet

GREEN_BOUND_MODE = "laplacian-green-bound"


@dataclass(frozen=True)
class IntegrabilityReport:
    """The three integrals of the integrability criterion and their verdict."""

    drift_integral: float
    gauss_integral: float
    jump_integral: float
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "drift_integral": self.drift_integral,
            "gauss_integral": self.gauss_integral,
            "jump_integral": self.jump_integral,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ExistenceVerdict:
    """Threshold verdict for one (dimension, operator, noise) combination."""

    d: int
    gamma: float | str
    triplet_summary: dict
    exists: bool
    p_required: tuple[float, float]
    r_max: float
    continuous: bool

    def __post_init__(self):
        if self.continuous and not self.exists:
            raise ValueError("continuity implies existence; inconsistent verdict")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "gamma": self.gamma,
            "triplet": self.triplet_summary,
            "exists": self.exists,
            "p_required": list(self.p_required),
            "r_max": self.r_max,
            "continuous": self.continuous,
        }


def _jump_integral_finite(measure: LevyMeasure, f, box: HyperBox) -> bool:
    """Analytic finiteness of the jump integral for the given integrand.

    A finite measure bounds J by its total mass.  Otherwise J(w) grows like
    w^index, with index the small-jump index; at index 0 only
    logarithmically, so any integrable power singularity keeps the
    x-integral finite.
    """
    if math.isfinite(measure.tail_mass(0.0)):
        return True
    index = measure.small_jump_index
    finite = lq_finite(f, box, index if index > 0.0 else 1e-3)
    if finite is None:
        raise UncertifiedFunctionError("cannot decide the jump integral for an uncertified callable")
    return finite


def rr_integrability(
    f,
    triplet: LevyTriplet,
    box: HyperBox,
    drift_tol: float = 1e-8,
    gauss_tol: float = 1e-8,
    jump_tol: float = 1e-6,
) -> IntegrabilityReport:
    """Evaluate the three-part integrability criterion for integrand f."""
    if isinstance(f, CallableFunction) and not f.certified:
        raise UncertifiedFunctionError("unevaluable descriptor: uncertified callable")

    drift = 0.0
    if triplet.b != 0.0:
        drift = abs(triplet.b) * abs_power_integral(f, box, 1.0, tol=drift_tol)

    gauss = 0.0
    if triplet.sigma != 0.0:
        gauss = triplet.sigma**2 * abs_power_integral(f, box, 2.0, tol=gauss_tol)

    measure = triplet.measure
    if measure.tail_mass(0.0) == 0.0:
        jump = 0.0
    elif not _jump_integral_finite(measure, f, box):
        jump = math.inf
    elif measure.homogeneity is not None:
        # J(w) = J(1) w^p, so the x-integral reduces to the p-power integral,
        # which handles singular integrands exactly.
        p = measure.homogeneity
        jump = measure.jump_integrand(1.0) * abs_power_integral(f, box, p, tol=jump_tol)
    else:
        jump = box_integral(
            lambda pts: measure.jump_integrand(np.abs(f.evaluate(pts))), box, tol=jump_tol
        )

    verdict = all(math.isfinite(v) for v in (drift, gauss, jump))
    return IntegrabilityReport(drift, gauss, jump, verdict)


def existence_verdict(d: int, gamma: float | str, triplet: LevyTriplet) -> ExistenceVerdict:
    """Existence, Sobolev ceiling and continuity for one configuration.

    ``gamma`` is either a positive power for the spectral operator or the
    tag ``"laplacian-green-bound"`` for second-order operators with a
    Laplacian-type kernel bound.  All threshold inequalities are strict.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    summary = {
        "b": triplet.b,
        "sigma": triplet.sigma,
        "measure": triplet.measure.to_dict(),
    }

    if gamma == GREEN_BOUND_MODE:
        if d <= 3:
            exists = True
            p_required = (2.0, 2.0)
        else:
            p_hi = d / (d - 2.0)
            p_required = (0.0, p_hi)
            exists = triplet.sigma == 0.0 and triplet.measure.small_jump_index < p_hi
        r_max = 2.0 - d / 2.0
        continuous = d == 1
        return ExistenceVerdict(d, gamma, summary, exists, p_required, r_max, continuous)

    g = float(gamma)
    if g <= 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    exists = g > d / 4.0
    continuous = g > d / 2.0
    return ExistenceVerdict(
        d, g, summary, exists, (2.0, 2.0), 2.0 * g - d / 2.0, continuous and exists
    )
