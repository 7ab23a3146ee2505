"""Sampling symmetric Levy white noise on a box and pairing it with functions.

A realization consists of three independent pieces keyed to one master seed:

* the jump atoms above a truncation level eps, a compound-Poisson draw from
  the product intensity dy x nu(dz);
* the Gaussian component, represented through its coefficients against the
  Dirichlet eigenbasis: i.i.d. N(0, sigma^2) values, lazily extended and
  keyed per index so query order never matters;
* the small jumps below eps, either dropped or replaced by an independent
  Gaussian surrogate with the matching variance int_{|z|<=eps} z^2 nu(dz)
  per coefficient (the usual small-jump Gaussian approximation).

Atoms in the band eps < |z| <= 1 are summed raw, without the compensator:
every supported measure is symmetric, so the compensating term vanishes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from ._csvio import write_csv
from .domain import EigenSystem, HyperBox, constant_fourier, eigen_matvec
from .functions import (
    Eigenfunction,
    FunctionDescriptor,
    Indicator,
    fourier_vector,
    integral,
    lq_finite,
)
from .measures import LevyTriplet, sample_jump_sizes

POLICIES = ("gaussianize", "drop")


@dataclass
class JumpAtomSet:
    """Atoms (location, size) of the jump measure above the level eps."""

    box: HyperBox
    eps: float
    locations: np.ndarray  # (n, d)
    sizes: np.ndarray  # (n,)

    @property
    def count(self) -> int:
        return len(self.sizes)

    def to_csv(self, path) -> None:
        header = [*(f"y_{i+1}" for i in range(self.box.dim)), "z"]
        write_csv(path, header, [*self.locations.T, self.sizes])


def sample_prm_large(
    box: HyperBox, measure, eps: float, rng: np.random.Generator
) -> JumpAtomSet:
    """Compound-Poisson draw of all jumps with |z| > eps.

    Atom count ~ Poisson(|D| * nu({|z| > eps})), locations i.i.d. uniform on
    the box, sizes i.i.d. from the normalized restricted measure.
    """
    lam = measure.tail_mass(eps)
    if not math.isfinite(lam):
        raise ValueError("infinite jump intensity above eps; increase eps")
    d = box.dim
    if lam == 0.0:
        return JumpAtomSet(box, eps, np.empty((0, d)), np.empty(0))
    n = int(rng.poisson(box.volume * lam))
    locations = box.lower + rng.random((n, d)) * box.lengths
    sizes = np.atleast_1d(sample_jump_sizes(measure, eps, rng, size=n)) if n else np.empty(0)
    return JumpAtomSet(box, eps, locations, sizes)


@dataclass
class NoiseRealization:
    """One frozen sample of the noise, reproducible from its master seed."""

    box: HyperBox
    triplet: LevyTriplet
    eps: float
    policy: str
    master_seed: int
    atoms: JumpAtomSet

    def gaussian_coefficients(self, indices) -> np.ndarray:
        """sigma-scaled i.i.d. normal coefficients keyed by (seed, index).

        Identically zero when sigma = 0: the Gaussian component is absent
        and no stream is consumed.
        """
        idx = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        if self.triplet.sigma == 0.0:
            return np.zeros(len(idx))
        return self.triplet.sigma * _rng.keyed_normals(self.master_seed, _rng.GAUSS_COEFF, idx)

    def small_jump_coefficients(self, indices) -> np.ndarray:
        """Gaussian surrogate coefficients for the jumps below eps.

        Variance int_{|z| <= eps} z^2 nu(dz) per index under the
        ``gaussianize`` policy; identically zero under ``drop``.
        """
        idx = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        if self.policy == "drop":
            return np.zeros(len(idx))
        var = self.triplet.measure.truncated_variance(self.eps)
        if var == 0.0:
            return np.zeros(len(idx))
        draws = _rng.keyed_normals(self.master_seed, _rng.SMALL_JUMP_COEFF, idx)
        return math.sqrt(var) * draws

    def manifest(self) -> dict:
        return {
            "triplet": {
                "b": self.triplet.b,
                "sigma": self.triplet.sigma,
                "measure": self.triplet.measure.to_dict(),
            },
            "eps": self.eps,
            "small_jump_policy": self.policy,
            "seed": self.master_seed,
        }

    def write_manifest(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def sample_noise(
    box: HyperBox,
    triplet: LevyTriplet,
    eps: float = 0.01,
    policy: str = "gaussianize",
    master_seed: int = 0,
) -> NoiseRealization:
    """Draw a full noise realization from one 64-bit master seed."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    rng = _rng.stream(master_seed, _rng.ATOM_STREAM)
    atoms = sample_prm_large(box, triplet.measure, eps, rng)
    return NoiseRealization(box, triplet, eps, policy, int(master_seed), atoms)


def pair_eigen(realization: NoiseRealization, system: EigenSystem) -> np.ndarray:
    """Coefficients of the noise against every eigenfunction of the system.

    c_k = b <1, e_k> + sigma g_k + sum_j e_k(y_j) z_j + small-jump surrogate.
    Deterministic given the realization; the atom sum runs in atom order.
    """
    if system.box.intervals != realization.box.intervals:
        raise ValueError("realization and system live on different boxes")
    trip = realization.triplet
    c = np.zeros(len(system))
    if trip.b != 0.0:
        c += trip.b * constant_fourier(system)
    if trip.sigma != 0.0:
        c += realization.gaussian_coefficients(system.indices)
    if realization.atoms.count:
        c += eigen_matvec(system, realization.atoms.locations, realization.atoms.sizes)
    if realization.policy == "gaussianize":
        c += realization.small_jump_coefficients(system.indices)
    return c


def pair_with_function(
    realization: NoiseRealization, f: FunctionDescriptor, system: EigenSystem
) -> float:
    """Sample of the noise paired with a general integrand.

    The Gaussian and small-jump components act through the truncated
    eigen-expansion of f (exact on basis functions, Parseval-deficit
    controlled otherwise); jumps are summed directly at the atoms; the
    drift term is b * int f.  Pairing an eigenfunction of the system
    reproduces the corresponding ``pair_eigen`` coefficient bit-for-bit.
    """
    if system.box.intervals != realization.box.intervals:
        raise ValueError("realization and system live on different boxes")
    if realization.triplet.sigma != 0.0 and not lq_finite(f, realization.box, 2.0):
        raise ValueError("integrand is not square integrable for sigma > 0")

    if isinstance(f, Eigenfunction) and f.box.intervals == system.box.intervals:
        pos = system.position(f.index)
        if pos is not None:
            return float(pair_eigen(realization, system)[pos])

    if isinstance(f, Indicator) and len(f.boxes) > 1:
        # Pairing is additive over a disjoint union by definition of the
        # underlying random measure; computing it that way keeps the
        # identity exact, not merely up to summation roundoff.
        return float(
            sum(pair_with_function(realization, Indicator((bx,)), system) for bx in f.boxes)
        )

    trip = realization.triplet
    total = 0.0
    if trip.b != 0.0:
        total += trip.b * integral(f, realization.box)
    spectral = np.zeros(len(system))
    if trip.sigma != 0.0:
        spectral += realization.gaussian_coefficients(system.indices)
    if realization.policy == "gaussianize":
        spectral += realization.small_jump_coefficients(system.indices)
    if spectral.any():
        total += float(np.dot(fourier_vector(system, f), spectral))
    if realization.atoms.count:
        total += float(f.evaluate(realization.atoms.locations) @ realization.atoms.sizes)
    return total
