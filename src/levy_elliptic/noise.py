"""Sampling symmetric Levy white noise on a box and pairing it with functions.

This module is the one place that draws the noise.  A ``NoiseLaw`` is the
law that every draw samples: the paper's triplet (b, sigma, nu) on the box
D, plus the two choices of the simulation, the truncation level eps in
(0, 1] and the small-jump policy (``gaussianize``, the Gaussian
approximation of Asmussen and Rosinski (2001), or ``drop``).  The law
checks eps and the policy once, when it is made, and every sampler, Monte
Carlo check and the run config take it whole.  A realization of the law
consists of three independent pieces keyed to one master seed:

* the jump atoms above eps, a compound-Poisson draw from
  the product intensity dy x nu(dz);
* the Gaussian component, represented through its coefficients against the
  Dirichlet eigenbasis: i.i.d. N(0, sigma^2) values, lazily extended and
  keyed per index so query order never matters;
* the small jumps below eps, either dropped or replaced by an independent
  Gaussian surrogate with the matching variance int_{|z|<=eps} z^2 nu(dz)
  per coefficient.

Atoms in the band eps < |z| <= 1 are summed raw, without the compensator:
every supported measure is symmetric, so the compensating term vanishes.

Replicate i of a Monte Carlo run with master seed s is
``replicate_noise(law, s, i)``; checks that need only <noise, f> draw many
replicates at once (``pairing_batch``).  A
realization and a replicate share one atom budget: ``atom_rate`` refuses,
before any draw, one that expects more than BATCH_ATOMS = 2^20 atoms.
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
    Constant,
    Eigenfunction,
    FunctionDescriptor,
    Indicator,
    fourier_vector,
    integral,
    lq_finite,
)
from .measures import LevyTriplet, sample_jump_sizes

POLICIES = ("gaussianize", "drop")

# Largest expected atom count of a realization or Monte Carlo replicate.
BATCH_ATOMS = 1 << 20
# Atoms per block of whole replicates in a Monte Carlo batch: 128 KiB a column,
# so a block's sizes, locations and weights stay within a 2 MiB L2 cache.
BLOCK_ATOMS = 1 << 14


def atom_rate(box: HyperBox, measure, lo: float, hi: float = math.inf) -> float:
    """|D| nu({lo < |z| <= hi}), the expected atom count of one draw; refused above BATCH_ATOMS."""
    rate = box.volume * (measure.tail_mass(lo) - measure.tail_mass(hi))
    if not rate <= BATCH_ATOMS:
        count = f"{rate:.3g}" if math.isfinite(rate) else "infinitely many"
        raise ValueError(
            f"eps={lo:g} gives {count} expected atoms a draw, "
            f"above the bound of BATCH_ATOMS={BATCH_ATOMS}; raise eps"
        )
    return rate


def uniform_locations(box: HyperBox, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform points of the box, shape (n, d), from n * d uniforms of rng."""
    return box.lower + rng.random((n, box.dim)) * box.lengths


@dataclass(frozen=True)
class NoiseLaw:
    """The triplet on the box, truncated at eps, with its small jumps under ``policy``."""

    box: HyperBox
    triplet: LevyTriplet
    eps: float = 0.01
    policy: str = "gaussianize"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")

    @property
    def surrogate_variance(self) -> float:
        """Small-jump surrogate variance a coefficient: int_{|z| <= eps} z^2 nu(dz), or 0 under ``drop``."""
        return self.triplet.measure.truncated_variance(self.eps) if self.policy == "gaussianize" else 0.0


def _check_box(box: HyperBox, system: EigenSystem) -> None:
    if system.box.intervals != box.intervals:
        raise ValueError("the noise and the system live on different boxes")


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


def sample_prm_large(box: HyperBox, measure, eps: float, rng: np.random.Generator) -> JumpAtomSet:
    """Compound-Poisson draw of all jumps with |z| > eps.

    In draw order: the atom count ~ Poisson(``atom_rate``), the locations
    i.i.d. uniform on the box, the sizes i.i.d. from the restricted measure
    (one raw word a size for its first uniform and its sign, then any words
    its family draws further; see ``sample_jump_sizes``).
    """
    rate = atom_rate(box, measure, eps)
    if rate == 0.0:
        return JumpAtomSet(box, eps, np.empty((0, box.dim)), np.empty(0))
    n = int(rng.poisson(rate))
    locations = uniform_locations(box, n, rng)
    return JumpAtomSet(box, eps, locations, sample_jump_sizes(measure, eps, rng, size=n))


@dataclass
class NoiseRealization:
    """One frozen sample of the noise law, reproducible from its master seed."""

    law: NoiseLaw
    master_seed: int
    atoms: JumpAtomSet

    def gaussian_coefficients(self, indices) -> np.ndarray | None:
        """sigma-scaled i.i.d. normal coefficients keyed by (seed, index).

        None when sigma = 0: the Gaussian component is absent and no stream
        is consumed.
        """
        sigma = self.law.triplet.sigma
        if sigma == 0.0:
            return None
        idx = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        draws = _rng.keyed_normals(self.master_seed, _rng.GAUSS_COEFF, idx)
        draws *= sigma
        return draws

    def small_jump_coefficients(self, indices) -> np.ndarray | None:
        """Gaussian surrogate coefficients for the jumps below eps.

        Variance ``NoiseLaw.surrogate_variance`` per index; None, and no
        stream is consumed, when that variance is zero.
        """
        var = self.law.surrogate_variance
        if var == 0.0:
            return None
        idx = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        draws = _rng.keyed_normals(self.master_seed, _rng.SMALL_JUMP_COEFF, idx)
        draws *= math.sqrt(var)
        return draws

    def manifest(self) -> dict:
        return {
            "triplet": self.law.triplet.to_dict(),
            "eps": self.law.eps,
            "small_jump_policy": self.law.policy,
            "seed": self.master_seed,
        }

    def write_manifest(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def sample_noise(law: NoiseLaw, master_seed: int = 0) -> NoiseRealization:
    """Draw a full noise realization from one 64-bit master seed."""
    rng = _rng.stream(master_seed, _rng.ATOM_STREAM)
    atoms = sample_prm_large(law.box, law.triplet.measure, law.eps, rng)
    return NoiseRealization(law, int(master_seed), atoms)


def replicate_noise(law: NoiseLaw, seed: int, replicate_id: int) -> NoiseRealization:
    """Realization of replicate ``replicate_id`` of a Monte Carlo run with master seed ``seed``."""
    return sample_noise(law, _rng.replicate_seed(seed, replicate_id))


def pair_eigen(realization: NoiseRealization, system: EigenSystem) -> np.ndarray:
    """Coefficients of the noise against every eigenfunction of the system.

    c_k = b <1, e_k> + sigma g_k + sum_j e_k(y_j) z_j + small-jump surrogate,
    summed in that order over the parts present.  Deterministic given the
    realization: the atom sum runs over fixed chunks of atoms in atom order.
    """
    _check_box(realization.law.box, system)
    trip, atoms = realization.law.triplet, realization.atoms
    c = _sum_present(
        trip.b * constant_fourier(system) if trip.b != 0.0 else None,
        realization.gaussian_coefficients(system.indices),
        eigen_matvec(system, atoms.locations, atoms.sizes) if atoms.count else None,
        realization.small_jump_coefficients(system.indices),
    )
    return np.zeros(len(system)) if c is None else c


def _sum_present(*parts) -> np.ndarray | None:
    """Sum, in order and into the first, of the parts that are not None; None if all are."""
    present = [part for part in parts if part is not None]
    for part in present[1:]:
        present[0] += part
    return present[0] if present else None


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
    box, trip = realization.law.box, realization.law.triplet
    _check_box(box, system)
    if trip.sigma != 0.0 and not lq_finite(f, box, 2.0):
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

    total = 0.0
    if trip.b != 0.0:
        total += trip.b * integral(f, box)
    spectral = _sum_present(
        realization.gaussian_coefficients(system.indices),
        realization.small_jump_coefficients(system.indices),
    )
    if spectral is not None:
        total += float(np.dot(fourier_vector(system, f), spectral))
    if realization.atoms.count:
        total += float(f.evaluate(realization.atoms.locations) @ realization.atoms.sizes)
    return total


def pairing_batch(law: NoiseLaw, f, system: EigenSystem, m: int, seed: int) -> np.ndarray:
    """m i.i.d. samples of the noise paired with f, vectorized across replicates.

    Law-equivalent to calling ``pair_with_function`` on m fresh realizations:
    the Gaussian and gaussianized-small-jump parts act through the truncated
    expansion of f, so their contribution is a centered normal of variance
    (sigma^2 + surrogate_variance) * sum_k <f, e_k>^2, and the jump part is
    the direct atom sum.  Draw order is fixed, so one seed fixes the batch.
    """
    _check_box(law.box, system)
    triplet = law.triplet
    rng = _rng.stream(seed, _rng.BATCH_STREAM)
    x = jump_sums(law.box, triplet.measure, f, m, rng, law.eps)
    if triplet.b != 0.0:
        x += triplet.b * integral(f, law.box)
    scale = triplet.sigma**2 + law.surrogate_variance
    if scale > 0.0:
        coeffs = fourier_vector(system, f)
        gauss_var = scale * float(np.dot(coeffs, coeffs))
        if gauss_var > 0.0:
            x += math.sqrt(gauss_var) * rng.standard_normal(m)
    return x


def jump_sums(box: HyperBox, measure, f, m: int, rng, lo: float, hi: float = math.inf) -> np.ndarray:
    """m replicate sums of f(y) z over the atoms of nu on {lo < |z| <= hi}.

    ``atom_rate`` refuses the batch before any draw when one replicate
    expects more than BATCH_ATOMS atoms.  The Poisson counts of all
    replicates come first.  Then consecutive blocks of whole replicates,
    about BLOCK_ATOMS atoms each (a replicate with more atoms is a block of
    its own), draw from ``rng`` first their sizes (one raw word a size for
    its first uniform and its sign, then any words its family draws further;
    see ``sample_jump_sizes``) and then their uniform locations, and
    ``np.add.reduceat`` sums each non-empty replicate's segment.  Memory is
    bounded by the block, and the result depends on BLOCK_ATOMS through the
    block boundaries of the draws.

    A ``Constant`` f never reads the locations: ``_rng.skip_uniforms``
    advances PCG64 past the n * d words they would take, and the sizes are
    scaled by the constant, so the stream and the sums stay those of the
    drawn locations bit for bit.  ``rng`` must run on PCG64.
    """
    rate = atom_rate(box, measure, lo, hi)
    out = np.zeros(m)
    if rate == 0.0:
        return out
    counts = rng.poisson(rate, m)
    ends = np.cumsum(counts)
    start = 0
    while start < m:
        first = int(ends[start] - counts[start])
        stop = max(start + 1, int(np.searchsorted(ends, first + BLOCK_ATOMS, side="right")))
        n = int(ends[stop - 1]) - first
        if n:
            terms = sample_jump_sizes(measure, lo, rng, size=n, hi=hi)
            if isinstance(f, Constant):
                _rng.skip_uniforms(rng, n * box.dim)
                terms *= float(f.value)
            else:
                terms *= f.evaluate(uniform_locations(box, n, rng))
            filled = start + np.flatnonzero(counts[start:stop])
            out[filled] = np.add.reduceat(terms, ends[filled] - counts[filled] - first)
        start = stop
    return out
