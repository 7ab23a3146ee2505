"""Sampling symmetric Levy white noise on a box and pairing it with functions.

This module is the one place that draws the noise.  A ``NoiseLaw`` is the
law that every draw samples: the paper's triplet (b, sigma, nu) on the box
D, plus the two choices of the simulation, the truncation level eps in
(0, 1] and the small-jump policy (``gaussianize``, the Gaussian
approximation of Asmussen and Rosinski (2001), or ``drop``).  The law
checks eps and the policy once, when it is made, and every sampler, Monte
Carlo check and the run config take it whole.  Besides the drift, a
realization consists of two independent pieces keyed to one master seed:

* the jump atoms above eps, a compound-Poisson draw from
  the product intensity dy x nu(dz);
* one Gaussian part of the coefficients against the Dirichlet eigenbasis,
  i.i.d. N(0, sigma^2 + v) values keyed per index so query order never
  matters: sigma W and the surrogate of the jumps below eps, of variance
  v = int_{|z|<=eps} z^2 nu(dz) under ``gaussianize`` and 0 under ``drop``,
  are independent centered white noises, so they sum to one such value.

Atoms in the band eps < |z| <= 1 are summed raw, without the compensator:
every supported measure is symmetric, so the compensating term vanishes.

Replicate i of a Monte Carlo run with master seed s is
``replicate_noise(law, s, i)``; checks that need only <noise, f> draw many
replicates at once (``pairing_batch``).  A
realization and a replicate share one atom budget: ``atom_rate`` refuses,
before any draw, one that expects more than BATCH_ATOMS = 2^20 atoms.
The module writes no files; ``NoiseLaw.to_dict`` is the law's one
serialized form, under the run config's keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .domain import EigenSystem, HyperBox, box_fourier, eigen_matvec_blocks, listing_blocks, positions
from .functions import Constant, FunctionDescriptor, SpectralFunction, fourier_vector, integral, lq_finite
from .measures import LevyTriplet, sample_jump_sizes

POLICIES = ("gaussianize", "drop")

# Largest expected atom count of a realization or Monte Carlo replicate.
BATCH_ATOMS = 1 << 20
# Atoms per block of whole replicates in a Monte Carlo batch: 128 KiB a column,
# so a block's sizes, locations and weights stay within a 2 MiB L2 cache.
BLOCK_ATOMS = 1 << 14


def atom_rate(law: NoiseLaw, hi: float = math.inf) -> float:
    """|D| nu({eps < |z| <= hi}), the expected atom count of one draw; refused above BATCH_ATOMS."""
    measure = law.triplet.measure
    rate = law.box.volume * (measure.tail_mass(law.eps) - measure.tail_mass(hi))
    if not rate <= BATCH_ATOMS:
        count = f"{rate:.3g}" if math.isfinite(rate) else "infinitely many"
        raise ValueError(
            f"eps={law.eps:g} gives {count} expected atoms a draw, "
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

    @property
    def gaussian_variance(self) -> float:
        """Variance of the Gaussian part of a coefficient: sigma^2 + ``surrogate_variance``."""
        return self.triplet.sigma**2 + self.surrogate_variance

    def to_dict(self) -> dict:
        """The law under the run config's own keys: a config file of it draws this law."""
        box = {"dim": self.box.dim, "intervals": [list(pair) for pair in self.box.intervals]}
        return {"box": box, "triplet": self.triplet.to_dict(), "eps": self.eps, "small_jump_policy": self.policy}


def _check_box(box: HyperBox, system: EigenSystem) -> None:
    if system.box != box:
        raise ValueError("the noise and the system live on different boxes")


def _check_square_integrable(law: NoiseLaw, f: FunctionDescriptor) -> None:
    """Refuse an f outside L^2 when the Gaussian part has positive variance
    (``NoiseLaw.gaussian_variance``): its pairing with white noise is undefined."""
    if law.gaussian_variance > 0.0 and not lq_finite(f, law.box, 2.0):
        raise ValueError("integrand is not square integrable and the law has a Gaussian part")


def _check_pairable(law: NoiseLaw, f: FunctionDescriptor, system: EigenSystem) -> None:
    """Refuse a system on another box and, when the Gaussian part has positive
    variance, an f that its truncated expansion misses: one outside L^2
    (``_check_square_integrable``), where it does not converge in K, and an
    eigen-expansion on the box with a nonzero coefficient at a mode the
    listing lacks, which it would drop."""
    _check_box(law.box, system)
    _check_square_integrable(law, f)
    if law.gaussian_variance == 0.0:
        return
    if isinstance(f, SpectralFunction) and f.system.box == law.box:
        missing = np.count_nonzero(f.coeffs[positions(system, f.system.indices) < 0])
        if missing:
            raise ValueError(
                f"integrand has {missing} nonzero coefficients at modes outside the listing of "
                f"K={len(system)} modes, which the Gaussian part would drop; raise K"
            )


@dataclass
class JumpAtomSet:
    """Atoms (location, size) of the jump measure above the level eps."""

    locations: np.ndarray  # (n, d)
    sizes: np.ndarray  # (n,)

    @property
    def count(self) -> int:
        return len(self.sizes)


@dataclass
class NoiseRealization:
    """One frozen sample of the noise law, reproducible from its master seed."""

    law: NoiseLaw
    master_seed: int
    atoms: JumpAtomSet

    def gaussian_blocks(self, system: EigenSystem):
        """The N(0, ``NoiseLaw.gaussian_variance``) coefficients of the system's
        modes, keyed by (seed, index), one block of ``domain.listing_blocks``
        at a time: (slice, draws) per block, drawn into one ``_rng.KeyedWork``
        for every block.

        The draws are None, and no stream is consumed, when that variance is 0.
        """
        var, blocks = self.law.gaussian_variance, listing_blocks(system)
        if var == 0.0:
            return ((part, None) for part in blocks)
        work = _rng.KeyedWork(blocks[0].stop)  # the first block is the longest

        def draws(part: slice) -> np.ndarray:
            out = _rng.keyed_normals(self.master_seed, _rng.GAUSS_COEFF, system.indices[part], work)
            out *= math.sqrt(var)
            return out

        # Each block is drawn when it is asked for and not held here after.
        return ((part, draws(part)) for part in blocks)


def sample_noise(law: NoiseLaw, master_seed: int = 0) -> NoiseRealization:
    """Draw a full noise realization from one 64-bit master seed.

    Its atoms come from one ATOM_STREAM generator, in draw order: the count
    ~ Poisson(``atom_rate``), the locations i.i.d. uniform on the box, the
    sizes i.i.d. from nu restricted to |z| > eps (see ``sample_jump_sizes``).
    A seed outside [0, 2^64) is refused (``_rng.check_seed``).
    """
    seed, box, rate = _rng.check_seed(master_seed), law.box, atom_rate(law)
    atoms = JumpAtomSet(np.empty((0, box.dim)), np.empty(0))
    if rate > 0.0:
        rng = _rng.stream(seed, _rng.ATOM_STREAM)
        n = int(rng.poisson(rate))
        locations = uniform_locations(box, n, rng)
        atoms = JumpAtomSet(locations, sample_jump_sizes(law.triplet.measure, law.eps, rng, size=n))
    return NoiseRealization(law, seed, atoms)


def replicate_noise(law: NoiseLaw, seed: int, replicate_id: int) -> NoiseRealization:
    """Realization of replicate ``replicate_id`` of a Monte Carlo run with master seed ``seed``."""
    return sample_noise(law, _rng.replicate_seed(seed, replicate_id))


def pair_eigen(realization: NoiseRealization, system: EigenSystem) -> np.ndarray:
    """Coefficients of the noise against every eigenfunction of the system:
    the blocks of ``pair_eigen_blocks`` in one array."""
    out = np.empty(len(system))
    for part, coeffs in pair_eigen_blocks(realization, system):
        out[part] = coeffs
    return out


def pair_eigen_blocks(realization: NoiseRealization, system: EigenSystem):
    """The coefficients one block of ``domain.listing_blocks`` at a time: (slice, coefficients) per block.

    c_k = b <1, e_k> + sum_j e_k(y_j) z_j + sqrt(sigma^2 + v) g_k, summed in
    that order, into the first, over the parts present; a block's Gaussian
    part comes from ``NoiseRealization.gaussian_blocks``, drawn after the
    block's atom sum, once the atom sum's temporaries are freed.  Deterministic
    given the realization and the system: the Gaussian part is keyed by
    index, and the atom sum runs over fixed chunks of atoms in atom order
    and over the fixed blocks (``domain.eigen_matvec_blocks``).  Each
    block's array is its own, free to overwrite.
    """
    _check_box(realization.law.box, system)
    atoms = realization.atoms
    jumps = eigen_matvec_blocks(system, atoms.locations, atoms.sizes) if atoms.count else None
    gaussian = realization.gaussian_blocks(system)
    for part in listing_blocks(system):
        block = EigenSystem(system.box, system.indices[part], system.lams[part])
        # Drawn inline, the atom sums first, so no block is held here while the caller works.
        yield part, _block_coefficients(realization, block, next(jumps) if jumps else None, next(gaussian)[1])


def _block_coefficients(realization: NoiseRealization, block: EigenSystem, atom_sums, gaussian) -> np.ndarray:
    """One block's b <1, e_k>, atom sums and Gaussian part, summed in that order into the first present."""
    trip = realization.law.triplet
    terms = [trip.b * box_fourier(block) if trip.b != 0.0 else None, atom_sums, gaussian]
    terms = [term for term in terms if term is not None] or [np.zeros(len(block))]
    for term in terms[1:]:
        terms[0] += term
    return terms[0]


def pair_with_function(
    realization: NoiseRealization, f: FunctionDescriptor, system: EigenSystem
) -> float:
    """Sample of the noise paired with a general integrand, exact up to rounding.

    The drift term is b * int f; the Gaussian part acts through the truncated
    eigen-expansion of f (exact on basis functions, Parseval-deficit
    controlled otherwise), one dot product of <f, e_k> with the K draws,
    filled block by block from ``NoiseRealization.gaussian_blocks``; jumps
    are summed directly at the atoms.  When the Gaussian part has positive
    variance, an f that the truncated expansion misses is refused
    (``_check_pairable``).
    """
    box, trip = realization.law.box, realization.law.triplet
    _check_pairable(realization.law, f, system)

    total = 0.0
    if trip.b != 0.0:
        total += trip.b * integral(f, box)
    if realization.law.gaussian_variance > 0.0:
        spectral = np.empty(len(system))
        for part, draws in realization.gaussian_blocks(system):
            spectral[part] = draws
        total += float(np.dot(fourier_vector(system, f), spectral))
    if realization.atoms.count:
        total += float(f.evaluate(realization.atoms.locations) @ realization.atoms.sizes)
    return total


def pairing_batch(law: NoiseLaw, f, m: int, seed: int) -> np.ndarray:
    """m i.i.d. samples of the noise paired with f, vectorized across replicates.

    Each sample has the law of <noise, f> itself, with no eigen listing: the
    jump part is the direct atom sum (``jump_sums``), the drift adds
    b int f, and the Gaussian part a centered normal of variance
    ``gaussian_variance`` * int f^2, both integrals in closed form
    (``functions.integral``).  Draw order is fixed, so one seed fixes the
    batch.  Under a Gaussian part an f outside L^2 is refused before any
    draw (``_check_square_integrable``).
    """
    _check_square_integrable(law, f)
    triplet = law.triplet
    rng = _rng.stream(seed, _rng.BATCH_STREAM)
    x = jump_sums(law, f, m, rng)
    if triplet.b != 0.0:
        x += triplet.b * integral(f, law.box)
    if law.gaussian_variance > 0.0:
        gauss_var = law.gaussian_variance * integral(f, law.box, 2)
        if gauss_var > 0.0:
            x += math.sqrt(gauss_var) * rng.standard_normal(m)
    return x


def jump_sums(law: NoiseLaw, f, m: int, rng, hi: float = math.inf) -> np.ndarray:
    """m replicate sums of f(y) z over the atoms of the law's nu on {eps < |z| <= hi}.

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
    box, measure, lo = law.box, law.triplet.measure, law.eps
    rate = atom_rate(law, hi)
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
