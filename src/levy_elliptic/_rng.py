"""Deterministic randomness plumbing.

Every stream of the package is numpy's PCG64, whose output is good in
every bit (O'Neill 2014, "PCG: a family of simple fast space-efficient
statistically good algorithms"), keyed by ``(seed, stream tag)``: ``stream``
gives the generator of one tag, and ``replicate_seed`` the seed of one Monte
Carlo replicate.

The Gaussian part of a realization is one GAUSS_COEFF generator drawn in
listing order, block after block of ``domain.listing_blocks``, through
``keyed_normals``.  A draw so depends on its position in the listing, not
on its multi-index: two listings share draws on their common prefix only.
``Generator.standard_normal`` takes its words in order and keeps no
state between calls, so the draws do not depend on how they are cut into
blocks.

Two helpers read PCG64's raw 64-bit words directly.
``uniforms_and_signs`` makes one jump from one word w: bits 12-63 give the
uniform ((w >> 12) + 1/2) 2^-52, the midpoint of one of 2^52 equal cells,
which is exact in binary64 and so lies strictly inside (0, 1) (the 53-bit
midpoint ((w >> 11) + 1/2) 2^-53 is not exact above 1/2 and rounds to 1.0
at the top word); bit 0, moved to bit 63, is the jump's sign; bits 1-11
are unused.
``skip_uniforms`` steps over n doubles of ``Generator.random`` (one word
each) with ``advance(n)``.  Both refuse any other bit generator with a
TypeError.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags.  Distinct values keep independent uses of one master seed
# from colliding; the numbers themselves are arbitrary but frozen.
ATOM_STREAM = 0x41
BATCH_STREAM = 0x42
SAMPLE_STREAM = 0x43
REPLICATE_STREAM = 0x52
GAUSS_COEFF = 0x22  # the Gaussian part of a realization

_S12, _S63 = np.uint64(12), np.uint64(63)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the exponent bits of 1.0


def check_seed(seed) -> int:
    """``seed`` as an int, refused unless it lies in [0, 2^64): every stream
    keys on 64 bits, so a negative or larger seed would alias another."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")
    return seed


def stream(seed: int, tag: int) -> np.random.Generator:
    """Generator for a named sampling stream derived from ``seed``."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=(tag,))
    return np.random.default_rng(ss)


def _pcg64(rng) -> np.random.PCG64:
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"needs a PCG64 bit generator, got {type(bitgen).__name__}")
    return bitgen


def uniforms_and_signs(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n uniforms in (0, 1) and n sign words from n raw words of ``rng``.

    Word w gives the uniform ((w >> 12) + 1/2) 2^-52 and the sign word
    (w & 1) << 63, which ORed into a positive double makes it negative.
    """
    words = _pcg64(rng).random_raw(n)
    u = np.empty(n)
    # 1 + (w >> 12) 2^-52 in [1, 2) by its bits, then minus 1 - 2^-53: exact.
    bits = u.view(np.uint64)
    np.right_shift(words, _S12, out=bits)
    bits |= _ONE_BITS
    u -= 1.0 - 2.0**-53
    words <<= _S63
    return u, words


def skip_uniforms(rng, n: int) -> None:
    """Advance ``rng`` past n uniforms, as ``rng.random(n)`` would, without making them."""
    _pcg64(rng).advance(n)


def replicate_seed(master_seed: int, replicate_id: int) -> int:
    """Derived 64-bit seed for one replicate of a Monte Carlo run."""
    ss = np.random.SeedSequence(
        entropy=check_seed(master_seed),
        spawn_key=(REPLICATE_STREAM, int(replicate_id)),
    )
    return int(ss.generate_state(1, np.uint64)[0])


def keyed_normals(rng, n: int, out=None) -> np.ndarray:
    """The next n standard normals of ``rng``, into ``out`` when given: the one
    draw of a realization's Gaussian part.  The name is kept, a plain
    ``standard_normal`` call, because the benchmark's tracer wraps
    ``_rng.keyed_normals`` by name."""
    return rng.standard_normal(n, out=out)
