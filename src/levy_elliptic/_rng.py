"""Deterministic randomness plumbing.

Two kinds of streams are used throughout the package:

* ordinary numpy generators derived from ``(seed, stream tag)`` for sampling
  that happens once per realization (atom counts, locations, sizes), and
* stateless keyed draws for the one lazily extended per-index map, the
  Gaussian part of the noise's coefficients (purpose ``GAUSS_COEFF``),
  where a value must depend only on ``(seed, purpose, index)`` so that the
  query order and the worker count never matter.

``stream`` gives numpy's PCG64, whose output is good in every bit (O'Neill
2014, "PCG: a family of simple fast space-efficient statistically good
algorithms"), and two helpers read its raw 64-bit words directly.
``uniforms_and_signs`` makes one jump from one word w: bits 12-63 give the
uniform ((w >> 12) + 1/2) 2^-52, the midpoint of one of 2^52 equal cells,
which is exact in binary64 and so lies strictly inside (0, 1) (the 53-bit
midpoint ((w >> 11) + 1/2) 2^-53 is not exact above 1/2 and rounds to 1.0
at the top word); bit 0, moved to bit 63, is the jump's sign; bits 1-11
are unused.
``skip_uniforms`` steps over n doubles of ``Generator.random`` (one word
each) with ``advance(n)``.  Both refuse any other bit generator with a
TypeError.

The keyed construction hashes the key material through splitmix64-style
mixing rounds and maps the 53 high bits h to the uniform (h + 1/2) 2^-53,
which the inverse normal CDF turns into a Gaussian.  At the top h that
rounds to 1.0, so it is clamped to 1 - 2^-53, which no other h gives, and
every uniform lies strictly inside (0, 1).  The uniforms are fixed-point and
platform independent.  The constant (seed, purpose) prefix is hashed once
a call; the index rounds then mix in place in two uint64 work arrays, and
the inverse CDF runs in four float ones, all as long as the call's
indices.  A caller that draws a long listing passes one block of
``domain.listing_blocks`` a call, so the work arrays stay near the cache,
and one ``KeyedWork`` from call to call reuses them.  Every value is the
one the whole-array formula gives, however the indices are grouped.

The inverse CDF is a numpy port of Moshier's Cephes ``ndtri`` ("Methods
and Programs for Mathematical Functions", 1989), the algorithm scipy runs.
Its central branch is plain arithmetic and bit-identical everywhere.  Its
tails call ``np.log`` and so follow numpy's dispatch of that ufunc: where
numpy's AVX-512 ``log`` is off, that is libm's, and the draws equal
``scipy.special.ndtri`` bit for bit; where it is on, some tail draws move
by up to 4 ulp (5.8e-5 of 3e6 keyed draws on an AVX-512 Xeon with numpy
2.4).  On one machine and numpy build, identical inputs give
bit-identical outputs.
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

# The one purpose of keyed draws; 0x22, the old small-jump tag, keeps sigma = 0 runs.
GAUSS_COEFF = 0x22

_GOLD_INT = 0x9E3779B97F4A7C15
_M1, _M2, _GOLD = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB), np.uint64(_GOLD_INT)
_S11, _S12, _S27, _S30, _S31, _S63 = (np.uint64(k) for k in (11, 12, 27, 30, 31, 63))
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the exponent bits of 1.0
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


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


def _mix_into(h: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64's finalizer on a uint64 array, in place; ``scratch`` is as long."""
    np.right_shift(h, _S30, out=scratch)
    h ^= scratch
    h *= _M1
    np.right_shift(h, _S27, out=scratch)
    h ^= scratch
    h *= _M2
    np.right_shift(h, _S31, out=scratch)
    h ^= scratch


def _keyed_into(seed: int, purpose: int, indices, hashes: np.ndarray) -> np.ndarray:
    """Uniform(0,1) values keyed by (seed, purpose, multi-index), in a work
    array: the second row of ``hashes``, two uint64 rows at least as long as
    ``indices``, viewed as doubles.

    ``indices`` is an integer array of shape (n, d) (a 1-d array is treated
    as a single column).  The values depend only on the key material, not
    on the order or grouping of queries.
    """
    idx = np.asarray(indices)
    if idx.ndim == 1:
        idx = idx[:, None]
    prefix = np.array([check_seed(seed) ^ ((int(purpose) * _GOLD_INT) & _MASK64)], dtype=np.uint64)
    _mix_into(prefix, np.empty_like(prefix))
    h, scratch = hashes[:, : len(idx)]
    for j in range(idx.shape[1]):
        # Signed indices wrap to uint64 as astype would.
        np.multiply(idx[:, j], _GOLD, out=scratch, dtype=np.uint64, casting="unsafe")
        scratch += np.uint64(j + 1)
        np.bitwise_xor(scratch, h if j else prefix, out=h)
        _mix_into(h, scratch)
    # (value + 0.5) * 2^-53 lies inside (0, 1) but rounds to 1.0 at the
    # top value; that one is clamped to 1 - 2^-53, which no other value gives.
    h >>= _S11
    u = scratch.view(np.float64)
    np.copyto(u, h, casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, _BELOW_ONE, out=u)
    return u


class KeyedWork:
    """The work arrays of ``keyed_normals`` for calls of up to n indices: two
    uint64 rows for the hash rounds and the four float rows of ``_ndtri``.
    A caller that draws block after block passes one to every call, so they
    are allocated once rather than once a call."""

    def __init__(self, n: int):
        self.hashes = np.empty((2, n), dtype=np.uint64)
        self.y, self.y2, self.acc, self.tail = np.empty((4, n))


def keyed_normals(seed: int, purpose: int, indices, work: KeyedWork | None = None) -> np.ndarray:
    """Standard normal values keyed by (seed, purpose, multi-index), with
    temporaries in ``work`` (made for this call if not given)."""
    out = np.empty(len(np.atleast_1d(indices)))
    if work is None:
        work = KeyedWork(len(out))
    return _ndtri(_keyed_into(seed, purpose, indices, work.hashes), out, work)


# Cephes ndtri coefficient tables, highest power first.  The Q tables omit
# their leading coefficient 1.
#   P0/Q0: exp(-2) < y <= 1 - exp(-2), in powers of (y - 1/2)^2;
#   P1/Q1: z = 1/sqrt(-2 log y) for y in [exp(-32), exp(-2)];
#   P2/Q2: z as above for y below exp(-32).
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def _polevl(x: np.ndarray, coef, monic: bool = False, out=None) -> np.ndarray:
    # Horner's rule in Cephes' order; monic prepends the implicit leading 1.
    acc = np.empty_like(x) if out is None else out
    if monic:
        np.add(x, coef[0], out=acc)
    else:
        np.multiply(x, coef[0], out=acc)
        acc += coef[1]
    for c in coef[1 if monic else 2 :]:
        acc *= x
        acc += c
    return acc


def _ndtri(y0: np.ndarray, res: np.ndarray | None = None, work: KeyedWork | None = None) -> np.ndarray:
    """Inverse standard normal CDF of a float array with values in (0, 1),
    into ``res`` with temporaries in ``work`` (each made here if not given).

    Cephes' operation order is kept, so each value is the one scipy's
    ``ndtri`` gives with the same ``log``.
    """
    res = np.empty_like(y0) if res is None else res
    work = KeyedWork(len(y0)) if work is None else work
    n = len(y0)
    y, y2, acc = work.y[:n], work.y2[:n], work.acc[:n]
    # Central branch on every value; the tails overwrite their share.
    np.subtract(y0, 0.5, out=y)
    np.multiply(y, y, out=y2)
    np.multiply(_polevl(y2, _P0, out=acc), y2, out=res)
    res /= _polevl(y2, _Q0, monic=True, out=acc)
    res *= y
    res += y
    res *= _S2PI
    tail = np.flatnonzero((y0 <= _EXP_M2) | (y0 > 1.0 - _EXP_M2))
    if tail.size == 0:
        return res
    m = tail.size
    yt, x, x0, x1 = work.y[:m], work.y2[:m], work.tail[:m], work.acc[:m]
    np.take(y0, tail, out=yt)
    upper = yt > 1.0 - _EXP_M2
    # x = sqrt(-2 log y) of the nearer end's distance y, min(1 - y, y).
    np.subtract(1.0, yt, out=x)
    np.minimum(x, yt, out=x)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    # x0 = x - log(x) / x, x1 = z P(z) / Q(z) at z = 1 / x; yt's array holds z.
    np.log(x, out=x0)
    x0 /= x
    np.subtract(x, x0, out=x0)
    z = np.divide(1.0, x, out=yt)
    far = x >= 8.0
    np.multiply(z, _polevl(z, _P1, out=x1), out=x)
    x1 = np.divide(x, _polevl(z, _Q1, monic=True, out=x1), out=x1)
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2, monic=True)
    # x0 - x1 on the upper tail, its exact negation x1 - x0 on the lower one;
    # a tail quantile lies above 1.1 in magnitude, so no signed zero arises.
    sign = np.multiply(upper, 2.0, out=z)
    sign -= 1.0
    np.subtract(x0, x1, out=x0)
    x0 *= sign
    res[tail] = x0
    return res
