"""The numpy port of Cephes ndtri behind keyed Gaussian draws."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from levy_elliptic import _rng
from levy_elliptic._rng import _EXP_M2, _ndtri


def keyed_uniforms(seed: int, purpose: int, indices) -> np.ndarray:
    """The keyed uniforms of ``_rng._keyed_into``, copied out of a fresh work array."""
    hashes = np.empty((2, len(np.atleast_1d(indices))), dtype=np.uint64)
    return _rng._keyed_into(seed, purpose, indices, hashes).copy()


def ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between same-signed doubles."""
    assert np.all(np.signbit(a) == np.signbit(b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


UNIFORMS = keyed_uniforms(7, _rng.GAUSS_COEFF, np.arange(1 << 18))
CENTRAL = (UNIFORMS > _EXP_M2) & (UNIFORMS <= 1.0 - _EXP_M2)


def test_central_branch_is_bit_identical_to_scipy():
    u = UNIFORMS[CENTRAL]
    assert np.array_equal(_ndtri(u).view(np.int64), ndtri(u).view(np.int64))


def test_tails_are_within_4_ulp_of_scipy():
    # The tails call np.log, which numpy may dispatch to its own AVX-512 code.
    u = UNIFORMS[~CENTRAL]
    assert u.size > 0.2 * UNIFORMS.size
    assert ulps(_ndtri(u), ndtri(u)).max() <= 4


def test_edge_inputs_are_within_4_ulp_of_scipy():
    edges = [_EXP_M2, 1.0 - _EXP_M2]
    u = np.array(
        [np.nextafter(e, side) for e in edges for side in (0.0, 1.0)]
        + edges
        # 2^-54 and 1 - 2^-53 are the extreme keyed uniforms.  2^-54, 1e-20 and
        # 1e-300 lie below exp(-32), on the P2 branch, which a keyed draw
        # reaches with odds of about 1e-14.
        + [2.0**-54, 1.0 - 2.0**-53, 1e-20, 1e-300, 0.5]
    )
    assert ulps(_ndtri(u), ndtri(u)).max() <= 4
    central = (u > _EXP_M2) & (u <= 1.0 - _EXP_M2)
    assert np.array_equal(_ndtri(u[central]), ndtri(u[central]))


def reference_keyed_uniforms(seed: int, purpose: int, indices) -> np.ndarray:
    """The keyed uniforms as one whole-array formula: splitmix64 rounds over
    (seed, purpose, index columns), then the 53 high bits."""
    m1, m2, gold = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB), np.uint64(0x9E3779B97F4A7C15)

    def mix(h):
        h = (h ^ (h >> np.uint64(30))) * m1
        h = (h ^ (h >> np.uint64(27))) * m2
        return h ^ (h >> np.uint64(31))

    idx = np.asarray(indices, dtype=np.uint64)
    if idx.ndim == 1:
        idx = idx[:, None]
    with np.errstate(over="ignore"):
        h = np.full(idx.shape[0], np.uint64(int(seed) & (2**64 - 1)), dtype=np.uint64)
        h = mix(h ^ (np.uint64(int(purpose) & (2**64 - 1)) * gold))
        for j in range(idx.shape[1]):
            h = mix(h ^ (idx[:, j] * gold + np.uint64(j + 1)))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@pytest.mark.parametrize("n", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_blocked_keyed_draws_equal_the_whole_array_formula(n, d, seed):
    idx = np.random.default_rng(n + d).integers(1, 2**40, size=(n, d))
    want = reference_keyed_uniforms(seed, _rng.GAUSS_COEFF, idx)
    got = keyed_uniforms(seed, _rng.GAUSS_COEFF, idx)
    assert got.shape == (n,) and np.array_equal(got.view(np.int64), want.view(np.int64))
    normals = _rng.keyed_normals(seed, _rng.GAUSS_COEFF, idx)
    assert np.array_equal(normals.view(np.int64), _ndtri(want).view(np.int64))
    if d == 1:
        assert np.array_equal(keyed_uniforms(seed, _rng.GAUSS_COEFF, idx[:, 0]), want)


def test_one_work_serves_calls_of_every_size_as_fresh_temporaries_do():
    # Each call overwrites what the last one left in the work arrays.
    work = _rng.KeyedWork(3 * (1 << 16) + 5)
    for n, d in [(3 * (1 << 16) + 5, 2), (7, 1), (1 << 16, 3), (0, 2), (70_000, 1)]:
        idx = np.random.default_rng(n + d).integers(1, 2**40, size=(n, d))
        want = _rng.keyed_normals(5, _rng.GAUSS_COEFF, idx)
        assert np.array_equal(_rng.keyed_normals(5, _rng.GAUSS_COEFF, idx, work).view(np.int64), want.view(np.int64))


def test_bit_identical_to_scipy_with_avx512_log_off():
    # Disable every dispatched AVX-512 target the CPU has; with none present
    # this is the plain comparison.  numpy's log then runs libm, as scipy does.
    src = str(Path(_rng.__file__).resolve().parents[1])
    code = (
        "import os\n"
        "import numpy as np\n"
        "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
        "from scipy.special import ndtri\n"
        "from levy_elliptic import _rng\n"
        "off = os.environ['NPY_DISABLE_CPU_FEATURES'].split()\n"
        "assert not any(f[k] for k in off), off\n"
        "u = _rng._keyed_into(7, _rng.GAUSS_COEFF, np.arange(1 << 20), np.empty((2, 1 << 20), np.uint64))\n"
        "print(np.count_nonzero(_rng._ndtri(u).view(np.int64) != ndtri(u).view(np.int64)))\n"
    )
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    avx512 = [k for k in __cpu_dispatch__ if __cpu_features__.get(k) and (k.startswith("AVX512") or k == "X86_V4")]
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_keyed_uniforms_stay_inside_the_open_interval():
    # _ndtri reads (0, 1) only; at 0 or 1 it would return nan.
    u = keyed_uniforms(2**64 - 1, _rng.GAUSS_COEFF, np.arange(1 << 12))
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.all(np.isfinite(_ndtri(u)))


def test_the_all_ones_hash_word_gives_a_finite_normal(monkeypatch):
    # (2^53 - 1 + 1/2) 2^-53 rounds to 1.0, where _ndtri is nan; it is clamped below 1.
    def plant(h, scratch):
        h.fill(np.uint64(2**64 - 1))

    monkeypatch.setattr(_rng, "_mix_into", plant)
    idx = np.arange(1, 4)[:, None]
    assert np.array_equal(keyed_uniforms(5, _rng.GAUSS_COEFF, idx), np.full(3, 1.0 - 2.0**-53))
    normals = _rng.keyed_normals(5, _rng.GAUSS_COEFF, idx)
    assert np.all(np.isfinite(normals)) and np.all(normals > 8.0)


def test_sign_and_skip_helpers_refuse_bit_generators_other_than_pcg64():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64"):
        _rng.uniforms_and_signs(rng, 4)
    with pytest.raises(TypeError, match="PCG64"):
        _rng.skip_uniforms(rng, 4)


def test_uniforms_and_signs_and_skip_uniforms_match_the_words_they_replace():
    rng = _rng.stream(3, _rng.BATCH_STREAM)
    u, signs = _rng.uniforms_and_signs(rng, 4096)
    ref = _rng.stream(3, _rng.BATCH_STREAM)
    words = ref.bit_generator.random_raw(4096)
    assert np.array_equal(u, ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52)
    assert np.array_equal(signs, (words & np.uint64(1)) << np.uint64(63))
    assert np.array_equal(rng.random(8), ref.random(8))
    skipped, drawn = _rng.stream(3, _rng.BATCH_STREAM), _rng.stream(3, _rng.BATCH_STREAM)
    _rng.skip_uniforms(skipped, 1001)
    drawn.random(1001)
    assert np.array_equal(skipped.random(8), drawn.random(8))
