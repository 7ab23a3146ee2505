"""The numpy port of Cephes ndtri behind keyed Gaussian draws."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from levy_elliptic import _rng
from levy_elliptic._rng import _EXP_M2, _ndtri, keyed_uniforms


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


def test_blocks_do_not_change_values(monkeypatch):
    whole = _ndtri(UNIFORMS)
    monkeypatch.setattr(_rng, "_NDTRI_BLOCK", 1000)
    assert np.array_equal(_ndtri(UNIFORMS), whole)
    assert _ndtri(UNIFORMS[:0]).shape == (0,)


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
        "u = _rng.keyed_uniforms(7, _rng.GAUSS_COEFF, np.arange(1 << 20))\n"
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
    u = keyed_uniforms(2**64 - 1, _rng.SMALL_JUMP_COEFF, np.arange(1 << 12))
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.all(np.isfinite(_ndtri(u)))


def test_sign_and_skip_helpers_refuse_bit_generators_other_than_pcg64():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64"):
        _rng.random_signs(np.ones(4), rng)
    with pytest.raises(TypeError, match="PCG64"):
        _rng.skip_uniforms(rng, 4)


def test_random_signs_and_skip_uniforms_match_the_uniforms_they_replace():
    mags = np.random.default_rng(1).random(4096) + 0.5
    got = _rng.random_signs(mags.copy(), _rng.stream(3, _rng.BATCH_STREAM))
    uniforms = _rng.stream(3, _rng.BATCH_STREAM).random(4096)
    assert np.array_equal(got, np.where(uniforms < 0.5, -1.0, 1.0) * mags)
    skipped, drawn = _rng.stream(3, _rng.BATCH_STREAM), _rng.stream(3, _rng.BATCH_STREAM)
    _rng.skip_uniforms(skipped, 1001)
    drawn.random(1001)
    assert np.array_equal(skipped.random(8), drawn.random(8))
