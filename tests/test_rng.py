"""The PCG64 streams of ``_rng``: the Gaussian part's draws and the raw-word helpers."""

import numpy as np
import pytest

from levy_elliptic import _rng

N = 3 * (1 << 16) + 5


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
@pytest.mark.parametrize("cuts", [[], [1], [(1 << 16) - 1, 1 << 16], [7, 70_000, 131_072], [N]])
def test_keyed_normals_cut_anywhere_are_one_standard_normal_call(seed, cuts):
    # A listing's Gaussian part is drawn block by block; the cuts never move a draw.
    whole = _rng.stream(seed, _rng.GAUSS_COEFF).standard_normal(N)
    rng = _rng.stream(seed, _rng.GAUSS_COEFF)
    parts = [_rng.keyed_normals(rng, b - a) for a, b in zip([0, *cuts], [*cuts, N])]
    assert np.array_equal(np.concatenate(parts), whole)


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
