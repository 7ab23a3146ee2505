import ast
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.stats import kstest

import levy_elliptic
from levy_elliptic import _rng
from levy_elliptic.config import ConfigError

from levy_elliptic.measures import (
    FAMILIES,
    AlphaStable,
    _stable_cos_constant,
    LevyTriplet,
    NullMeasure,
    SymmetricTwoPoint,
    VarianceGamma,
    band_variance,
    characteristic_exponent,
    jump_exponent_quadrature,
    parse_measure,
    sample_band_jump_sizes,
    sample_jump_sizes,
)

ALL_MEASURES = [
    AlphaStable(0.7),
    AlphaStable(1.0),
    AlphaStable(1.5),
    SymmetricTwoPoint(1.0, 1.0),
    SymmetricTwoPoint(2.0, 0.4),
    VarianceGamma(1.0, 1.0),
    VarianceGamma(0.5, 2.0),
    NullMeasure(),
]


def stable_density(alpha):
    return lambda z: 0.5 * alpha * np.abs(z) ** (-alpha - 1.0)


def vg_density(c, m):
    return lambda z: c / np.abs(z) * np.exp(-m * np.abs(z))


def quad_oracle(density, fn, lo, hi):
    # Independent quadrature over |z| in (lo, hi), both sign branches folded.
    val, _ = integrate.quad(lambda z: 2.0 * fn(z) * density(z), lo, hi, limit=400)
    return val


class TestCharacteristicExponent:
    def test_psi_zero_is_zero(self):
        trip = LevyTriplet(0.0, 0.0, SymmetricTwoPoint(1.0, 1.0))
        assert characteristic_exponent(trip, 0.0) == 0.0

    def test_two_point_closed_form(self):
        # rate * (cos(u a) - 1) at u = pi, a = 1 gives -2.
        trip = LevyTriplet(0.0, 0.0, SymmetricTwoPoint(1.0, 1.0))
        psi = characteristic_exponent(trip, math.pi)
        assert psi.imag == 0.0
        assert psi.real == pytest.approx(1.0 * (math.cos(math.pi) - 1.0), abs=1e-15)
        assert psi.real == pytest.approx(-2.0, abs=1e-15)

    def test_stable_alpha_one_quadrature_oracle(self):
        # Oracle: adaptive quadrature of the cosine integral, written here
        # independently of the closed form under test.
        u = 1.0
        head, _ = integrate.quad(
            lambda z: (np.cos(u * z) - 1.0) * z**-2.0, 0.0, 1.0, limit=400
        )
        osc, _ = integrate.quad(
            lambda z: z**-2.0, 1.0, np.inf, weight="cos", wvar=u, limit=400
        )
        mass, _ = integrate.quad(lambda z: z**-2.0, 1.0, np.inf, limit=400)
        oracle = head + osc - mass
        assert oracle == pytest.approx(-math.pi / 2.0, abs=1e-9)
        trip = LevyTriplet(0.0, 0.0, AlphaStable(1.0))
        assert characteristic_exponent(trip, 1.0).real == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("measure", [AlphaStable(0.7), AlphaStable(1.3), VarianceGamma(1.0, 1.0)])
    @pytest.mark.parametrize("u", [1e-4, 1e-2, 0.3, 1.0, 2.7])
    def test_closed_form_matches_quadrature_route(self, measure, u):
        # Relative only: at u = 1e-4 the variance-gamma exponent is about -1e-8.
        assert measure.jump_exponent(np.asarray(u)) == pytest.approx(
            jump_exponent_quadrature(measure, u), rel=1e-8, abs=0.0
        )

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_conjugate_symmetry_and_drift_imaginary_part(self, measure):
        trip = LevyTriplet(0.4, 0.3, measure)
        for u in np.linspace(-5.0, 5.0, 21):
            psi = characteristic_exponent(trip, float(u))
            assert psi == np.conj(characteristic_exponent(trip, float(-u)))
            assert psi.imag == trip.b * u

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_real_part_nonpositive(self, measure):
        trip = LevyTriplet(0.0, 0.5, measure)
        for u in np.linspace(-8.0, 8.0, 33):
            assert characteristic_exponent(trip, float(u)).real <= 1e-15

    def test_stable_constant_matches_scipy_gamma(self):
        # math.gamma in place of scipy.special.gamma, through the alpha = 1 limit.
        alphas = np.append(np.linspace(0.001, 1.999, 1999), 1.0)
        ours = np.array([_stable_cos_constant(a) for a in alphas])
        ref = special.gamma(2.0 - alphas) * (np.pi / 2.0) * np.sinc((alphas - 1.0) / 2.0)
        np.testing.assert_allclose(ours, ref, rtol=1e-15, atol=0.0)
        assert _stable_cos_constant(1.0) == math.pi / 2.0

    def test_nonfinite_u_rejected(self):
        trip = LevyTriplet(0.0, 0.0, NullMeasure())
        with pytest.raises(ValueError):
            characteristic_exponent(trip, math.inf)
        with pytest.raises(ValueError):
            characteristic_exponent(trip, math.nan)


class TestClosedForms:
    def test_stable_alpha_one_closed_forms(self):
        assert AlphaStable(1.0).tail_mass(1.0) == 1.0
        assert AlphaStable(1.0).truncated_variance(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_null_measure_all_zero(self):
        assert (NullMeasure().tail_mass(0.3), NullMeasure().truncated_variance(0.3)) == (0, 0)

    @pytest.mark.parametrize(
        "measure",
        [AlphaStable(0.7), AlphaStable(1.5), VarianceGamma(1.0, 1.0), VarianceGamma(0.5, 2.0)],
    )
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_closed_forms_match_quadrature(self, measure, eps):
        if isinstance(measure, AlphaStable):
            density = stable_density(measure.alpha)
        else:
            density = vg_density(measure.c, measure.m)
        assert measure.tail_mass(eps) == pytest.approx(
            quad_oracle(density, lambda z: 1.0, eps, np.inf), rel=1e-8
        )
        assert measure.truncated_variance(eps) == pytest.approx(
            quad_oracle(density, lambda z: z * z, 0.0, eps), rel=1e-8
        )
        z = np.array([0.01, 0.3, 2.0])
        assert measure.density(z) == pytest.approx(density(z), rel=1e-14)

    def test_two_point_atoms(self):
        m = SymmetricTwoPoint(2.0, 0.4)
        assert m.tail_mass(0.3) == 2.0
        assert m.tail_mass(0.4) == 0.0
        assert m.truncated_variance(0.4) == pytest.approx(2.0 * 0.16, rel=1e-15)

    def test_band_variance(self):
        assert band_variance(AlphaStable(1.0), 0.1, 1.0) == pytest.approx(0.9, rel=1e-14)
        assert band_variance(SymmetricTwoPoint(1.0, 0.8), 0.5, 1.0) == pytest.approx(0.64)

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_small_jump_index(self, measure):
        # inf of p with int_{|z|<=1} |z|^p nu(dz) finite: alpha for stable, 0 for the rest.
        expected = measure.alpha if isinstance(measure, AlphaStable) else 0.0
        assert measure.small_jump_index == expected


def raw_uniforms_and_signs(seed, n):
    """A jump's uniform ((w >> 12) + 1/2) 2^-52 and sign (-1)^(w & 1) from each
    of the first n raw words of default_rng(seed), and the generator after them."""
    rng = np.random.default_rng(seed)
    words = rng.bit_generator.random_raw(n)
    u = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    return rng, u, np.where(words & np.uint64(1), -1.0, 1.0)


class FixedWords(np.random.PCG64):
    """PCG64 whose ``random_raw`` returns given words; other draws run as seed 0."""

    def __init__(self, words):
        super().__init__(0)
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size=None, output=True):
        return self.words[:size].copy()


def negative_share_by_quartile(z):
    """Share of negative sizes in each quartile of |z|."""
    mags = np.abs(z)
    quartile = np.searchsorted(np.quantile(mags, [0.25, 0.5, 0.75]), mags)
    return np.array([np.mean(z[quartile == q] < 0.0) for q in range(4)])


class TestSamplers:
    def test_two_point_support(self):
        rng = np.random.default_rng(0)
        z = sample_jump_sizes(SymmetricTwoPoint(1.0, 1.0), 0.5, rng, size=4000)
        assert set(np.unique(z)) == {-1.0, 1.0}
        assert abs(np.mean(z > 0) - 0.5) < 0.03

    def test_stable_inverse_tail_ks(self):
        rng = np.random.default_rng(1)
        z = sample_jump_sizes(AlphaStable(1.0), 1.0, rng, size=100_000)
        # |z| has tail P(|z| > t) = 1/t above the truncation at 1.
        stat = kstest(np.abs(z), lambda t: 1.0 - 1.0 / t).statistic
        assert stat < 0.01

    def test_sign_symmetry(self):
        rng = np.random.default_rng(2)
        z = sample_jump_sizes(AlphaStable(1.5), 0.5, rng, size=100_000)
        assert abs(np.mean(np.sign(z))) <= 0.02

    def test_variance_gamma_rejection_ks(self):
        c, m, eps = 1.0, 1.0, 0.2
        rng = np.random.default_rng(3)
        z = sample_jump_sizes(VarianceGamma(c, m), eps, rng, size=50_000)
        assert np.all(np.abs(z) > eps)
        total = special.exp1(m * eps)

        def cdf(t):
            return (special.exp1(m * eps) - special.exp1(m * t)) / total

        assert kstest(np.abs(z), cdf).statistic < 0.012

    def test_band_sampler_stable(self):
        rng = np.random.default_rng(4)
        z = sample_jump_sizes(AlphaStable(1.0), 0.1, rng, size=50_000, hi=1.0)
        assert np.all((np.abs(z) > 0.1) & (np.abs(z) <= 1.0))
        lo_tail, hi_tail = 0.1**-1.0, 1.0
        span = lo_tail - hi_tail

        def cdf(t):
            return (lo_tail - t**-1.0) / span

        assert kstest(np.abs(z), cdf).statistic < 0.012

    def test_band_sampler_variance_gamma_ks(self):
        c, m, lo, hi = 1.0, 1.0, 0.05, 1.0
        rng = np.random.default_rng(8)
        z = sample_jump_sizes(VarianceGamma(c, m), lo, rng, size=50_000, hi=hi)
        assert np.all((np.abs(z) > lo) & (np.abs(z) <= hi))
        band = special.exp1(m * lo) - special.exp1(m * hi)

        def cdf(t):
            return (special.exp1(m * lo) - special.exp1(m * t)) / band

        assert kstest(np.abs(z), cdf).statistic < 0.012

    def test_band_sampler_two_point(self):
        rng = np.random.default_rng(9)
        z = sample_jump_sizes(SymmetricTwoPoint(1.0, 0.8), 0.5, rng, size=1000, hi=1.0)
        assert set(np.unique(z)) == {-0.8, 0.8}
        with pytest.raises(ValueError, match="no jumps"):
            sample_jump_sizes(SymmetricTwoPoint(1.0, 0.8), 0.1, rng, size=10, hi=0.5)

    def test_band_wrapper_draws_what_the_sampler_draws(self):
        z = sample_band_jump_sizes(AlphaStable(1.5), 0.1, 1.0, np.random.default_rng(12), size=100)
        ref = sample_jump_sizes(AlphaStable(1.5), 0.1, np.random.default_rng(12), size=100, hi=1.0)
        assert np.array_equal(z, ref)

    def test_band_needs_lo_below_hi(self):
        with pytest.raises(ValueError, match="lo < hi"):
            sample_jump_sizes(AlphaStable(1.0), 1.0, np.random.default_rng(0), size=1, hi=1.0)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
    def test_unbounded_stable_draws_the_inverse_tail_bit_for_bit(self, alpha):
        z = sample_jump_sizes(AlphaStable(alpha), 0.01, np.random.default_rng(10), size=1000)
        _, u, signs = raw_uniforms_and_signs(10, 1000)
        expected = signs * (0.01 * np.exp(np.log(u) * (-1.0 / alpha)))
        assert np.array_equal(z, expected)

    @pytest.mark.parametrize("lo, hi", [(0.1, math.inf), (1e-6, 1.0), (0.7, 3.0)])
    def test_variance_gamma_replays_the_two_piece_rejection_bit_for_bit(self, lo, hi):
        # Replays the sampler: a piece per draw, picked by the jump's word and
        # weighted by E1 differences, then log-uniform proposals on (lo, c]
        # kept when V < e^(-m(z-lo)) and truncated c + Exp(m) proposals on
        # (c, hi] kept when V < c/z, all from the words after the jumps'.
        measure, n = VarianceGamma(1.0, 2.0), 500
        z = sample_jump_sizes(measure, lo, np.random.default_rng(11), size=n, hi=hi)
        rng, u, signs = raw_uniforms_and_signs(11, n)
        m = 2.0
        c = min(max(lo, 1.0 / m), hi)
        e_lo, e_c, e_hi = special.exp1(m * lo), special.exp1(m * c), special.exp1(m * hi)
        below = u * (e_lo - e_hi) < e_lo - e_c

        def replay(count, propose, keep):
            kept = []
            while len(kept) < count:
                batch = 2 * (count - len(kept)) + 16
                prop = propose(rng.random(batch))
                kept.extend(prop[rng.random(batch) < keep(prop)][: count - len(kept)])
            return kept

        mags = np.empty(n)
        mags[below] = replay(
            int(below.sum()), lambda v: lo * np.exp(math.log(c / lo) * v), lambda t: np.exp(-m * (t - lo))
        )
        cut = -math.expm1(-m * (hi - c))
        mags[~below] = replay(int((~below).sum()), lambda v: c - np.log1p(-cut * v) / m, lambda t: c / t)
        assert np.array_equal(z, signs * mags)
        # Each piece draws exactly when it carries mass.
        assert below.any() == (c > lo) and (~below).any() == (c < hi)

    @pytest.mark.parametrize("hi", [math.inf, 1.0])
    def test_variance_gamma_band_near_zero_ks(self, hi):
        # At lo = 1e-6 a proposal lo + Exp(m) kept with probability lo/z is kept
        # about once in 7e4 tries; the two-piece proposal keeps most.
        c, m, lo = 1.0, 1.0, 1e-6
        z = sample_jump_sizes(VarianceGamma(c, m), lo, np.random.default_rng(21), size=50_000, hi=hi)
        assert np.all((np.abs(z) > lo) & (np.abs(z) <= hi))
        band = special.exp1(m * lo) - special.exp1(m * hi)

        def cdf(t):
            return (special.exp1(m * lo) - special.exp1(m * t)) / band

        assert kstest(np.abs(z), cdf).statistic < 0.012

    @pytest.mark.parametrize("size", [1000, 1])
    @pytest.mark.parametrize("hi", [1.0, np.inf])
    @pytest.mark.parametrize("measure", [AlphaStable(0.7), AlphaStable(1.0), AlphaStable(1.5)])
    def test_stable_band_draws_magnitude_and_sign_from_one_word_bit_for_bit(self, measure, hi, size):
        alpha = measure.alpha
        z = sample_jump_sizes(measure, 0.01, np.random.default_rng(12), size=size, hi=hi)
        _, u, signs = raw_uniforms_and_signs(12, size)
        r = (0.01 / hi) ** alpha
        expected = signs * (0.01 * np.exp(np.log(r + (1.0 - r) * u) * (-1.0 / alpha)))
        assert np.array_equal(z, expected)

    @pytest.mark.parametrize("size", [1000, 1])
    @pytest.mark.parametrize("hi", [1.0, np.inf])
    def test_variance_gamma_draws_magnitude_and_sign_from_one_word_bit_for_bit(self, hi, size):
        measure = VarianceGamma(1.0, 1.0)
        z = sample_jump_sizes(measure, 0.01, np.random.default_rng(14), size=size, hi=hi)
        rng, u, signs = raw_uniforms_and_signs(14, size)
        assert np.array_equal(z, signs * measure.band_magnitudes(0.01, hi, u, rng))

    def test_two_point_draws_its_sign_from_one_word_bit_for_bit(self):
        z = sample_jump_sizes(SymmetricTwoPoint(2.0, 0.8), 0.5, np.random.default_rng(13), size=1000)
        _, _, signs = raw_uniforms_and_signs(13, 1000)
        assert np.array_equal(z, signs * 0.8)

    @pytest.mark.parametrize(
        "measure, lo, hi",
        [
            (AlphaStable(0.7), 0.01, math.inf),
            (AlphaStable(1.5), 0.01, math.inf),
            (AlphaStable(1.5), 0.01, 1.0),
            (AlphaStable(1.9), 0.7, 3.0),
            (VarianceGamma(1.0, 1.0), 0.01, math.inf),
            (VarianceGamma(1.0, 2.0), 0.7, 3.0),
            (SymmetricTwoPoint(2.0, 0.8), 0.5, 1.0),
        ],
    )
    def test_extreme_words_give_finite_sizes_in_the_band(self, measure, lo, hi):
        # Words whose top 53 bits are 0 made Generator.random return 0.0, and
        # 0.0 ** (-1/alpha) an infinite stable jump.  The top word's uniform is
        # 1 - 2^-53, whose exact stable magnitude lo (1 - 2^-53)^(-1/alpha)
        # lies within half an ulp of lo for alpha >= 1 and so rounds to lo.
        words = [0, 2**11 - 1, 2**64 - 1]
        u, _ = _rng.uniforms_and_signs(np.random.Generator(FixedWords(words)), 3)
        assert np.all((u > 0.0) & (u < 1.0))
        z = sample_jump_sizes(measure, lo, np.random.Generator(FixedWords(words)), size=3, hi=hi)
        assert np.array_equal(np.signbit(z), [False, True, True])
        assert np.all(np.isfinite(z)) and np.all(np.abs(z) <= hi)
        assert np.all(np.abs(z[:2]) > lo) and abs(z[2]) >= lo

    def test_sign_is_independent_of_the_magnitude(self):
        n = 1 << 18
        z = sample_jump_sizes(AlphaStable(1.5), 0.01, np.random.default_rng(30), size=n)
        bound = 4.0 * math.sqrt(0.25 / (n // 4))
        assert np.all(np.abs(negative_share_by_quartile(z) - 0.5) <= bound)
        # A planted defect: the sign from bit 63 of the magnitude's own word,
        # that is from u >= 1/2, makes every small jump negative.
        words = np.random.default_rng(30).bit_generator.random_raw(n)
        planted = np.where(words >> np.uint64(63), -1.0, 1.0) * np.abs(z)
        assert not np.all(np.abs(negative_share_by_quartile(planted) - 0.5) <= bound)

    def test_empty_support_errors(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="no jumps"):
            sample_jump_sizes(NullMeasure(), 0.5, rng, size=1)
        with pytest.raises(ValueError, match="no jumps"):
            sample_jump_sizes(SymmetricTwoPoint(1.0, 0.3), 0.5, rng, size=1)

    def test_infinite_intensity_errors(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_jump_sizes(AlphaStable(1.0), 0.0, rng, size=1)

    @pytest.mark.parametrize("measure", [m for m in ALL_MEASURES if m.tail_mass(0.01) > 0.0])
    @pytest.mark.parametrize("hi", [1.0, np.inf])
    def test_empty_draw_takes_no_words(self, measure, hi):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        z = sample_jump_sizes(measure, 0.01, rng, size=0, hi=hi)
        assert z.shape == (0,) and z.dtype == np.float64
        assert rng.bit_generator.state == state


def scalar_exponent(trip, u):
    """The exponent as it was written before it took arrays: math-module scalars."""
    measure = trip.measure
    if isinstance(measure, SymmetricTwoPoint):
        jump = measure.rate * (math.cos(u * measure.magnitude) - 1.0)
    elif isinstance(measure, AlphaStable):
        jump = -_stable_cos_constant(measure.alpha) * abs(u) ** measure.alpha
    elif isinstance(measure, VarianceGamma):
        jump = -measure.c * math.log1p((u / measure.m) ** 2)
    else:
        jump = 0.0
    return complex(-0.5 * trip.sigma**2 * u * u + jump, trip.b * u)


class TestArrayExponent:
    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_array_form_matches_scalar_form(self, measure):
        trip = LevyTriplet(0.3, 0.7, measure)
        u = np.linspace(-20.0, 20.0, 401)[:, None] * np.array([1.0, 1e-3])
        arr = characteristic_exponent(trip, u)
        assert arr.shape == u.shape and arr.dtype == complex
        # SIMD and scalar pow may round apart by an ulp, so not bit for bit.
        expected = np.vectorize(lambda v: scalar_exponent(trip, v), otypes=[complex])(u)
        assert np.allclose(arr, expected, rtol=1e-15, atol=0.0)
        one_by_one = np.vectorize(lambda v: characteristic_exponent(trip, v), otypes=[complex])(u)
        assert np.allclose(arr, one_by_one, rtol=1e-15, atol=0.0)

    def test_scalar_form_stays_scalar(self):
        trip = LevyTriplet(0.3, 0.7, AlphaStable(1.5))
        assert isinstance(characteristic_exponent(trip, 1.0), complex)

    def test_any_non_finite_entry_is_refused(self):
        trip = LevyTriplet(0.0, 1.0, AlphaStable(1.5))
        with pytest.raises(ValueError):
            characteristic_exponent(trip, np.array([0.0, np.nan]))

    def test_non_finite_refusal_counts_instead_of_listing(self):
        u = np.full(10_000, 1.5)
        u[::100] = np.inf
        with pytest.raises(ValueError) as info:
            characteristic_exponent(LevyTriplet(0.0, 1.0, AlphaStable(1.5)), u)
        assert str(info.value) == "u must be finite, got 100 non-finite of 10000 values"


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.3, 2.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            AlphaStable(alpha)

    def test_two_point_params(self):
        with pytest.raises(ValueError):
            SymmetricTwoPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            SymmetricTwoPoint(1.0, -1.0)

    @pytest.mark.parametrize(
        "c,m,message",
        [
            (0.0, 1.0, "c must be > 0, got 0.0"),
            (-1.0, 1.0, "c must be > 0, got -1.0"),
            (1.0, 0.0, "m must be > 0, got 0.0"),
            (1.0, -2.0, "m must be > 0, got -2.0"),
        ],
    )
    def test_variance_gamma_params(self, c, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            VarianceGamma(c, m)

    def test_triplet_sigma(self):
        with pytest.raises(ValueError):
            LevyTriplet(0.0, -0.1, NullMeasure())

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_levy_condition_finite_at_construction(self, measure):
        LevyTriplet(0.0, 1.0, measure)  # no raise



# float.hex of tail mass and truncated variance at RADII and jump exponent at
# FREQS, as the per-function closed forms computed them before the families
# carried their own methods; the methods must keep every bit.
RADII = [0.0, 0.01, 0.4, 1.0, 2.5]
FREQS = [0.0, 0.01, 0.5, 1.0, 3.0]
PINNED = {
    'AlphaStable(alpha=0.7)': (
        ['inf', '0x1.91e6de449ff75p+4', '0x1.e62e5531fd7eap+0', '0x1.0000000000000p+0', '0x1.0d9856dd52513p-1'],
        ['0x0.0p+0', '0x1.629060c6abf06p-10', '0x1.4f1744f58e6bcp-3', '0x1.13b13b13b13b1p-1', '0x1.c5a54365a5976p+0'],
        ['-0x0.0p+0', '-0x1.baee3ee41e1e2p-5', '-0x1.ac0cdcf14525cp-1', '-0x1.5baf5190955c5p+0', '-0x1.77182db43cea1p+1'],
    ),
    'AlphaStable(alpha=1.0)': (
        ['inf', '0x1.9000000000000p+6', '0x1.4000000000000p+1', '0x1.0000000000000p+0', '0x1.999999999999ap-2'],
        ['0x0.0p+0', '0x1.47ae147ae147bp-7', '0x1.999999999999ap-2', '0x1.0000000000000p+0', '0x1.4000000000000p+1'],
        ['-0x0.0p+0', '-0x1.015bf9217271ap-6', '-0x1.921fb54442d18p-1', '-0x1.921fb54442d18p+0', '-0x1.2d97c7f3321d2p+2'],
    ),
    'AlphaStable(alpha=1.5)': (
        ['inf', '0x1.f400000000000p+9', '0x1.f9f6e4990f226p+1', '0x1.0000000000000p+0', '0x1.030dc4ea03a72p-2'],
        ['0x0.0p+0', '0x1.3333333333334p-2', '0x1.e5b9d136c6d96p+0', '0x1.8000000000000p+1', '0x1.2f9422c23c47ep+2'],
        ['-0x0.0p+0', '-0x1.488c7cecf010bp-9', '-0x1.c5bf891b4ef6ap-1', '-0x1.40d931ff62705p+1', '-0x1.a0cb58ba43432p+3'],
    ),
    'SymmetricTwoPoint(rate=2.0, magnitude=0.4)': (
        ['0x1.0000000000000p+1', '0x1.0000000000000p+1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
        ['0x0.0p+0', '0x0.0p+0', '0x1.47ae147ae147cp-2', '0x1.47ae147ae147cp-2', '0x1.47ae147ae147cp-2'],
        ['0x0.0p+0', '-0x1.0c6f629690000p-16', '-0x1.4696d5113b0c0p-5', '-0x1.43558c122e840p-3', '-0x1.46790b5e24318p+0'],
    ),
    'VarianceGamma(c=1.0, m=1.0)': (
        ['inf', '0x1.026d702cb211ap+3', '0x1.679e5defc6f84p+0', '0x1.c14c5d3bf8f9cp-2', '0x1.9834bd5bdc853p-5'],
        ['0x0.0p+0', '0x1.a0a5081f5bf00p-14', '0x1.f83bc3c62eb30p-4', '0x1.0e95393a62190p-1', '0x1.6ce757bbed530p+0'],
        ['-0x0.0p+0', '-0x1.a368d06580001p-14', '-0x1.c8ff7c79a9a22p-3', '-0x1.62e42fefa39efp-1', '-0x1.26bb1bbb55516p+1'],
    ),
    'VarianceGamma(c=0.5, m=2.0)': (
        ['inf', '0x1.ad67108c79d67p+1', '0x1.3e0d078c6910ap-2', '0x1.9097cdc7f6561p-5', '0x1.2d04d00aecaf6p-10'],
        ['0x0.0p+0', '0x1.9de134ff8e400p-15', '0x1.8797fd292e9b0p-5', '0x1.3020005305ea7p-3', '0x1.eb4d1017f6016p-3'],
        ['-0x0.0p+0', '-0x1.a36cd71a4d5acp-17', '-0x1.f0a30c01162a6p-6', '-0x1.c8ff7c79a9a22p-4', '-0x1.2dbc55768deb3p-1'],
    ),
    'NullMeasure()': (
        ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
        ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
        ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
    ),
}


class TestPinnedClosedForms:
    @pytest.mark.parametrize(
        "measure",
        [AlphaStable(0.7), AlphaStable(1.0), AlphaStable(1.5), SymmetricTwoPoint(2.0, 0.4),
         VarianceGamma(1.0, 1.0), VarianceGamma(0.5, 2.0), NullMeasure()],
        ids=repr,
    )
    def test_every_bit(self, measure):
        tail, trunc, psi = PINNED[repr(measure)]
        assert [float(measure.tail_mass(r)).hex() for r in RADII] == tail
        assert [float(measure.truncated_variance(r)).hex() for r in RADII] == trunc
        assert [float(v).hex() for v in measure.jump_exponent(np.array(FREQS))] == psi


POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
FAMILY_INSTANCES = st.one_of(
    st.builds(AlphaStable, st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True)),
    st.builds(SymmetricTwoPoint, POSITIVE, POSITIVE),
    st.builds(VarianceGamma, POSITIVE, POSITIVE),
    st.just(NullMeasure()),
)


class TestRegistry:
    @given(FAMILY_INSTANCES)
    def test_dict_to_class_to_dict(self, measure):
        doc = json.loads(json.dumps(measure.to_dict()))
        assert parse_measure(doc) == measure
        assert parse_measure(doc).to_dict() == doc

    @given(FAMILY_INSTANCES)
    def test_shorthand_takes_the_fields_in_order(self, measure):
        args = ",".join(repr(getattr(measure, f.name)) for f in fields(measure))
        for head in (measure.kind, *measure.heads):
            assert parse_measure(f"{head.upper()}:{args}" if args else head) == measure

    @pytest.mark.parametrize(
        "spec,path",
        [
            ({"kind": "alpha_stable", "alpha": 1.5, "beta": 3}, "m.beta"),
            ({"kind": "alpha_stable", "alpha": True}, "m.alpha"),
            ({"kind": "alpha_stable", "alpha": "1.5"}, "m.alpha"),
            ({"kind": "variance_gamma", "c": 1.0}, "m.m"),
            ({"kind": "null", "rate": 1.0}, "m.rate"),
            ({"kind": "cauchy"}, "m.kind"),
            ({"alpha": 1.5}, "m.kind"),
            ({"kind": "alpha_stable", "alpha": 2.5}, "m"),
            ("twopoint:1", "m"),
            ("vgamma:1,x", "m"),
            ("null:1", "m"),
            (1.5, "m"),
        ],
    )
    def test_bad_spec_is_refused_at_its_key(self, spec, path):
        with pytest.raises(ConfigError) as exc:
            parse_measure(spec, "m")
        assert exc.value.path == path


def test_no_module_but_measures_names_a_family():
    family_names = {cls.__name__ for cls in FAMILIES.values()}
    for path in sorted(Path(levy_elliptic.__file__).parent.glob("*.py")):
        if path.name in ("measures.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & family_names, path.name
