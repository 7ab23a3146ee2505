import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import kstest

from levy_elliptic.measures import (
    AlphaStable,
    _stable_cos_constant,
    LevyTriplet,
    NullMeasure,
    SymmetricTwoPoint,
    VarianceGamma,
    band_variance,
    characteristic_exponent,
    jump_exponent,
    jump_exponent_quadrature,
    measure_from_dict,
    measure_to_dict,
    nu_stats,
    sample_band_jump_sizes,
    sample_jump_sizes,
    small_moment,
    tail_mass,
    truncated_variance,
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
    @pytest.mark.parametrize("u", [0.3, 1.0, 2.7])
    def test_closed_form_matches_quadrature_route(self, measure, u):
        assert jump_exponent(measure, u) == pytest.approx(
            jump_exponent_quadrature(measure, u), rel=1e-8, abs=1e-10
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

    def test_nonfinite_u_rejected(self):
        trip = LevyTriplet(0.0, 0.0, NullMeasure())
        with pytest.raises(ValueError):
            characteristic_exponent(trip, math.inf)
        with pytest.raises(ValueError):
            characteristic_exponent(trip, math.nan)


class TestNuStats:
    def test_stable_alpha_one_closed_forms(self):
        stats = nu_stats(AlphaStable(1.0), eps=1.0, p=1.5)
        assert stats.tail_mass == 1.0
        assert stats.small_variance == pytest.approx(1.0, rel=1e-14)
        assert stats.p_moment_small == pytest.approx(2.0, rel=1e-14)

    def test_null_measure_all_zero(self):
        stats = nu_stats(NullMeasure(), eps=0.3, p=2.0)
        assert (stats.tail_mass, stats.small_variance, stats.p_moment_small) == (0, 0, 0)

    def test_stable_divergent_moment_flag(self):
        assert nu_stats(AlphaStable(1.0), eps=1.0, p=0.5).p_moment_small == math.inf
        assert nu_stats(AlphaStable(1.0), eps=1.0, p=1.0).p_moment_small == math.inf

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
        assert tail_mass(measure, eps) == pytest.approx(
            quad_oracle(density, lambda z: 1.0, eps, np.inf), rel=1e-8
        )
        assert truncated_variance(measure, eps) == pytest.approx(
            quad_oracle(density, lambda z: z * z, 0.0, eps), rel=1e-8
        )
        p = 1.8 if isinstance(measure, AlphaStable) else 0.7
        assert small_moment(measure, p) == pytest.approx(
            quad_oracle(density, lambda z: z**p, 0.0, 1.0), rel=1e-8
        )

    def test_two_point_atoms(self):
        m = SymmetricTwoPoint(2.0, 0.4)
        assert tail_mass(m, 0.3) == 2.0
        assert tail_mass(m, 0.4) == 0.0
        assert truncated_variance(m, 0.4) == pytest.approx(2.0 * 0.16, rel=1e-15)
        assert small_moment(m, 1.0) == pytest.approx(0.8, rel=1e-15)

    def test_band_variance(self):
        assert band_variance(AlphaStable(1.0), 0.1, 1.0) == pytest.approx(0.9, rel=1e-14)
        assert band_variance(SymmetricTwoPoint(1.0, 0.8), 0.5, 1.0) == pytest.approx(0.64)

    def test_eps_and_p_validation(self):
        with pytest.raises(ValueError):
            nu_stats(AlphaStable(1.0), eps=0.0, p=1.0)
        with pytest.raises(ValueError):
            nu_stats(AlphaStable(1.0), eps=1.5, p=1.0)
        with pytest.raises(ValueError):
            nu_stats(AlphaStable(1.0), eps=0.5, p=0.0)


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
            sample_jump_sizes(AlphaStable(1.0), 1.0, np.random.default_rng(0), hi=1.0)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
    def test_unbounded_stable_draws_the_inverse_tail_bit_for_bit(self, alpha):
        z = sample_jump_sizes(AlphaStable(alpha), 0.01, np.random.default_rng(10), size=1000)
        rng = np.random.default_rng(10)
        mags = 0.01 * rng.random(1000) ** (-1.0 / alpha)
        expected = np.where(rng.random(1000) < 0.5, -1.0, 1.0) * mags
        assert np.array_equal(z, expected)

    def test_unbounded_variance_gamma_keeps_the_tail_rejection_bit_for_bit(self):
        # Replays the tail rejection: proposals eps + Exp(m), kept when U z < eps.
        measure, eps, n = VarianceGamma(1.0, 2.0), 0.1, 500
        z = sample_jump_sizes(measure, eps, np.random.default_rng(11), size=n)
        rng = np.random.default_rng(11)
        rate = max(eps * 2.0 * math.exp(2.0 * eps) * special.exp1(2.0 * eps), 1e-3)
        mags = []
        while len(mags) < n:
            batch = min(int((n - len(mags)) / rate) + 16, 10_000_000)
            prop = eps + rng.exponential(scale=0.5, size=batch)
            mags.extend(prop[rng.random(batch) * prop < eps][: n - len(mags)])
        expected = np.where(rng.random(n) < 0.5, -1.0, 1.0) * np.array(mags)
        assert np.array_equal(z, expected)

    def test_empty_support_errors(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="no jumps"):
            sample_jump_sizes(NullMeasure(), 0.5, rng)
        with pytest.raises(ValueError, match="no jumps"):
            sample_jump_sizes(SymmetricTwoPoint(1.0, 0.3), 0.5, rng)

    def test_infinite_intensity_errors(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_jump_sizes(AlphaStable(1.0), 0.0, rng)

    def test_scalar_draw(self):
        rng = np.random.default_rng(7)
        z = sample_jump_sizes(SymmetricTwoPoint(1.0, 1.0), 0.5, rng)
        assert z in (-1.0, 1.0)


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
        assert isinstance(jump_exponent(AlphaStable(1.5), 1.0), float)

    def test_any_non_finite_entry_is_refused(self):
        trip = LevyTriplet(0.0, 1.0, AlphaStable(1.5))
        with pytest.raises(ValueError):
            characteristic_exponent(trip, np.array([0.0, np.nan]))


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

    def test_triplet_sigma(self):
        with pytest.raises(ValueError):
            LevyTriplet(0.0, -0.1, NullMeasure())

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_levy_condition_finite_at_construction(self, measure):
        LevyTriplet(0.0, 1.0, measure)  # no raise

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_dict_round_trip(self, measure):
        assert measure_from_dict(measure_to_dict(measure)) == measure
