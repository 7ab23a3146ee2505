import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levy_elliptic.domain import HyperBox, enumerate_eigen
from levy_elliptic.functions import AxisPower, Constant, Polynomial, SpectralFunction, parse_function
from levy_elliptic.integrability import (
    ExistenceVerdict,
    existence_verdict,
    green_kernel_integrability,
    rr_integrability,
)
from levy_elliptic.measures import (
    AlphaStable,
    LevyTriplet,
    NullMeasure,
    SymmetricTwoPoint,
    VarianceGamma,
)
from levy_elliptic.solver import green_gamma_grid

UNIT = HyperBox.unit(1)


def stable_triplet(alpha, sigma=0.0, b=0.0):
    return LevyTriplet(b, sigma, AlphaStable(alpha))


def kernel_verdict(d, gamma, triplet):
    return green_kernel_integrability(HyperBox.unit(d), gamma, triplet).verdict


class TestRRIntegrability:
    def test_each_part_of_the_triplet_names_its_exponent(self):
        assert rr_integrability(Constant(1.0), LevyTriplet(0.0, 1.0, NullMeasure()), UNIT).exponents == (2.0,)
        assert rr_integrability(Constant(1.0), stable_triplet(1.5, sigma=1.0, b=0.5), UNIT).exponents == (1.0, 2.0, 1.5)
        assert rr_integrability(Constant(1.0), LevyTriplet(0.0, 0.0, VarianceGamma(1.0, 1.0)), UNIT).exponents == (0.0,)
        for measure in (SymmetricTwoPoint(1.0, 1.0), NullMeasure()):
            rep = rr_integrability(AxisPower(-5.0), LevyTriplet(0.0, 0.0, measure), UNIT)
            assert rep.exponents == () and rep.verdict is True

    def test_truncated_kernel_with_stable_noise(self):
        system = enumerate_eigen(UNIT, count=200)
        kernel = SpectralFunction(
            system,
            np.array(
                [math.sqrt(2.0) * math.sin(k * math.pi * 0.5) for k in range(1, 201)]
            )
            / system.lams,
        )
        assert rr_integrability(kernel, stable_triplet(1.5), UNIT).verdict is True

    def test_inverse_power_outside_l2_fails_the_gauss_part(self):
        assert rr_integrability(AxisPower(-1.0), LevyTriplet(0.0, 1.0, NullMeasure()), UNIT).verdict is False
        assert rr_integrability(AxisPower(-0.5), LevyTriplet(0.0, 1.0, NullMeasure()), UNIT).verdict is False
        assert rr_integrability(AxisPower(-0.49), LevyTriplet(0.0, 1.0, NullMeasure()), UNIT).verdict is True

    def test_stable_jump_divergence_detected_analytically(self):
        # int |x^-1|^alpha diverges for alpha >= 1.
        assert rr_integrability(AxisPower(-1.0), stable_triplet(1.2), UNIT).verdict is False
        assert rr_integrability(AxisPower(-1.0), stable_triplet(0.9), UNIT).verdict is True

    def test_log_growth_of_variance_gamma_admits_any_power(self):
        # J(w) grows like log w, and the log of a power singularity is integrable.
        triplet = LevyTriplet(0.0, 0.0, VarianceGamma(1.0, 1.0))
        assert rr_integrability(AxisPower(-3.0), triplet, UNIT).verdict is True

    def test_verdict_ignores_the_scale_of_the_integrand(self):
        cases = [
            (lambda c: Constant(2.0 * c), stable_triplet(1.2, sigma=1.0, b=0.5)),
            (lambda c: Polynomial((0.0, c)), LevyTriplet(0.0, 0.7, VarianceGamma(1.0, 1.0))),
        ]
        for make, triplet in cases:
            for c in (1.0, 0.8, 0.5, 0.1, 0.01):
                assert rr_integrability(make(c), triplet, UNIT).verdict is True
        e3 = parse_function({"kind": "eigenfunction", "index": [3]}, UNIT)
        assert rr_integrability(e3, cases[1][1], UNIT).verdict is True

    def test_report_serializable(self):
        rep = rr_integrability(Constant(1.0), stable_triplet(1.0), UNIT)
        assert rep.to_dict() == {"exponents": [1.0], "verdict": True}


class TestGreenKernel:
    @pytest.mark.parametrize("gamma", [0.3, 0.4])
    def test_truncated_kernel_shows_the_singularity_the_descriptor_encodes(self, gamma):
        # G(c, c + h) - G(c, c + 2h) ~ C (1 - 2^e) h^e with e = 2 gamma - d.
        system = enumerate_eigen(UNIT, count=2**15)
        c, hs = 0.5, (0.01, 0.005)
        ys = np.array([[c + h] for h in hs] + [[c + 2 * h] for h in hs])
        row = green_gamma_grid(system, gamma, np.array([[c]]), ys)[0]
        diffs = row[:2] - row[2:]
        slope = math.log(diffs[0] / diffs[1]) / math.log(hs[0] / hs[1])
        assert abs(slope - (2.0 * gamma - 1.0)) < 0.05

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_threshold_tables_full_matrix(self, d):
        # Hand-coded table oracle for the kernel rule at gamma = 1: d <= 3
        # admits every alpha; d >= 4 needs alpha < d/(d-2).
        for alpha in np.round(np.arange(0.1, 2.0, 0.1), 10):
            expected = True if d <= 3 else bool(alpha < d / (d - 2.0))
            assert kernel_verdict(d, 1.0, stable_triplet(float(alpha))) is expected, (d, alpha)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_gauss_component_blocks_high_dimensions(self, d):
        assert kernel_verdict(d, 1.0, stable_triplet(0.5, sigma=1.0)) is False

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_finite_activity_measures_pass_high_dimensions(self, d):
        for measure in (SymmetricTwoPoint(1.0, 1.0), VarianceGamma(1.0, 1.0), NullMeasure()):
            assert kernel_verdict(d, 1.0, LevyTriplet(0.0, 0.0, measure)) is True

    def test_d6_stable_alpha_18(self):
        assert kernel_verdict(6, 1.0, stable_triplet(1.8)) is False  # 1.8 >= 6/4

    @given(
        d=st.integers(1, 6),
        gamma=st.floats(min_value=1e-3, max_value=4.0),
        sigma=st.sampled_from([0.0, 0.5]),
        b=st.sampled_from([0.0, -1.0]),
        measure=st.one_of(
            st.builds(AlphaStable, st.floats(min_value=0.01, max_value=1.99)),
            st.just(SymmetricTwoPoint(1.0, 0.5)),
            st.just(VarianceGamma(1.0, 1.0)),
            st.just(NullMeasure()),
        ),
    )
    def test_existence_implies_the_kernel_verdict(self, d, gamma, sigma, b, measure):
        triplet = LevyTriplet(b, sigma, measure)
        kernel = kernel_verdict(d, gamma, triplet)
        if existence_verdict(d, gamma, triplet).exists:
            assert kernel is True
        if sigma > 0.0:
            assert kernel is (gamma > d / 4.0)


class TestExistenceVerdict:
    def test_spectral_example_d3(self):
        v = existence_verdict(3, 1.0, stable_triplet(1.5))
        assert v.exists is True
        assert v.r_max == pytest.approx(0.5)
        assert v.continuous is False

    @given(
        d=st.integers(1, 6),
        gamma=st.floats(min_value=1e-3, max_value=4.0),
        sigma=st.sampled_from([0.0, 0.5]),
        measure=st.one_of(
            st.builds(AlphaStable, st.floats(min_value=0.01, max_value=1.99)),
            st.just(SymmetricTwoPoint(1.0, 0.5)),
            st.just(VarianceGamma(1.0, 1.0)),
            st.just(NullMeasure()),
        ),
    )
    def test_continuous_implies_exists(self, d, gamma, sigma, measure):
        v = existence_verdict(d, gamma, LevyTriplet(0.0, sigma, measure))
        assert v.exists or not v.continuous
        # Without jumps the field is continuous wherever it exists; with them, above d/2.
        assert v.continuous is (v.exists if isinstance(measure, NullMeasure) else gamma > d / 2.0)

    @given(
        d=st.integers(1, 6),
        gamma=st.floats(min_value=1e-3, max_value=4.0),
        b=st.sampled_from([0.0, 1.0, -0.5]),
    )
    def test_a_triplet_without_a_random_part_has_a_solution_at_every_gamma(self, d, gamma, b):
        # u = b (-Laplace)^(-gamma) 1, and 1 lies in H^s for every s < 1/2.
        v = existence_verdict(d, gamma, LevyTriplet(b, 0.0, NullMeasure()))
        assert v.exists is True and v.continuous is True
        assert v.r_max == 2.0 * gamma + 0.5

    def test_a_random_part_keeps_the_white_noise_threshold(self):
        for triplet in (LevyTriplet(1.0, 0.5, NullMeasure()), LevyTriplet(1.0, 0.0, SymmetricTwoPoint(1.0, 0.5))):
            assert existence_verdict(2, 0.5, triplet).exists is False
            assert existence_verdict(2, 0.6, triplet).r_max == pytest.approx(0.2)

    def test_continuity_only_in_dimension_one(self):
        assert existence_verdict(1, 1.0, stable_triplet(1.5)).continuous is True
        assert existence_verdict(2, 1.0, stable_triplet(1.5)).continuous is False

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_strictness_at_quarter_dimension(self, d):
        t = stable_triplet(1.0)
        assert existence_verdict(d, d / 4.0, t).exists is False
        assert existence_verdict(d, d / 4.0 + 1e-9, t).exists is True

    def test_r_max_formulas(self):
        assert existence_verdict(2, 1.5, stable_triplet(1.0)).r_max == pytest.approx(2.0)
        assert existence_verdict(3, 1.0, stable_triplet(1.0)).r_max == pytest.approx(0.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            existence_verdict(0, 1.0, stable_triplet(1.0))
        with pytest.raises(ValueError):
            existence_verdict(1, -1.0, stable_triplet(1.0))

    def test_consistency_guard(self):
        with pytest.raises(ValueError, match="continuity implies existence"):
            ExistenceVerdict(1, 0.2, stable_triplet(1.0), False, -0.1, True)

    def test_verdict_serializable(self):
        import json

        v = existence_verdict(6, 1.0, stable_triplet(1.8))
        text = json.dumps(v.to_dict(), sort_keys=True)
        assert '"exists": false' in text
