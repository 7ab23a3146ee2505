import math

import numpy as np
import pytest
from scipy import integrate

from levy_elliptic.domain import HyperBox, enumerate_eigen
from levy_elliptic.functions import (
    AxisPower,
    CallableFunction,
    Constant,
    Eigenfunction,
    Scaled,
    SpectralFunction,
    UncertifiedFunctionError,
)
from levy_elliptic.integrability import (
    GREEN_BOUND_MODE,
    ExistenceVerdict,
    existence_verdict,
    rr_integrability,
)
from levy_elliptic.measures import (
    AlphaStable,
    LevyTriplet,
    NullMeasure,
    SymmetricTwoPoint,
    VarianceGamma,
)

UNIT = HyperBox.unit(1)


def stable_triplet(alpha, sigma=0.0, b=0.0):
    return LevyTriplet(b, sigma, AlphaStable(alpha))


class TestJumpIntegrand:
    @pytest.mark.parametrize(
        "measure",
        [AlphaStable(0.8), AlphaStable(1.5), VarianceGamma(1.0, 1.0), SymmetricTwoPoint(2.0, 0.7)],
    )
    @pytest.mark.parametrize("w", [0.2, 1.0, 3.7])
    def test_closed_form_vs_quadrature_oracle(self, measure, w):
        if isinstance(measure, SymmetricTwoPoint):
            oracle = measure.rate * min((measure.magnitude * w) ** 2, 1.0)
        else:
            if isinstance(measure, AlphaStable):
                dens = lambda z: 0.5 * measure.alpha * z ** (-measure.alpha - 1.0)
            else:
                dens = lambda z: measure.c / z * math.exp(-measure.m * z)
            split = 1.0 / w
            head, _ = integrate.quad(
                lambda z: 2.0 * (w * z) ** 2 * dens(z), 0.0, split, limit=400
            )
            tail, _ = integrate.quad(lambda z: 2.0 * dens(z), split, np.inf, limit=400)
            oracle = head + tail
        assert measure.jump_integrand(np.array([w]))[0] == pytest.approx(
            oracle, rel=1e-8
        )

    def test_zero_argument(self):
        for measure in (AlphaStable(1.0), VarianceGamma(1.0, 1.0), SymmetricTwoPoint(1.0, 1.0), NullMeasure()):
            assert measure.jump_integrand(np.array([0.0]))[0] == 0.0


class TestRRIntegrability:
    def test_gaussian_only_constant(self):
        rep = rr_integrability(Constant(1.0), LevyTriplet(0.0, 1.0, NullMeasure()), UNIT)
        assert (rep.drift_integral, rep.gauss_integral, rep.jump_integral) == (0.0, 1.0, 0.0)
        assert rep.verdict is True

    def test_truncated_kernel_with_stable_noise(self):
        system = enumerate_eigen(UNIT, count=200)
        kernel = SpectralFunction(
            system,
            np.array(
                [math.sqrt(2.0) * math.sin(k * math.pi * 0.5) for k in range(1, 201)]
            )
            / system.lams,
        )
        rep = rr_integrability(kernel, stable_triplet(1.5), UNIT)
        assert rep.verdict is True
        assert math.isfinite(rep.jump_integral)

    def test_inverse_power_divergent_gauss(self):
        rep = rr_integrability(AxisPower(-1.0), LevyTriplet(0.0, 1.0, NullMeasure()), UNIT)
        assert rep.gauss_integral == math.inf
        assert rep.verdict is False

    def test_stable_jump_divergence_detected_analytically(self):
        # int |x^-1|^alpha diverges for alpha >= 1, so the jump integral is
        # flagged infinite without any quadrature.
        rep = rr_integrability(AxisPower(-1.0), stable_triplet(1.2), UNIT)
        assert rep.jump_integral == math.inf
        assert rep.verdict is False

    def test_stable_jump_value_closed_form(self):
        # For constant f = c: J = 2 c^alpha / (2 - alpha) on the unit box.
        alpha, c = 1.5, 0.7
        rep = rr_integrability(Constant(c), stable_triplet(alpha), UNIT)
        assert rep.jump_integral == pytest.approx(2.0 * c**alpha / (2.0 - alpha), rel=1e-9)

    def test_scaling_monotonicity_never_flips_true_to_false(self):
        cases = [
            (Constant(2.0), stable_triplet(1.2, sigma=1.0, b=0.5)),
            (Eigenfunction(UNIT, (3,)), LevyTriplet(0.0, 0.7, VarianceGamma(1.0, 1.0))),
            (AxisPower(-0.4), stable_triplet(0.9)),
        ]
        for f, triplet in cases:
            assert rr_integrability(f, triplet, UNIT).verdict is True
            for c in (0.8, 0.5, 0.1, 0.01):
                assert rr_integrability(Scaled(f, c), triplet, UNIT).verdict is True

    def test_uncertified_callable_refused(self):
        with pytest.raises(UncertifiedFunctionError):
            rr_integrability(CallableFunction(lambda p: p[:, 0]), stable_triplet(1.0), UNIT)

    def test_report_serializable(self):
        rep = rr_integrability(Constant(1.0), stable_triplet(1.0), UNIT)
        d = rep.to_dict()
        assert set(d) == {"drift_integral", "gauss_integral", "jump_integral", "verdict"}


class TestExistenceVerdict:
    def test_spectral_example_d3(self):
        v = existence_verdict(3, 1.0, stable_triplet(1.5))
        assert v.exists is True
        assert v.r_max == pytest.approx(0.5)
        assert v.continuous is False

    def test_green_bound_d6_stable_alpha_18(self):
        v = existence_verdict(6, GREEN_BOUND_MODE, stable_triplet(1.8))
        assert v.exists is False  # 1.8 >= 6/4
        assert v.p_required == (0.0, 1.5)

    def test_continuity_only_in_dimension_one(self):
        assert existence_verdict(1, 1.0, stable_triplet(1.5)).continuous is True
        assert existence_verdict(2, 1.0, stable_triplet(1.5)).continuous is False
        assert existence_verdict(1, GREEN_BOUND_MODE, stable_triplet(1.5)).continuous is True

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_strictness_at_quarter_dimension(self, d):
        t = stable_triplet(1.0)
        assert existence_verdict(d, d / 4.0, t).exists is False
        assert existence_verdict(d, d / 4.0 + 1e-9, t).exists is True

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_threshold_tables_full_matrix(self, d):
        # Hand-coded table oracle: d <= 3 admits every alpha with any
        # (b, sigma); d >= 4 needs sigma = 0 and alpha < d/(d-2).
        for alpha in np.round(np.arange(0.1, 2.0, 0.1), 10):
            v = existence_verdict(d, GREEN_BOUND_MODE, stable_triplet(float(alpha)))
            expected = True if d <= 3 else bool(alpha < d / (d - 2.0))
            assert v.exists is expected, (d, alpha)
            assert v.p_required == ((2.0, 2.0) if d <= 3 else (0.0, d / (d - 2.0)))

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_gauss_component_blocks_high_dimensions(self, d):
        v = existence_verdict(d, GREEN_BOUND_MODE, stable_triplet(0.5, sigma=1.0))
        assert v.exists is False

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_finite_activity_measures_pass_high_dimensions(self, d):
        for measure in (SymmetricTwoPoint(1.0, 1.0), VarianceGamma(1.0, 1.0), NullMeasure()):
            v = existence_verdict(d, GREEN_BOUND_MODE, LevyTriplet(0.0, 0.0, measure))
            assert v.exists is True

    def test_r_max_formulas(self):
        assert existence_verdict(2, 1.5, stable_triplet(1.0)).r_max == pytest.approx(2.0)
        assert existence_verdict(3, GREEN_BOUND_MODE, stable_triplet(1.0)).r_max == pytest.approx(0.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            existence_verdict(0, 1.0, stable_triplet(1.0))
        with pytest.raises(ValueError):
            existence_verdict(1, -1.0, stable_triplet(1.0))

    def test_consistency_guard(self):
        with pytest.raises(ValueError, match="continuity implies existence"):
            ExistenceVerdict(1, 0.2, {}, False, (2.0, 2.0), -0.1, True)

    def test_verdict_serializable(self):
        import json

        v = existence_verdict(6, GREEN_BOUND_MODE, stable_triplet(1.8))
        text = json.dumps(v.to_dict(), sort_keys=True)
        assert '"exists": false' in text
