import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from levy_elliptic.config import ConfigError
from levy_elliptic.domain import (
    EigenSystem,
    HyperBox,
    box_fourier,
    eigen_matrix,
    enumerate_eigen,
    gauss_rule,
    positions,
    single_mode,
    tensor_points,
)
from levy_elliptic.functions import (
    AxisPower,
    Constant,
    Indicator,
    Polynomial,
    RadialPower,
    SpectralFunction,
    fourier_vector,
    integral,
    lq_finite,
    parse_function,
)

UNIT = HyperBox.unit(1)


def eigenfunction(box: HyperBox, *index: int) -> SpectralFunction:
    """e_k as a config builds it: the one-mode expansion with coefficient 1."""
    return parse_function({"kind": "eigenfunction", "index": list(index)}, box)


@st.composite
def mode_on_a_box(draw):
    """A box of d = 1-4, a listed mode of it, and points, about a quarter on a face."""
    d = draw(st.integers(1, 4))
    lower = draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d))
    sides = draw(st.lists(st.floats(0.05, 20.0), min_size=d, max_size=d))
    box = HyperBox(tuple((a, a + L) for a, L in zip(lower, sides)))
    system = enumerate_eigen(box, count=draw(st.integers(1, 60)))
    index = system.indices[draw(st.integers(0, len(system) - 1))].tolist()
    n = draw(st.integers(1, 40))
    unit = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d))).reshape(n, d)
    points = np.minimum(box.lower + unit * box.lengths, box.upper)
    faces = np.array(draw(st.lists(st.integers(0, 7), min_size=n * d, max_size=n * d))).reshape(n, d)
    points = np.where(faces == 0, box.lower, np.where(faces == 1, box.upper, points))
    return box, system, index, points


@settings(deadline=None, max_examples=60)
@given(mode_on_a_box())
def test_config_eigenfunction_is_the_one_mode_expansion_bit_for_bit(case):
    box, system, index, points = case
    f = parse_function({"kind": "eigenfunction", "index": index}, box)
    mode = single_mode(box, index)
    assert np.array_equal(f.evaluate(points), eigen_matrix(mode, points)[0])
    unit = np.zeros(len(system))
    unit[positions(system, [index])[0]] = 1.0
    assert np.array_equal(fourier_vector(system, f), unit)
    assert integral(f, box) == float(box_fourier(mode)[0])
    assert integral(f, box, 2) == 1.0


class TestFourierVector:
    def test_constant_closed_form_vs_quad_oracle(self):
        oracle, _ = integrate.quad(lambda x: math.sqrt(2.0) * math.sin(math.pi * x), 0, 1)
        assert oracle == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-12)
        got = fourier_vector(single_mode(UNIT, (1,)), Constant(1.0))[0]
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_quadrature_path_recovers_closed_form_coefficients(self):
        # <x^2, e_k> = sqrt(2) [-(-1)^k / (pi k) + 2 ((-1)^k - 1) / (pi k)^3].
        got = fourier_vector(enumerate_eigen(UNIT, count=6), Polynomial((0.0, 0.0, 1.0)))
        a = math.pi * np.arange(1, 7)
        sign = (-1.0) ** np.arange(1, 7)
        assert got == pytest.approx(math.sqrt(2.0) * (-sign / a + 2.0 * (sign - 1.0) / a**3), abs=1e-12)

    def test_indicator_closed_form_vs_quadrature(self):
        sub = HyperBox(((0.2, 0.7),))
        got = fourier_vector(single_mode(UNIT, (3,)), Indicator((sub,)))[0]
        oracle, _ = integrate.quad(
            lambda x: math.sqrt(2.0) * math.sin(3 * math.pi * x), 0.2, 0.7
        )
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_constant_matches_the_per_mode_closed_form(self):
        system = enumerate_eigen(UNIT, count=8)
        k = system.indices[:, 0]
        expected = 2.0 * math.sqrt(2.0) * (1 - (-1.0) ** k) / (math.pi * k)
        assert fourier_vector(system, Constant(2.0)) == pytest.approx(expected, rel=1e-14)

    def test_spectral_prefix_alignment(self):
        big = enumerate_eigen(UNIT, count=10)
        small = enumerate_eigen(UNIT, count=4)
        f = SpectralFunction(small, np.array([1.0, -2.0, 0.5, 3.0]))
        vec = fourier_vector(big, f)
        assert np.array_equal(vec[:4], f.coeffs)
        assert np.all(vec[4:] == 0.0)

    @pytest.mark.parametrize("coeffs", [[1.0, 2.0, 3.0], [1.0] * 5])
    def test_spectral_coefficients_must_match_the_system(self, coeffs):
        with pytest.raises(ValueError, match="^coefficient length must match the system$"):
            SpectralFunction(enumerate_eigen(UNIT, count=4), coeffs)

    def test_spectral_projection_onto_smaller_system(self):
        big = enumerate_eigen(UNIT, count=10)
        small = enumerate_eigen(UNIT, count=4)
        f = SpectralFunction(big, np.arange(1.0, 11.0))
        assert np.array_equal(fourier_vector(small, f), np.arange(1.0, 5.0))

    def test_eigenfunction_unit_vector(self):
        system = enumerate_eigen(UNIT, count=5)
        vec = fourier_vector(system, eigenfunction(UNIT, 4))
        expected = np.zeros(5)
        expected[3] = 1.0
        assert np.array_equal(vec, expected)

    def test_generic_quadrature_route(self):
        system = enumerate_eigen(UNIT, count=6)
        poly = Polynomial((0.0, 1.0))  # f(x) = x
        vec = fourier_vector(system, poly)
        oracle = [
            integrate.quad(
                lambda x, k=k: x * math.sqrt(2.0) * math.sin(k * math.pi * x), 0, 1
            )[0]
            for k in range(1, 7)
        ]
        assert vec == pytest.approx(oracle, abs=1e-10)


def per_row_transfer(system, f: SpectralFunction) -> np.ndarray:
    """fourier_vector's spectral branch one row at a time, through a dict of the listing."""
    where = {tuple(row): i for i, row in enumerate(system.indices.tolist())}
    out = np.zeros(len(system))
    for row, c in zip(f.system.indices.tolist(), f.coeffs):
        if tuple(row) in where:
            out[where[tuple(row)]] = c
    return out


BOX_2D = HyperBox(((0.0, 1.0), (-1.0, 0.5)))
LISTING = enumerate_eigen(BOX_2D, count=300)


@pytest.mark.parametrize(
    "system, source",
    [
        (LISTING, LISTING.prefix(40)),  # a prefix of the target
        (LISTING.prefix(40), LISTING),  # longer than the target
        # longer, reaching past the target's last eigenvalue
        (LISTING, enumerate_eigen(BOX_2D, lambda_max=float(LISTING.lams[-1]) * 1.3)),
        (LISTING, single_mode(BOX_2D, (3, 2))),  # one non-leading mode
        (LISTING, single_mode(BOX_2D, (90, 1))),  # one mode the target lacks
        (LISTING, EigenSystem(BOX_2D, LISTING.indices[150:60:-1], LISTING.lams[150:60:-1])),  # shorter, reversed
        (LISTING.prefix(100), EigenSystem(BOX_2D, LISTING.indices[::-3], LISTING.lams[::-3])),  # partly outside
    ],
)
def test_spectral_transfer_matches_a_per_row_reference_bit_for_bit(system, source):
    coeffs = np.random.default_rng(len(source)).standard_normal(len(source))
    f = SpectralFunction(source, coeffs)
    got = fourier_vector(system, f)
    assert got.shape == (len(system),)
    assert got.tobytes() == per_row_transfer(system, f).tobytes()


class TestIntegrals:
    def test_constant_and_indicator(self):
        box = HyperBox(((0.0, 2.0), (0.0, 1.5)))
        assert integral(Constant(3.0), box) == pytest.approx(9.0, rel=1e-14)
        sub = HyperBox(((0.0, 1.0), (0.0, 1.0)))
        assert integral(Indicator((sub,)), box) == 1.0
        assert integral(Constant(-3.0), box, 2) == pytest.approx(27.0, rel=1e-14)
        assert integral(Indicator((sub,)), box, 2) == 1.0

    def test_axis_power_closed_forms(self):
        assert integral(AxisPower(-0.5), UNIT) == pytest.approx(2.0, rel=1e-14)
        assert integral(AxisPower(-0.25), UNIT, 2) == pytest.approx(2.0, rel=1e-14)
        assert integral(AxisPower(-0.5), UNIT, 2) == math.inf
        assert integral(AxisPower(-1.0), UNIT, 2) == math.inf

    def test_eigenfunction_square_norm(self):
        assert integral(eigenfunction(UNIT, 5), UNIT, 2) == 1.0

    def test_spectral_square_norm_parseval(self):
        system = enumerate_eigen(UNIT, count=3)
        f = SpectralFunction(system, np.array([3.0, 0.0, 4.0]))
        assert integral(f, UNIT, 2) == 25.0

    def test_polynomial_closed_forms_vs_quad_oracle(self):
        # A shifted box: the polynomial runs along axis 1, axis 0 contributes its length 3.
        box = HyperBox(((-1.0, 2.0), (0.5, 1.5)))
        f = Polynomial((1.0, -2.0, 3.0), axis=1)
        p = lambda y: 1.0 - 2.0 * y + 3.0 * y**2
        signed, _ = integrate.quad(p, 0.5, 1.5)
        squared, _ = integrate.quad(lambda y: p(y) ** 2, 0.5, 1.5)
        assert integral(f, box) == pytest.approx(3.0 * signed, rel=1e-14)
        assert integral(f, box, 2) == pytest.approx(3.0 * squared, rel=1e-14)

    def test_polynomial_closed_forms_are_exact_on_the_unit_interval(self):
        assert integral(Polynomial((1.0, -2.0, 3.0)), UNIT) == 1.0
        assert integral(Polynomial((0.0, 1.0)), UNIT, 2) == 1.0 / 3.0

    def test_integrands_without_a_closed_form_are_refused(self):
        other = HyperBox(((0.0, 2.0),))
        foreign = (eigenfunction(other, 1), SpectralFunction(enumerate_eigen(other, count=2), [1.0, 2.0]))
        for f in (RadialPower(0.5, (0.5,)), *foreign):
            name = type(f).__name__
            with pytest.raises(ValueError, match=name):
                integral(f, UNIT)
            with pytest.raises(ValueError, match=name):
                integral(f, UNIT, 2)
        # Outside L^2 the analytic criterion answers first.
        assert integral(RadialPower(-0.5, (0.5,)), UNIT, 2) == math.inf

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize(
        "f",
        [
            Polynomial((1.0, -2.0, 3.0), axis=1),
            Polynomial((0.5, 0.0, 0.0, -1.25)),
            AxisPower(1.7, axis=1, offset=-0.5),
            AxisPower(-0.5, axis=0, offset=-1.5),  # q = 2 takes the logarithm
            AxisPower(-2.3, axis=1, offset=0.25),
        ],
    )
    def test_integral_matches_a_tensor_gauss_rule(self, f, q):
        box = HyperBox(((-1.0, 2.0), (0.5, 1.5)))
        axes, w = gauss_rule(box, 48)
        expected = float(w @ f.evaluate(tensor_points(axes)) ** q)
        assert integral(f, box, q) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("exponent", [-2.5, -1.0, -0.75, -0.5, -0.3, 0.4])
    def test_integral_is_inf_exactly_where_f_is_not_in_lq(self, exponent, q):
        box = HyperBox.unit(2)
        for f in (AxisPower(exponent, axis=1), RadialPower(2.0 * exponent, (0.5, 0.0))):
            if lq_finite(f, box, q):
                assert isinstance(f, RadialPower) or math.isfinite(integral(f, box, q))
            else:
                assert integral(f, box, q) == math.inf

    def test_only_the_first_and_second_powers_are_integrated(self):
        with pytest.raises(ValueError, match="q must be 1 or 2, got 3"):
            integral(Constant(1.0), UNIT, 3)

    @pytest.mark.parametrize(
        "member",
        [
            HyperBox(((0.0, 2.0),)),  # read 0 Fourier coefficients and int f = int f^2 = 2
            HyperBox(((-1.0, 0.5),)),  # read -0.45016 at k = 1
            HyperBox(((0.0, 0.5), (0.0, 0.5))),
        ],
    )
    def test_an_indicator_member_outside_the_box_is_refused(self, member):
        f = Indicator((member,))
        match = r"a member must be a 1-d box inside \(\(0.0, 1.0\),\)"
        with pytest.raises(ValueError, match=match):
            fourier_vector(enumerate_eigen(UNIT, count=8), f)
        for q in (1, 2):
            with pytest.raises(ValueError, match=match):
                integral(f, UNIT, q)
        data = {"kind": "indicator", "boxes": [[[0.0, 0.5]], [list(iv) for iv in member.intervals]]}
        with pytest.raises(ConfigError, match=r"^config error at f.boxes\[1\]: " + match):
            parse_function(data, UNIT)

    def test_lq_finite_analytics(self):
        assert lq_finite(AxisPower(-1.0), UNIT, 0.9) is True
        assert lq_finite(AxisPower(-1.0), UNIT, 1.0) is False
        assert lq_finite(AxisPower(-1.0, offset=-0.5), UNIT, 5.0) is True
        assert lq_finite(Constant(7.0), UNIT, 123.0) is True
        assert lq_finite(Polynomial((1.0, 2.0)), UNIT, 2.0) is True

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_radial_power_is_in_lq_iff_q_exponent_exceeds_minus_d(self, d):
        box = HyperBox.unit(d)
        centre = (0.5,) * d
        assert lq_finite(RadialPower(-d / 2.0, centre), box, 1.99) is True
        assert lq_finite(RadialPower(-d / 2.0, centre), box, 2.0) is False
        assert lq_finite(RadialPower(0.5, centre), box, 2.0) is True

    def test_radial_power_evaluates_the_distance_power(self):
        f = RadialPower(-0.5, (0.5, 0.5))
        assert f.evaluate(np.array([[0.5, 0.75], [0.8, 0.1]])) == pytest.approx([2.0, 0.5**-0.5])


class TestDescriptors:
    def test_indicator_half_open_and_disjointness(self):
        a = HyperBox(((0.0, 0.5),))
        b = HyperBox(((0.5, 1.0),))
        ind = Indicator((a, b))
        vals = ind.evaluate(np.array([[0.25], [0.5], [0.75]]))
        assert vals.tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="disjoint"):
            Indicator((a, HyperBox(((0.25, 0.75),))))

    def test_spectral_function_evaluate_matches_manual_sum(self):
        system = enumerate_eigen(UNIT, count=4)
        coeffs = np.array([1.0, -0.5, 0.25, 2.0])
        f = SpectralFunction(system, coeffs)
        x = np.array([[0.3], [0.62]])
        manual = sum(
            c * math.sqrt(2.0) * np.sin(k * math.pi * x[:, 0])
            for c, k in zip(coeffs, [1, 2, 3, 4])
        )
        assert f.evaluate(x) == pytest.approx(manual, rel=1e-12)

    def test_polynomial_evaluate(self):
        p = Polynomial((1.0, 0.0, 2.0))  # 1 + 2 x^2
        assert p.evaluate(np.array([[0.5]]))[0] == pytest.approx(1.5)

    def test_parse_function_round_trip(self):
        f = parse_function({"kind": "eigenfunction", "index": [2]}, UNIT)
        assert isinstance(f, SpectralFunction) and f.system.indices.tolist() == [[2]]
        assert f.coeffs.tolist() == [1.0]
        g = parse_function({"kind": "constant", "value": 3.5}, UNIT)
        assert isinstance(g, Constant) and g.value == 3.5
        with pytest.raises(ValueError):
            parse_function({"kind": "mystery"}, UNIT)

    def test_one_entry_eigenfunction_index_applies_to_every_axis(self):
        f = parse_function({"kind": "eigenfunction", "index": [2]}, HyperBox.unit(3))
        assert f.system.indices.tolist() == [[2, 2, 2]]

    @pytest.mark.parametrize(
        "data,path",
        [
            ({"kind": "constant", "valu": 2.0}, "cf.f.valu"),
            ({"kind": "axis_power", "exponent": 1.0, "axes": 0}, "cf.f.axes"),
            ({"kind": "eigenfunction"}, "cf.f.index"),
            ({"kind": "mystery"}, "cf.f"),
            ([1.0], "cf.f"),
            ({"kind": "eigenfunction", "index": [0]}, "cf.f.index[0]"),
            ({"kind": "eigenfunction", "index": [1, 1]}, "cf.f"),
            ({"kind": "constant", "value": True}, "cf.f.value"),
            ({"kind": "polynomial", "coeffs": [1.0, "x"]}, "cf.f.coeffs[1]"),
            ({"kind": "indicator", "boxes": [[[0.5, 0.2]]]}, "cf.f"),
        ],
    )
    def test_parse_function_refuses_at_the_key(self, data, path):
        with pytest.raises(ConfigError) as exc:
            parse_function(data, UNIT, "cf.f")
        assert exc.value.path == path
