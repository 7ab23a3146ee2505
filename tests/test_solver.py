import math
import warnings

import numpy as np
import pytest

from levy_elliptic import domain, solver
from levy_elliptic.domain import HyperBox, enumerate_eigen, gauss_rule, eigen_matrix, listing_blocks, tensor_points
from levy_elliptic.functions import Constant, SpectralFunction, parse_function
from levy_elliptic.measures import LevyTriplet, NullMeasure, SymmetricTwoPoint, AlphaStable
from levy_elliptic.integrability import existence_verdict
from levy_elliptic.noise import JumpAtomSet, NoiseLaw, NoiseRealization, pair_eigen, sample_noise
from levy_elliptic.solver import (
    RegimeRefusalError,
    dump_coeffs_csv,
    dump_field_grid_csv,
    eval_field_grid,
    green_convolve,
    green_gamma_eval,
    green_gamma_grid,
    refuse_outside_regime,
    series_tail_bound,
    solve_mild,
    torsion_solution,
)

UNIT = HyperBox.unit(1)


def interval_green(x, y, a=0.0, b=1.0):
    """Closed-form kernel of the second-order problem on an interval."""
    lo, hi = min(x, y), max(x, y)
    return (lo - a) * (b - hi) / (b - a)


def one_atom_realization(y, z):
    atoms = JumpAtomSet(np.array([[y]]), np.array([z]))
    triplet = LevyTriplet(0.0, 0.0, SymmetricTwoPoint(1.0, 2.0))
    return NoiseRealization(NoiseLaw(UNIT, triplet, 0.5, "drop"), 0, atoms)


class TestGreenKernel:
    def test_interval_oracle_off_diagonal(self):
        system = enumerate_eigen(UNIT, count=5000)
        got = green_gamma_eval(system, 1.0, [0.25], [0.75])
        assert abs(got.value - interval_green(0.25, 0.75)) <= 1e-4
        assert got.value == pytest.approx(0.0625, abs=1e-4)

    def test_interval_oracle_diagonal(self):
        system = enumerate_eigen(UNIT, count=5000)
        got = green_gamma_eval(system, 1.0, [0.5], [0.5])
        assert abs(got.value - 0.25) <= 1e-4

    def test_symmetry_exact(self):
        system = enumerate_eigen(UNIT, count=300)
        a = green_gamma_eval(system, 1.3, [0.21], [0.66]).value
        b = green_gamma_eval(system, 1.3, [0.66], [0.21]).value
        assert a == b

    @pytest.mark.parametrize("same,calls", [(True, 1), (False, 2)])
    def test_one_point_on_both_sides_builds_its_factor_once(self, monkeypatch, same, calls):
        system = enumerate_eigen(HyperBox.unit(2), count=400)
        x = np.array([0.31, 0.62])
        y = x if same else x.copy()
        expected = green_gamma_eval(system, 1.2, x, x.copy()).value  # two factors
        built = []
        monkeypatch.setattr(solver, "eigen_matrix", lambda *a: built.append(1) or eigen_matrix(*a))
        assert green_gamma_eval(system, 1.2, x, y).value == expected
        assert len(built) == calls

    def test_large_power_dominated_by_ground_state(self):
        # At gamma = 50 the higher modes are below one ulp of the ground term,
        # so the 50-mode kernel is the one-mode kernel bit for bit; that in turn
        # is the product formula up to the rounding of a few operations, 2 ulp.
        system = enumerate_eigen(UNIT, count=50)
        for x, y in [(0.3, 0.4), (0.1, 0.9), (0.5, 0.5), (0.77, 0.21)]:
            got = green_gamma_eval(system, 50.0, [x], [y]).value
            assert got == green_gamma_eval(system.prefix(1), 50.0, [x], [y]).value
            lead = (
                math.sqrt(2.0) * math.sin(math.pi * x)
                * math.sqrt(2.0) * math.sin(math.pi * y)
                / system.lams[0] ** 50
            )
            assert abs(got - lead) <= 2 * math.ulp(lead), (x, y)

    def test_tail_bound_tracks_true_tail(self):
        # d=1, gamma=1: true tail sum_{k>K} (pi k)^-2 ~ 1/(pi^2 K).
        system = enumerate_eigen(UNIT, count=2000)
        estimate = series_tail_bound(UNIT, 1.0, float(system.lams[-1]))
        true_tail = sum(1.0 / (math.pi * k) ** 2 for k in range(2001, 200_000))
        assert 0.5 <= estimate / true_tail <= 2.0

    def test_tail_bound_infinite_at_singular_powers(self):
        assert series_tail_bound(UNIT, 0.5, 1e4) == math.inf
        assert series_tail_bound(HyperBox.unit(2), 1.0, 1e4) == math.inf

    @pytest.mark.parametrize("d", [1, 2])
    def test_blocks_of_the_listing_add_up_to_the_whole_product(self, monkeypatch, d):
        system = enumerate_eigen(HyperBox.unit(d), count=1000)
        rng = np.random.default_rng(d)
        xs, ys = rng.random((7, d)), rng.random((5, d))
        half = system.lams[:, None] ** -0.65
        left, right = eigen_matrix(system, xs) * half, eigen_matrix(system, ys) * half
        # One block: the whole product bit for bit.
        assert np.array_equal(green_gamma_grid(system, 1.3, xs, ys), left.T @ right)
        monkeypatch.setattr(domain, "BLOCK_MODES", 64)
        assert len(listing_blocks(system)) > 10
        blocked = green_gamma_grid(system, 1.3, xs, ys)
        assert np.all(np.abs(blocked - left.T @ right) <= 1e-12 * (np.abs(left).T @ np.abs(right)))
        assert np.array_equal(green_gamma_grid(system, 1.3, ys, xs), blocked.T)

    def test_grid_matches_pointwise(self):
        system = enumerate_eigen(UNIT, count=200)
        xs, ys = np.array([[0.2], [0.5]]), np.array([[0.3], [0.9]])
        grid = green_gamma_grid(system, 1.0, xs, ys)
        for i in range(2):
            for j in range(2):
                assert grid[i, j] == pytest.approx(
                    green_gamma_eval(system, 1.0, xs[i], ys[j]).value, rel=1e-12
                )


class TestSolveMild:
    def test_zero_noise_zero_field(self):
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, NullMeasure())), master_seed=1)
        system = enumerate_eigen(UNIT, count=20)
        field = solve_mild(real, 1.0, system)
        assert np.all(field.coeffs == 0.0)
        assert np.all(field.evaluate([[0.3], [0.7]]) == 0.0)

    def test_single_atom_green_oracle(self):
        system = enumerate_eigen(UNIT, count=2000)
        field = solve_mild(one_atom_realization(0.5, 2.0), 1.0, system)
        got = field.evaluate([[0.25]])[0]
        assert got == pytest.approx(2.0 * interval_green(0.25, 0.5), abs=1e-4)
        assert got == pytest.approx(0.25, abs=1e-4)

    def test_refusal_below_existence_threshold(self):
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, AlphaStable(1.5))), master_seed=2)
        system = enumerate_eigen(UNIT, count=10)
        with pytest.raises(RegimeRefusalError):
            solve_mild(real, 0.2, system)
        field = solve_mild(real, 0.2, system, override=True)
        assert isinstance(field, SpectralFunction) and field.system is system

    @pytest.mark.parametrize("gamma", [0.2, 0.6, 1.0])
    def test_regime_gate_returns_the_existence_verdict(self, gamma):
        triplet = LevyTriplet(0.0, 0.0, AlphaStable(1.5))
        assert refuse_outside_regime(1, gamma, triplet, override=True) == existence_verdict(1, gamma, triplet)

    def test_operator_inversion_recovers_pairing(self):
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.0, 1.0, SymmetricTwoPoint(1.0, 1.0))), master_seed=3)
        system = enumerate_eigen(UNIT, count=64)
        field = solve_mild(real, 1.5, system)
        recovered = field.coeffs * system.lams**1.5
        assert recovered == pytest.approx(pair_eigen(real, system), rel=1e-12)


class TestFieldEvaluation:
    def test_boundary_exactly_zero(self):
        field = SpectralFunction(enumerate_eigen(UNIT, count=7), np.ones(7))
        assert np.all(field.evaluate([[0.0], [1.0]]) == 0.0)
        square = enumerate_eigen(HyperBox.unit(2), count=5)
        field2 = SpectralFunction(square, np.ones(5))
        assert field2.evaluate([[0.0, 0.5]])[0] == 0.0

    def test_single_mode_value(self):
        system = enumerate_eigen(UNIT, count=1)
        field = SpectralFunction(system, np.array([1.0]))
        assert field.evaluate([[0.5]])[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_outside_box_rejected(self):
        field = SpectralFunction(enumerate_eigen(UNIT, count=3), np.ones(3))
        with pytest.raises(ValueError):
            field.evaluate([[1.2]])

    def test_grid_matches_pointwise(self):
        system = enumerate_eigen(HyperBox.unit(2), count=40)
        rng = np.random.default_rng(0)
        field = SpectralFunction(system, rng.standard_normal(40))
        axes = [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)]
        grid = eval_field_grid(field, axes)
        pts = np.array([[x, y] for x in axes[0] for y in axes[1]])
        flat = field.evaluate(pts).reshape(9, 7)
        assert np.max(np.abs(grid - flat)) < 1e-12
        assert np.all(grid[0, :] == 0.0) and np.all(grid[:, -1] == 0.0)


class TestTorsion:
    def test_unit_interval_center(self):
        system = enumerate_eigen(UNIT, count=1000)
        v = torsion_solution(system)
        assert v.evaluate([[0.5]])[0] == pytest.approx(0.125, abs=1e-4)

    def test_boundary_zero(self):
        system = enumerate_eigen(UNIT, count=100)
        assert torsion_solution(system).evaluate([[0.0]])[0] == 0.0

    def test_length_two_interval(self):
        box = HyperBox(((0.0, 2.0),))
        system = enumerate_eigen(box, count=1000)
        v = torsion_solution(system)
        # Closed form x (2 - x) / 2 at x = 1.
        assert v.evaluate([[1.0]])[0] == pytest.approx(0.5, abs=1e-4)


class TestGreenConvolve:
    def test_diagonal_action_on_eigenfunction(self):
        system = enumerate_eigen(UNIT, count=5)
        out = green_convolve(system, 1.0, parse_function({"kind": "eigenfunction", "index": [1]}, UNIT))
        assert out.coeffs[0] == pytest.approx(1.0 / system.lams[0], rel=1e-15)
        assert np.all(out.coeffs[1:] == 0.0)

    def test_constant_source_equals_torsion(self):
        system = enumerate_eigen(UNIT, count=50)
        conv = green_convolve(system, 1.0, Constant(1.0))
        assert np.array_equal(conv.coeffs, torsion_solution(system).coeffs)

    def test_power_two_on_second_mode(self):
        system = enumerate_eigen(UNIT, count=5)
        out = green_convolve(system, 2.0, parse_function({"kind": "eigenfunction", "index": [2]}, UNIT))
        assert out.coeffs[1] == pytest.approx((4.0 * math.pi**2) ** -2, rel=1e-14)


class TestParseval:
    def test_kernel_square_integral_matches_coefficient_sum(self):
        system = enumerate_eigen(UNIT, count=200)
        x = 0.37
        ex = eigen_matrix(system, np.array([[x]]))[:, 0]
        coeff_sum = float(np.sum(ex**2 * system.lams ** (-4.0)))
        axes, w = gauss_rule(UNIT, 512)
        kernel_vals = (ex * system.lams ** (-2.0)) @ eigen_matrix(system, tensor_points(axes))
        quad_val = float(np.dot(w, kernel_vals**2))
        assert abs(quad_val - coeff_sum) < 1e-6


class TestDumps:
    def test_coefficient_csv(self, tmp_path):
        system = enumerate_eigen(UNIT, count=4)
        field = SpectralFunction(system, np.array([0.5, -1.0, 0.25, 0.0]))
        path = tmp_path / "coeffs.csv"
        dump_coeffs_csv(field, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "ordinal,k_1,lambda,a_k"
        assert len(lines) == 5
        row = lines[1].split(",")
        assert float(row[3]) == 0.5

    def test_field_grid_csv(self, tmp_path):
        system = enumerate_eigen(UNIT, count=3)
        field = SpectralFunction(system, np.ones(3))
        path = tmp_path / "field.csv"
        dump_field_grid_csv(field, [np.linspace(0.0, 1.0, 5)], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x_1,value"
        assert len(lines) == 6
        assert float(lines[1].split(",")[1]) == 0.0  # boundary row


def test_a_power_past_the_doubles_reads_a_zero_mode_and_keeps_the_finite_bits():
    system = enumerate_eigen(UNIT, count=256)
    realization = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.0, 0.3, AlphaStable(1.5)), eps=0.05), 3)
    with np.errstate(over="ignore"):
        powers = system.lams**300.0
    finite = np.isfinite(powers)
    assert 0 < finite.sum() < len(system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = solve_mild(realization, 300.0, system)
        smoothed = green_convolve(system, 300.0, Constant(1.0))
    coeffs = pair_eigen(realization, system)
    assert np.array_equal(field.coeffs[finite], coeffs[finite] / powers[finite])
    assert np.all(field.coeffs[~finite] == 0.0) and np.all(smoothed.coeffs[~finite] == 0.0)
    assert np.all(np.isfinite(smoothed.coeffs))
