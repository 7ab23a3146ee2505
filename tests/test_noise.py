import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from levy_elliptic import _rng, domain, noise
from levy_elliptic._rng import keyed_normals, replicate_seed, stream
from levy_elliptic.diagnostics import run_replicates
from levy_elliptic.domain import HyperBox, eigen_matvec_blocks, enumerate_eigen, listing_blocks, single_mode
from levy_elliptic.functions import (
    AxisPower,
    Constant,
    Indicator,
    SpectralFunction,
    fourier_vector,
    integral,
    parse_function,
)
from levy_elliptic.measures import (
    AlphaStable,
    LevyTriplet,
    NullMeasure,
    SymmetricTwoPoint,
    VarianceGamma,
    band_variance,
    sample_jump_sizes,
)
from levy_elliptic.noise import (
    JumpAtomSet,
    NoiseLaw,
    NoiseRealization,
    pair_eigen,
    pair_with_function,
    pairing_batch,
    replicate_noise,
    sample_noise,
    uniform_locations,
)

UNIT = HyperBox.unit(1)


def atom_realization(locations, sizes, triplet=None, eps=0.5, policy="drop", seed=0):
    """Hand-built realization with prescribed atoms, for closed-form oracles."""
    triplet = triplet or LevyTriplet(0.0, 0.0, SymmetricTwoPoint(1.0, 2.0))
    atoms = JumpAtomSet(np.atleast_2d(locations), np.atleast_1d(sizes))
    return NoiseRealization(NoiseLaw(UNIT, triplet, eps, policy), seed, atoms)


def eigen_matvec(system, points, weights) -> np.ndarray:
    """E @ w in one array: the blocks of ``domain.eigen_matvec_blocks`` end to end."""
    return np.concatenate(list(eigen_matvec_blocks(system, points, weights)))


def rounding_bound(real, count, f_sup=1.0):
    """1e-12 times the scale of a pairing with |f| <= f_sup: the atom sum, ``count``
    Gaussian terms of 4 standard deviations, and the drift."""
    law = real.law
    gauss = 4.0 * math.sqrt(law.gaussian_variance) * count
    return 1e-12 * f_sup * (float(np.sum(np.abs(real.atoms.sizes))) + gauss + abs(law.triplet.b))


def jump_law(measure, eps):
    return NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, measure), eps)


class TestPrmSampling:
    def test_null_measure_empty(self):
        atoms = sample_noise(jump_law(NullMeasure(), 0.5), master_seed=0).atoms
        assert atoms.count == 0

    def test_stable_mean_count(self):
        # tail mass at eps=1 is exactly 1, so counts are Poisson(1).
        law = jump_law(AlphaStable(1.0), 1.0)
        counts = [sample_noise(law, master_seed=seed).atoms.count for seed in range(10_000)]
        assert abs(np.mean(counts) - 1.0) <= 0.03

    def test_two_point_poisson_rate(self):
        law = jump_law(SymmetricTwoPoint(2.0, 1.0), 0.5)
        counts = np.array([sample_noise(law, master_seed=seed).atoms.count for seed in range(6000)])
        assert abs(np.mean(counts) - 2.0) <= 3.0 * math.sqrt(2.0 / 6000)
        assert abs(np.var(counts) / 2.0 - 1.0) <= 0.1

    def test_atoms_respect_threshold_and_box(self):
        atoms = sample_noise(jump_law(AlphaStable(1.2), 0.3), master_seed=3).atoms
        assert np.all(np.abs(atoms.sizes) > 0.3)
        assert np.all((atoms.locations >= 0.0) & (atoms.locations <= 1.0))

    @pytest.mark.parametrize("measure", [AlphaStable(1.2), VarianceGamma(1.0, 1.0), SymmetricTwoPoint(3.0, 0.7)])
    def test_atoms_are_one_stream_in_draw_order(self, measure):
        # Count, then locations, then sizes, all from the ATOM_STREAM generator.
        box = HyperBox(((0.0, 2.0), (-1.0, 1.0)))
        law = NoiseLaw(box, LevyTriplet(0.0, 0.0, measure), 0.3)
        rng = stream(21, _rng.ATOM_STREAM)
        n = int(rng.poisson(box.volume * measure.tail_mass(0.3)))
        locations = uniform_locations(box, n, rng)
        sizes = sample_jump_sizes(measure, 0.3, rng, size=n)
        atoms = sample_noise(law, master_seed=21).atoms
        assert n > 0 and atoms.locations.shape == (n, 2)
        assert np.array_equal(atoms.locations.view(np.int64), locations.view(np.int64))
        assert np.array_equal(atoms.sizes.view(np.int64), sizes.view(np.int64))

    def test_realization_over_the_atom_budget_is_refused(self, monkeypatch):
        # The default eps = 0.01 gives 0.01^-1.5 = 1000 stable atoms on the unit interval.
        monkeypatch.setattr(noise, "BATCH_ATOMS", 100)
        triplet = LevyTriplet(0.0, 1.0, AlphaStable(1.5))
        message = r"^eps=0.01 gives 1e\+03 expected atoms a draw, above the bound of BATCH_ATOMS=100; raise eps$"
        with pytest.raises(ValueError, match=message):
            sample_noise(NoiseLaw(UNIT, triplet), master_seed=1)
        monkeypatch.setattr(noise, "BATCH_ATOMS", 2000)
        assert 800 < sample_noise(NoiseLaw(UNIT, triplet), master_seed=1).atoms.count < 1200


class TestPairEigen:
    def test_zero_triplet_all_zero(self):
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, NullMeasure())), master_seed=5)
        system = enumerate_eigen(UNIT, count=12)
        assert np.all(pair_eigen(real, system) == 0.0)

    def test_single_atom_closed_form(self):
        real = atom_realization([[0.5]], [2.0])
        system = enumerate_eigen(UNIT, count=8)
        coeffs = pair_eigen(real, system)
        assert coeffs[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert coeffs[1] == pytest.approx(0.0, abs=1e-13)

    def test_drift_term_closed_form(self):
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(1.0, 0.0, NullMeasure())), master_seed=6)
        system = enumerate_eigen(UNIT, count=4)
        coeffs = pair_eigen(real, system)
        oracle, _ = integrate.quad(lambda x: math.sqrt(2.0) * math.sin(math.pi * x), 0, 1)
        assert coeffs[0] == pytest.approx(oracle, rel=1e-12)
        assert coeffs[0] == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-12)
        assert coeffs[1] == 0.0

    def test_box_mismatch_rejected(self):
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, NullMeasure())), master_seed=7)
        other = enumerate_eigen(HyperBox(((0.0, 2.0),)), count=3)
        with pytest.raises(ValueError, match="different boxes"):
            pair_eigen(real, other)

    def test_sigma_zero_gaussian_map_identically_zero(self):
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, SymmetricTwoPoint(1.0, 1.0))), master_seed=8)
        system = enumerate_eigen(UNIT, count=50)
        assert [draws for _, draws in real.gaussian_blocks(system)] == [None]

    @pytest.mark.parametrize("policy, small_jumps", [("gaussianize", True), ("drop", False)])
    def test_gaussian_part_variance(self, policy, small_jumps):
        # One keyed N(0, sigma^2 + v) draw an index, v the truncated variance
        # at eps under gaussianize and 0 under drop.
        measure, eps = AlphaStable(1.0), 0.5
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.0, 0.6, measure), eps, policy), master_seed=9)
        draws = np.concatenate([draws for _, draws in real.gaussian_blocks(enumerate_eigen(UNIT, count=200_000))])
        want = 0.36 + (measure.truncated_variance(eps) if small_jumps else 0.0)
        assert np.var(draws) == pytest.approx(want, rel=0.02)

    def test_drop_policy_without_sigma_adds_nothing(self):
        real = sample_noise(
            NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, AlphaStable(1.0)), eps=0.5, policy="drop"), master_seed=10
        )
        assert [draws for _, draws in real.gaussian_blocks(enumerate_eigen(UNIT, count=49))] == [None]

    def test_surrogate_keeps_its_keyed_stream_without_sigma(self):
        # At sigma = 0 the Gaussian part is the surrogate, drawn under purpose 0x22.
        law = NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, AlphaStable(1.2)), eps=0.3)
        real = sample_noise(law, master_seed=12)
        system = enumerate_eigen(UNIT, count=300)
        want = eigen_matvec(system, real.atoms.locations, real.atoms.sizes)
        want += keyed_normals(12, 0x22, system.indices) * math.sqrt(law.surrogate_variance)
        assert real.atoms.count > 0
        assert np.array_equal(pair_eigen(real, system).view(np.int64), want.view(np.int64))


class TestPairWithFunction:
    def test_zero_function(self):
        real = atom_realization([[0.5]], [2.0])
        system = enumerate_eigen(UNIT, count=6)
        assert pair_with_function(real, Constant(0.0), system) == 0.0

    def test_eigenfunction_reads_its_pair_eigen_coefficient(self):
        triplet = LevyTriplet(0.7, 1.3, SymmetricTwoPoint(2.0, 1.0))
        real = sample_noise(NoiseLaw(UNIT, triplet, eps=0.4), master_seed=11)
        system = enumerate_eigen(UNIT, count=9)
        coeffs = pair_eigen(real, system)
        bound = rounding_bound(real, len(system), math.sqrt(2.0))
        for pos, k in [(0, 1), (4, 5), (8, 9)]:
            val = pair_with_function(real, parse_function({"kind": "eigenfunction", "index": [k]}, UNIT), system)
            assert abs(val - coeffs[pos]) <= bound
        # Any one-mode expansion the system lists scales that coefficient.
        val = pair_with_function(real, SpectralFunction(single_mode(UNIT, (5,)), [2.5]), system)
        assert abs(val - 2.5 * coeffs[4]) <= 2.5 * bound

    @pytest.mark.parametrize("index", [(1, 1), (2, 1), (3, 4)])
    def test_eigenfunction_on_a_rectangle_is_the_pair_eigen_coefficient(self, index):
        box = HyperBox(((0.0, 1.0), (0.0, 1.7)))
        real = sample_noise(NoiseLaw(box, LevyTriplet(0.3, 0.9, SymmetricTwoPoint(2.0, 1.0)), eps=0.4), master_seed=5)
        system = enumerate_eigen(box, count=64)
        pos = system.indices.tolist().index(list(index))
        val = pair_with_function(real, parse_function({"kind": "eigenfunction", "index": list(index)}, box), system)
        assert abs(val - pair_eigen(real, system)[pos]) <= rounding_bound(real, len(system), 2.0 / math.sqrt(1.7))

    @pytest.mark.parametrize(
        "triplet, policy",
        [
            (LevyTriplet(0.0, 1.0, SymmetricTwoPoint(1.0, 2.0)), "drop"),
            # sigma = 0: the Gaussian part is the small-jump surrogate alone.
            (LevyTriplet(0.0, 0.0, AlphaStable(1.5)), "gaussianize"),
        ],
        ids=["sigma", "surrogate"],
    )
    def test_integrand_outside_l2_refused_with_a_gaussian_part(self, triplet, policy):
        real = atom_realization([[0.5]], [2.0], triplet=triplet, eps=0.1, policy=policy)
        system = enumerate_eigen(UNIT, count=4)
        with pytest.raises(ValueError, match="not square integrable"):
            pair_with_function(real, AxisPower(-0.5), system)
        # The batch pairs the same law, so it refuses the same integrand.
        with pytest.raises(ValueError, match="not square integrable"):
            pairing_batch(real.law, AxisPower(-0.5), 1000, 1)

    def test_integrand_outside_l2_paired_without_a_gaussian_part(self):
        real = atom_realization([[0.25], [0.5]], [2.0, -1.5], LevyTriplet(0.0, 0.0, AlphaStable(1.5)), eps=0.1)
        assert pair_with_function(real, AxisPower(-0.5), enumerate_eigen(UNIT, count=4)) == 2.0 * 2.0 - 1.5 * 0.5**-0.5

    def test_expansion_outside_the_listing_refused_with_a_gaussian_part(self):
        # The Gaussian part pairs f through the listing, which lacks e_300 at K = 256.
        real = atom_realization([[0.5]], [2.0], LevyTriplet(0.0, 0.0, AlphaStable(1.5)), eps=0.1, policy="gaussianize")
        system = enumerate_eigen(UNIT, count=256)
        f = parse_function({"kind": "eigenfunction", "index": [300]}, UNIT)
        message = r"^integrand has 1 nonzero coefficients at modes outside the listing of K=256 modes, .*; raise K$"
        with pytest.raises(ValueError, match=message):
            pair_with_function(real, f, system)
        # A zero coefficient there drops nothing.
        padded = SpectralFunction(enumerate_eigen(UNIT, count=300), np.eye(300)[0])
        e_1 = parse_function({"kind": "eigenfunction", "index": [1]}, UNIT)
        assert pair_with_function(real, padded, system) == pair_with_function(real, e_1, system)

    def test_expansion_outside_the_listing_paired_without_a_gaussian_part(self):
        real = atom_realization([[0.5]], [2.0])
        f = parse_function({"kind": "eigenfunction", "index": [300]}, UNIT)
        assert pair_with_function(real, f, enumerate_eigen(UNIT, count=256)) == float(f.evaluate([[0.5]])[0] * 2.0)

    def test_gaussian_part_filled_block_by_block_is_the_whole_draw(self, monkeypatch):
        # The K-long Gaussian vector is filled one listing block at a time, with
        # one KeyedWork for the walk, and dotted with <f, e_k> once.
        real = sample_noise(NoiseLaw(UNIT, LevyTriplet(0.4, 0.7, SymmetricTwoPoint(2.0, 1.0)), eps=0.4), master_seed=14)
        system, f = enumerate_eigen(UNIT, count=1000), AxisPower(1.0)
        draws = keyed_normals(14, _rng.GAUSS_COEFF, system.indices) * math.sqrt(real.law.gaussian_variance)
        want = 0.4 * integral(f, UNIT)
        want += float(np.dot(fourier_vector(system, f), draws))
        want += float(f.evaluate(real.atoms.locations) @ real.atoms.sizes)
        monkeypatch.setattr(domain, "BLOCK_MODES", 64)
        built = []

        class CountedWork(_rng.KeyedWork):
            def __init__(self, n):
                built.append(n)
                super().__init__(n)

        monkeypatch.setattr(_rng, "KeyedWork", CountedWork)
        assert real.atoms.count > 0 and len(listing_blocks(system)) > 3
        assert pair_with_function(real, f, system) == want
        assert len(built) == 1

    def test_additivity_over_disjoint_boxes_to_rounding(self):
        triplet = LevyTriplet(0.5, 0.7, SymmetricTwoPoint(3.0, 1.0))
        real = sample_noise(NoiseLaw(UNIT, triplet, eps=0.4), master_seed=12)
        system = enumerate_eigen(UNIT, count=40)
        left = Indicator((HyperBox(((0.0, 0.5),)),))
        right = Indicator((HyperBox(((0.5, 1.0),)),))
        union = Indicator((HyperBox(((0.0, 0.5),)), HyperBox(((0.5, 1.0),))))
        lhs = pair_with_function(real, left, system) + pair_with_function(real, right, system)
        rhs = pair_with_function(real, union, system)
        assert abs(lhs - rhs) <= rounding_bound(real, len(system))

    @pytest.mark.parametrize(
        "triplet, policy",
        [
            (LevyTriplet(0.5, 0.0, SymmetricTwoPoint(5.0, 0.7)), "gaussianize"),
            (LevyTriplet(0.5, 0.0, AlphaStable(1.5)), "drop"),
        ],
    )
    def test_no_spectral_part_skips_fourier_coefficients(self, monkeypatch, triplet, policy):
        real = sample_noise(NoiseLaw(UNIT, triplet, eps=0.5, policy=policy), master_seed=18)
        assert real.atoms.count > 0
        f = AxisPower(-0.3)
        expected = 0.5 * integral(f, UNIT) + float(f.evaluate(real.atoms.locations) @ real.atoms.sizes)
        monkeypatch.setattr(noise, "fourier_vector", lambda *a: pytest.fail("fourier_vector called"))
        assert pair_with_function(real, f, enumerate_eigen(UNIT, count=64)) == expected

    @pytest.mark.parametrize(
        "triplet",
        [LevyTriplet(0.0, 0.0, SymmetricTwoPoint(2.0, 1.0)), LevyTriplet(0.0, 0.6, VarianceGamma(1.0, 1.0))],
    )
    def test_batch_sampler_matches_direct_pairing_law(self, triplet):
        # The vectorized batch samples the law of <noise, f>, which repeated
        # pair_with_function calls reach as K grows; compare moments at modest
        # sample sizes.
        box, system = UNIT, enumerate_eigen(UNIT, count=64)
        law = NoiseLaw(box, triplet, 0.5, "gaussianize")
        f = Constant(1.0)
        direct = []
        for i in range(400):
            real = sample_noise(law, master_seed=replicate_seed(13, i))
            direct.append(pair_with_function(real, f, system))
        batch = pairing_batch(law, f, 20_000, 14)
        # The atoms above eps give their band variance (2 for rate 2 and unit
        # magnitudes; variance-gamma puts e^-50 of it above 50), the Gaussian
        # part its variance times int f^2, which the 64-mode Parseval sum of
        # the direct pairing misses by 0.6 %.
        want = band_variance(triplet.measure, 0.5, 50.0) + law.gaussian_variance * integral(f, box, 2)
        assert np.var(batch) == pytest.approx(want, rel=0.05)
        assert np.var(direct) == pytest.approx(want, rel=0.35)

    def test_batch_gaussian_part_reads_the_untruncated_square_integral(self):
        # Unit white noise paired with the two-box indicator at d = 2 has variance
        # int f^2 = 0.625; the Parseval sum of a 256-mode listing reads 0.5876.
        box = HyperBox.unit(2)
        f = Indicator((HyperBox(((0.0, 0.5), (0.0, 1.0))), HyperBox(((0.5, 1.0), (0.0, 0.25)))))
        m = 100_000
        x = pairing_batch(NoiseLaw(box, LevyTriplet(0.0, 1.0, NullMeasure())), f, m, 21)
        # The variance of m normals has standard error var sqrt(2 / (m - 1)).
        assert abs(np.var(x) - 0.625) <= 4.0 * 0.625 * math.sqrt(2.0 / (m - 1))

    def test_gaussian_pairing_variance_window(self):
        # Unit-variance white noise paired with the unit constant: variance int 1^2 = 1.
        law = NoiseLaw(UNIT, LevyTriplet(0.0, 1.0, NullMeasure()), 0.01, "gaussianize")
        x = pairing_batch(law, Constant(1.0), 100_000, 15)
        assert 0.98 <= np.var(x) <= 1.02

    @pytest.mark.parametrize(
        "measure", [SymmetricTwoPoint(1.0, 1.0), VarianceGamma(1.0, 1.0)]
    )
    def test_symmetry_odd_moments(self, measure):
        x = pairing_batch(NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, measure), 0.05, "gaussianize"), Constant(1.0), 100_000, 16)
        m = len(x)
        assert abs(np.mean(x)) <= 3.0 * np.std(x) / math.sqrt(m)
        x3 = x**3
        assert abs(np.mean(x3)) <= 3.0 * np.std(x3) / math.sqrt(m)

    def test_compensator_drop_zero_mean(self):
        # Raw band atoms have exactly zero mean for symmetric measures.
        x = pairing_batch(
            NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, SymmetricTwoPoint(1.0, 0.8)), 0.5, "drop"), Constant(1.0), 100_000, 17
        )
        assert abs(np.mean(x)) <= 3.0 * np.std(x) / math.sqrt(len(x))


class TestReproducibility:
    def test_same_seed_same_realization(self):
        triplet = LevyTriplet(0.2, 0.9, AlphaStable(1.4))
        a = sample_noise(NoiseLaw(UNIT, triplet, eps=0.2), master_seed=99)
        b = sample_noise(NoiseLaw(UNIT, triplet, eps=0.2), master_seed=99)
        assert np.array_equal(a.atoms.locations, b.atoms.locations)
        assert np.array_equal(a.atoms.sizes, b.atoms.sizes)
        system = enumerate_eigen(UNIT, count=30)
        assert np.array_equal(pair_eigen(a, system), pair_eigen(b, system))

    def test_keyed_normals_order_independent(self):
        idx = np.arange(1, 101)[:, None]
        full = keyed_normals(42, 7, idx)
        shuffled = np.random.default_rng(0).permutation(100)
        again = keyed_normals(42, 7, idx[shuffled])
        assert np.array_equal(full[shuffled], again)
        single = keyed_normals(42, 7, idx[17:18])
        assert single[0] == full[17]

    def test_keyed_normals_distribution(self):
        draws = keyed_normals(3, 1, np.arange(1, 200_001)[:, None])
        assert abs(np.mean(draws)) < 0.01
        assert np.var(draws) == pytest.approx(1.0, rel=0.02)

    def test_thread_count_does_not_change_results(self):
        triplet = LevyTriplet(0.0, 1.0, SymmetricTwoPoint(1.0, 1.0))
        system = enumerate_eigen(UNIT, count=20)

        def one(i):
            real = sample_noise(NoiseLaw(UNIT, triplet, eps=0.5), master_seed=replicate_seed(5, i))
            return pair_eigen(real, system)

        serial = run_replicates(one, 12, workers=1)
        threaded = run_replicates(one, 12, workers=4)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="policy"):
            NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, NullMeasure()), policy="other")

    def test_replicate_noise_is_the_realization_at_the_replicate_seed(self):
        law = NoiseLaw(UNIT, LevyTriplet(0.2, 0.9, AlphaStable(1.4)), eps=0.2)
        for i in (0, 3):
            a, b = replicate_noise(law, 21, i), sample_noise(law, replicate_seed(21, i))
            assert a.law is law and a.master_seed == b.master_seed
            assert np.array_equal(a.atoms.locations, b.atoms.locations)
            assert np.array_equal(a.atoms.sizes, b.atoms.sizes)


class TestNoiseLaw:
    TRIPLET = LevyTriplet(0.0, 0.0, AlphaStable(1.5))

    def test_misspelled_policy_is_refused(self):
        # Once, a CF check given this spelling dropped the small jumps and failed.
        with pytest.raises(ValueError, match=r"policy must be one of .* got 'gaussianise'"):
            NoiseLaw(UNIT, self.TRIPLET, 0.5, "gaussianise")

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5, math.nan, math.inf])
    def test_eps_outside_the_unit_interval_is_refused(self, eps):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            NoiseLaw(UNIT, self.TRIPLET, eps)

    def test_surrogate_variance_follows_the_policy(self):
        law = NoiseLaw(UNIT, self.TRIPLET, 0.5)
        assert law.surrogate_variance == AlphaStable(1.5).truncated_variance(0.5) > 0.0
        assert NoiseLaw(UNIT, self.TRIPLET, 0.5, "drop").surrogate_variance == 0.0


class TestProperties:
    @settings(deadline=None, max_examples=50)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**32),
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(1, 10**9)] * d), min_size=1, max_size=40, unique=True)
        ),
        st.randoms(use_true_random=False),
    )
    def test_keyed_normals_follow_a_permutation_of_their_indices(self, seed, purpose, rows, random):
        idx = np.array(rows, dtype=np.int64)
        order = np.array(random.sample(range(len(idx)), len(idx)))
        draws = keyed_normals(seed, purpose, idx)
        assert np.array_equal(keyed_normals(seed, purpose, idx[order]), draws[order])

    @settings(deadline=None, max_examples=50)
    @given(
        st.integers(1, 2),
        st.integers(1, 40),
        st.integers(0, 2**32),
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
    )
    @example(1, 1, 0, 0.0, 5e-324)  # a subnormal size, once falsified on a fresh database
    def test_pair_eigen_is_linear_in_the_atom_sizes(self, d, n, seed, a, b):
        box = HyperBox.unit(d)
        system = enumerate_eigen(box, count=150)
        rng = np.random.default_rng(seed)
        locations = rng.random((n, d))
        z1, z2 = rng.standard_normal(n), 10.0 * rng.standard_normal(n)

        def paired(sizes):
            atoms = JumpAtomSet(locations, sizes)
            trip = LevyTriplet(0.0, 0.0, SymmetricTwoPoint(1.0, 2.0))
            return pair_eigen(NoiseRealization(NoiseLaw(box, trip, 0.5, "drop"), 0, atoms), system)

        # Each coefficient sums n terms of at most sup|e_k| = 2^(d/2) times a size,
        # so roundoff stays below a few n ulps of the sum of absolute terms.
        # With subnormal sizes one rounding is a whole subnormal unit, which the
        # relative bound undercuts, so the bound has a floor of a few such units.
        scale = 2.0 ** (d / 2.0) * np.sum(np.abs(a * z1) + np.abs(b * z2))
        floor = 4 * (n + 1) * np.finfo(float).smallest_subnormal
        combined = paired(a * z1 + b * z2)
        assert np.max(np.abs(combined - (a * paired(z1) + b * paired(z2)))) <= max(1e-13 * scale, floor)

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(1, 2),
        st.integers(0, 2**32),
        st.floats(0.05, 0.95),
        st.data(),
    )
    def test_pairing_is_additive_over_a_box_cut_in_two(self, d, seed, cut, data):
        box = HyperBox.unit(d)
        triplet = LevyTriplet(0.3, 0.8, SymmetricTwoPoint(40.0, 1.5))
        real = sample_noise(NoiseLaw(box, triplet, eps=0.5), master_seed=seed)
        system = enumerate_eigen(box, count=64)
        axis = data.draw(st.integers(0, d - 1))
        whole = [(0.0, 1.0)] * d
        left, right = list(whole), list(whole)
        left[axis], right[axis] = (0.0, cut), (cut, 1.0)
        parts = [Indicator((HyperBox(tuple(sides)),)) for sides in (left, right)]
        split = sum(pair_with_function(real, part, system) for part in parts)
        union = Indicator(tuple(part.boxes[0] for part in parts))
        bound = rounding_bound(real, len(system))
        assert abs(pair_with_function(real, union, system) - split) <= bound
        assert abs(pair_with_function(real, Indicator((box,)), system) - split) <= bound
