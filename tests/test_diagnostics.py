import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from levy_elliptic import _rng, diagnostics, domain, noise, solver
from levy_elliptic.diagnostics import (
    continuity_probe,
    empirical_cf_test,
    isometry_test,
    sobolev_sweep,
    spectral_bound_check,
    weak_identity_test,
)
from levy_elliptic.domain import HyperBox, box_fourier, eigen_matrix, enumerate_eigen, listing_blocks, single_mode
from levy_elliptic.functions import AxisPower, Constant, Indicator, Polynomial, SpectralFunction, integral, parse_function
from levy_elliptic.measures import (
    AlphaStable,
    LevyTriplet,
    NullMeasure,
    SymmetricTwoPoint,
    VarianceGamma,
    band_variance,
    characteristic_exponent,
    sample_jump_sizes,
)
from levy_elliptic.noise import NoiseLaw, jump_sums, pairing_batch, replicate_noise, sample_noise
from levy_elliptic.solver import eval_field_grid, green_gamma_grid

SQUARE = HyperBox.unit(2)
UNIT = HyperBox.unit(1)
MEASURES = [AlphaStable(1.5), VarianceGamma(1.0, 1.0), SymmetricTwoPoint(2.0, 0.5)]
# Seeds fixed before the first run of these tests; never re-picked.
SEEDS = [11, 12, 13]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weak_identity_holds_on_a_small_d2_realization(seed):
    system = enumerate_eigen(SQUARE, count=64)
    triplet = LevyTriplet(0.0, 0.3, AlphaStable(1.5))
    realization = sample_noise(NoiseLaw(SQUARE, triplet, eps=0.05), master_seed=seed)
    assert realization.atoms.count > 0
    report = weak_identity_test(realization, parse_function({"kind": "eigenfunction", "index": [1, 2]}, SQUARE), 1.0, system)
    assert report.passed, report.to_dict()
    assert report.seed == seed


@pytest.mark.parametrize("d", [1, 2])
def test_continuity_probe_does_not_depend_on_workers(d):
    box, triplet = HyperBox.unit(d), LevyTriplet(0.0, 0.0, AlphaStable(1.5))
    law = NoiseLaw(box, triplet, eps=0.05)
    reports = [continuity_probe(law, 1.5, [3, 4, 5], 8, 7, workers=w) for w in (1, 2)]
    assert reports[0].to_dict() == reports[1].to_dict()
    assert reports[0].passed and not reports[0].inconclusive


@pytest.mark.parametrize("gamma, predicted", [(0.4, "blowup-consistent"), (0.6, "continuous-consistent")])
def test_continuity_probe_predicts_the_side_of_d_over_2(gamma, predicted):
    # At d=1 the solution exists above gamma = 1/4 and is continuous above 1/2.
    triplet = LevyTriplet(0.0, 0.0, AlphaStable(1.5))
    report = continuity_probe(NoiseLaw(UNIT, triplet, eps=0.5), gamma, [3, 4, 5], 2, 7)
    assert report.details["predicted"] == predicted


def test_sobolev_sweep_predicts_from_the_ceiling():
    # r_max = 2 gamma - d/2 = 1.5 at d=1, gamma=1.
    triplet = LevyTriplet(0.0, 0.0, AlphaStable(1.5))
    law = NoiseLaw(UNIT, triplet, eps=1.0)
    reports = sobolev_sweep(law, 1.0, [1.0, 1.4, 1.6], [512, 1024, 2048], 1, 7, surrogate=True)
    assert [r.details["predicted"] for r in reports] == ["convergent", "convergent", "divergent"]
    assert all(r.details["r_threshold"] == 1.5 for r in reports)


DEFAULT_K_LIST = [16384 << i for i in range(6)]


@pytest.mark.parametrize(
    "d, r_list",
    # At d = 2 the slope of the surrogate is off by the boundary term of Weyl's law,
    # about 2e-3 (2 gamma - r) over these cutoffs, and exact where the weights are
    # flat (r = 2 gamma); r = 1.0 = r_max is the endpoint, where the slope is 0.
    [(1, [1.0, 1.4, 1.6]), (2, [1.6, 2.0, 2.4])],
)
def test_surrogate_sweep_reads_the_ceiling_to_three_digits(d, r_list):
    law = NoiseLaw(HyperBox.unit(d), LevyTriplet(0.0, 0.0, AlphaStable(1.5)), eps=1.0)
    reports = sobolev_sweep(law, 1.0, r_list, DEFAULT_K_LIST, 1, 7, surrogate=True)
    r_max = 2.0 - d / 2.0
    for r, report in zip(r_list, reports):
        s = report.statistic
        assert report.details["interval"] == [s, s] and report.threshold == 0.0
        assert abs(report.details["r_max_hat"] - r_max) < 1e-3
        assert report.passed and not report.inconclusive
        assert report.details["classification"] == ("convergent" if r < r_max else "divergent")


@pytest.mark.parametrize("n, rank", [(1, 1), (2, 1), (5, 1), (8, 1), (9, 2), (10, 2), (20, 6), (100, 40)])
def test_median_rank_is_the_widest_95_percent_order_statistic_interval(n, rank):
    def coverage(j):
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(j)) / 2**n

    assert diagnostics.median_rank(n) == rank
    assert rank == 1 or coverage(rank) >= 0.95
    assert 2 * rank >= n or coverage(rank + 1) < 0.95


def test_doubling_slopes_read_a_power_law_and_a_flat_trajectory():
    k_list = [100, 200, 400, 800]
    # Increments over the doublings of 3 K^0.4 and of 0 everywhere.
    norms = np.cumsum([[5.0] + [3.0 * k**0.4 for k in k_list[:-1]], [0.0] * 4], axis=1)
    slopes = diagnostics.doubling_slopes(norms, k_list)
    assert slopes[0] == pytest.approx(0.4, rel=1e-12) and slopes[1] == -math.inf


def test_median_rank_is_the_largest_rank_of_95_percent_coverage_up_to_60_samples():
    # Exact coverage 1 - 2 P(Bin(n, 1/2) < j) in rationals, over every rank of the
    # interval [X_(j), X_(n+1-j)]; rank 1 when none reaches 95 %.
    for n in range(1, 61):
        def coverage(j):
            return 1 - Fraction(2 * sum(math.comb(n, i) for i in range(j)), 2**n)

        covering = [j for j in range(1, (n + 1) // 2 + 1) if coverage(j) >= Fraction(19, 20)]
        assert diagnostics.median_rank(n) == max(covering, default=1), n


@pytest.mark.parametrize("cutoffs", [3, 4, 6])
@pytest.mark.parametrize("s", [-2.0, -0.5, 0.0, 0.4, 1.5])
def test_doubling_slopes_recover_the_exponent_of_a_power_law(s, cutoffs):
    # Increments 0.7 K^s over each doubling K -> 2K, from every cutoff count the
    # config allows: the least-squares slope is s.
    k_list = [64 << i for i in range(cutoffs)]
    norms = np.cumsum([0.0] + [0.7 * k**s for k in k_list[:-1]])
    assert diagnostics.doubling_slopes(norms[None], k_list)[0] == pytest.approx(s, abs=1e-10)


def test_doubling_slopes_read_each_replicate_and_order_alone():
    # (replicates x orders x cutoffs) -> (replicates x orders); a constant offset
    # and a positive scale of a trajectory leave its slope.
    k_list = [128, 256, 512, 1024]
    norms = np.cumsum(np.random.default_rng(0).random((5, 3, 4)) + 0.1, axis=-1)
    slopes = diagnostics.doubling_slopes(norms, k_list)
    assert slopes.shape == (5, 3)
    assert np.allclose(diagnostics.doubling_slopes(3.0 * norms + 10.0, k_list), slopes, rtol=0.0, atol=1e-12)
    assert diagnostics.doubling_slopes(norms[2:3, 1:2], k_list)[0, 0] == pytest.approx(slopes[2, 1], rel=1e-14)


PLANTED_SLOPES = {
    "one-below": ([-0.2], "convergent"),
    "five-below": ([-0.3, -0.2, -0.25, -0.1, -0.01], "convergent"),
    "five-one-above": ([-0.3, -0.2, -0.25, -0.1, 0.01], "inconclusive"),
    "five-above": ([0.3, 0.2, 0.25, 0.1, 0.01], "divergent"),
    "three-at-zero": ([0.0, 0.0, 0.0], "inconclusive"),
    # At 20 replicates the interval runs from the 6th to the 15th order statistic.
    "twenty-five-above": ([-0.1] * 15 + [0.5] * 5, "convergent"),
    "twenty-six-above": ([-0.1] * 14 + [0.5] * 6, "inconclusive"),
    "twenty-five-below": ([-0.5] * 5 + [0.1] * 15, "divergent"),
}


@pytest.mark.parametrize("slopes, verdict", PLANTED_SLOPES.values(), ids=PLANTED_SLOPES.keys())
def test_sweep_verdict_reads_the_order_statistic_interval_of_the_median_slope(monkeypatch, slopes, verdict):
    n = len(slopes)
    planted = np.random.default_rng(0).permutation(slopes)[:, None]  # unsorted: the sweep sorts them
    monkeypatch.setattr(diagnostics, "doubling_slopes", lambda norms, k_list: planted.copy())
    law = NoiseLaw(UNIT, LevyTriplet(0.0, 1.0, NullMeasure()), eps=1.0)
    (report,) = sobolev_sweep(law, 1.0, [1.2], [512, 1024, 2048], n, 7)
    rank, ordered, s = diagnostics.median_rank(n), sorted(slopes), float(np.median(slopes))
    assert report.details["classification"] == verdict
    assert report.inconclusive == (verdict == "inconclusive")
    assert report.passed == (verdict == "convergent")  # r = 1.2 lies below r_max = 1.5
    assert report.statistic == s and report.threshold == 0.0 and report.replicates == n
    assert report.details["interval"] == [ordered[rank - 1], ordered[-rank]]
    assert report.details["r_max_hat"] == 1.2 - 0.5 * s


@pytest.mark.parametrize(
    "k_list", [[1, 2, 4], np.array([256, 512, 1024, 2048]), DEFAULT_K_LIST], ids=["from-1", "numpy", "default"]
)
def test_check_k_list_gives_doublings_back_as_ints(k_list):
    checked = diagnostics.check_k_list(k_list)
    assert checked == [int(k) for k in k_list] and all(type(k) is int for k in checked)


def direct_partial_norms(law, gamma, r_list, k_list, rep, seed, surrogate=False):
    """One replicate's partial norms (orders x cutoffs) from its whole coefficient
    vector: the drift, the dense E @ z of the atoms and the Gaussian part, drawn
    in one ``standard_normal`` call over the whole listing."""
    system = enumerate_eigen(law.box, count=k_list[-1])
    c = np.ones(len(system))
    if not surrogate:
        realization = replicate_noise(law, seed, rep)
        c = law.triplet.b * box_fourier(system)
        if realization.atoms.count:
            c += eigen_matrix(system, realization.atoms.locations) @ realization.atoms.sizes
        gaussian = _rng.stream(realization.master_seed, _rng.GAUSS_COEFF).standard_normal(len(system))
        c += gaussian * np.sqrt(law.gaussian_variance)
    terms = system.lams ** (np.array(r_list)[:, None] - 2.0 * gamma) * c**2
    return np.cumsum(terms, axis=1)[:, np.array(k_list) - 1]


SWEEP_CASES = {
    # Drift, Gaussian part and at most one atom: replicates 1 and 4 of seed 7 draw none.
    "d1-few-atoms": (NoiseLaw(UNIT, LevyTriplet(0.3, 0.5, AlphaStable(1.5)), eps=1.0), domain.CHUNK_CELLS, False),
    # About 90 atoms a replicate, a few a chunk: summed into the dense grid, chunk by chunk.
    "d1-atoms-in-chunks": (NoiseLaw(UNIT, LevyTriplet(0.3, 0.5, AlphaStable(1.5)), eps=0.05), 2000, False),
    "d2-few-atoms": (NoiseLaw(SQUARE, LevyTriplet(0.3, 0.5, AlphaStable(1.5)), eps=1.0), domain.CHUNK_CELLS, False),
    "d2-atoms-in-chunks": (NoiseLaw(SQUARE, LevyTriplet(0.3, 0.5, AlphaStable(1.5)), eps=0.05), 2000, False),
    "d1-surrogate": (NoiseLaw(UNIT, LevyTriplet(0.3, 0.5, AlphaStable(1.5)), eps=1.0), domain.CHUNK_CELLS, True),
}


@pytest.mark.parametrize("law,cells,surrogate", SWEEP_CASES.values(), ids=SWEEP_CASES.keys())
def test_blocked_sweep_is_the_whole_vector_computation(monkeypatch, law, cells, surrogate):
    # Blocks of a few dozen modes split every segment between cutoffs.
    monkeypatch.setattr(domain, "BLOCK_MODES", 64)
    monkeypatch.setattr(domain, "CHUNK_CELLS", cells)
    r_list, k_list, replicates = [1.0, 1.4, 1.6], [512, 1024, 2048], 5
    system = enumerate_eigen(law.box, count=k_list[-1])
    assert len(listing_blocks(system)) > 3 * len(k_list)
    reports = sobolev_sweep(law, 1.0, r_list, k_list, replicates, 7, surrogate=surrogate)
    reps = 1 if surrogate else replicates
    direct = np.stack([direct_partial_norms(law, 1.0, r_list, k_list, rep, 7, surrogate) for rep in range(reps)])
    for i, report in enumerate(reports):
        got = [s for _, s in report.details["trajectory"]]
        np.testing.assert_allclose(got, np.median(direct[:, i], axis=0), rtol=1e-12, atol=0.0)
    counts = [replicate_noise(law, 7, rep).atoms.count for rep in range(replicates)]
    chunk = system._kernel.chunk_points(system._kernel.rows)
    if law.eps == 1.0:
        assert 0 in counts and 0 < max(counts) <= chunk
    else:
        assert min(counts) > chunk


def test_a_replicate_holds_a_block_and_its_atoms_factors_not_the_listing():
    # The traced peak of a one-replicate sweep grows from K = 2^16 to 2^18 by
    # the atoms' offset factors and the anchor indices alone, which grow like
    # sqrt(K): the listing is K, and the blocks are BLOCK_MODES at both sizes.
    # Each K-long array the sweep or a replicate held would add 1.5 MiB.  A first,
    # untraced sweep makes the one-time allocations, which add 0.36 MB to a first peak.
    law = NoiseLaw(UNIT, LevyTriplet(0.2, 0.5, AlphaStable(1.5)), eps=0.5)
    r_list = [1.0, 1.4, 1.6]
    atoms = replicate_noise(law, 3, 0).atoms.count
    assert atoms > 0
    sobolev_sweep(law, 1.0, r_list, [1 << 10, 1 << 11, 1 << 12], 1, 3)
    peaks = []
    for top in (1 << 16, 1 << 18):
        tracemalloc.start()
        try:
            sobolev_sweep(law, 1.0, r_list, [top // 4, top // 2, top], 1, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # cos and sin of each offset at each atom, and the anchor indices, at 2^18 modes
    # (45 KB here, against 29 KB of growth seen); the bound allows twice that.
    step = domain._block_length(1 << 18)
    factors = 8 * step * (2 * atoms + 1)
    assert peaks[1] - peaks[0] <= 2 * factors


@pytest.mark.parametrize("d", [1, 2])
def test_spectral_bound_passes_on_interior_points(d):
    box = HyperBox.unit(d)
    pts = 0.25 + 0.5 * np.random.default_rng(1).random((4, d))
    report = spectral_bound_check(box, [100.0, 300.0, 1000.0, 3000.0], pts)
    assert report.passed, report.details["slopes"]
    assert report.replicates == 4


def jump_law(box, measure, eps):
    return NoiseLaw(box, LevyTriplet(0.0, 0.0, measure), eps)


def per_replicate_sums(box, measure, f, counts, rng, lo, budget, hi=np.inf):
    """The block walk of ``jump_sums`` with each replicate summed in a plain loop.

    A block grows while its atom count stays within the budget; its sizes,
    then its locations, are drawn from ``rng``.  Returns the sums and the
    atom count of each block that drew atoms.
    """
    m = len(counts)
    expected, blocks, i = np.zeros(m), [], 0
    while i < m:
        j = i + 1
        while j < m and counts[i : j + 1].sum() <= budget:
            j += 1
        n = int(counts[i:j].sum())
        if n:
            blocks.append(n)
            sizes = sample_jump_sizes(measure, lo, rng, size=n, hi=hi)
            y = box.lower + rng.random((n, box.dim)) * box.lengths
            weights = f.evaluate(y)
            atom = 0
            for rep in range(i, j):
                for _ in range(counts[rep]):
                    expected[rep] += weights[atom] * sizes[atom]
                    atom += 1
        i = j
    return expected, blocks


# Segment sums add at most a dozen terms of size at most 6 in another order
# than the loop: a few ulps of 6 * 12, fixed before the first run.
SUM_ABS_TOL = 1e-13


@pytest.mark.parametrize("budget", [noise.BLOCK_ATOMS, 4])
def test_jump_sums_give_each_replicate_its_own_atoms(monkeypatch, budget):
    # Poisson(3) counts: at a budget of 4 atoms, blocks hold one to a few
    # replicates, and a replicate above the budget makes a block of its own.
    monkeypatch.setattr(noise, "BLOCK_ATOMS", budget)
    box, f, measure, m = HyperBox(((0.0, 2.0),)), AxisPower(1.0), SymmetricTwoPoint(1.5, 3.0), 50
    got = jump_sums(jump_law(box, measure, 0.5), f, m, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    counts = rng.poisson(3.0, m)
    expected, _ = per_replicate_sums(box, measure, f, counts, rng, 0.5, budget)
    assert got == pytest.approx(expected, rel=1e-14, abs=SUM_ABS_TOL)


class FixedCounts:
    """A generator whose Poisson draw returns given counts and consumes nothing;
    every other draw is real."""

    def __init__(self, counts, seed):
        self.counts = np.asarray(counts)
        self.rng = np.random.default_rng(seed)

    def poisson(self, lam, size):
        assert size == len(self.counts)
        return self.counts.copy()

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize(
    "counts, blocks",
    [
        # Empty replicates open, split and close the first and last blocks;
        # the first fills its 6 atoms exactly, and the 9-atom replicate is
        # above the block and stands alone.
        ([0, 2, 0, 4, 0, 9, 0, 1, 0, 0, 4, 0, 0], [6, 9, 5]),
        ([0, 0, 0, 0], []),
        ([7], [7]),
    ],
)
def test_jump_sums_skip_empty_replicates_anywhere_in_a_block(monkeypatch, counts, blocks):
    monkeypatch.setattr(noise, "BLOCK_ATOMS", 6)
    drawn = []

    def counted(*args, **kwargs):
        drawn.append(kwargs["size"])
        return sample_jump_sizes(*args, **kwargs)

    monkeypatch.setattr(noise, "sample_jump_sizes", counted)
    box, f, measure = HyperBox(((0.0, 2.0), (1.0, 1.5))), AxisPower(1.0, axis=1), AlphaStable(1.5)
    counts = np.asarray(counts)
    got = jump_sums(jump_law(box, measure, 0.5), f, len(counts), FixedCounts(counts, 4), 2.0)
    rng = np.random.default_rng(4)
    expected, expected_blocks = per_replicate_sums(box, measure, f, counts, rng, 0.5, 6, 2.0)
    assert drawn == expected_blocks == blocks
    assert np.all(got[counts == 0] == 0.0)
    assert got == pytest.approx(expected, rel=1e-14, abs=SUM_ABS_TOL)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1.0, 2.5, -1.5])
def test_constant_integrand_steps_over_locations_bit_for_bit(monkeypatch, d, c):
    # Polynomial((c,)) evaluates to c at drawn locations; Constant(c) skips them.
    monkeypatch.setattr(noise, "BLOCK_ATOMS", 64)
    drawn = []

    def counted(*args, **kwargs):
        drawn.append(kwargs["size"])
        return sample_jump_sizes(*args, **kwargs)

    monkeypatch.setattr(noise, "sample_jump_sizes", counted)
    box = HyperBox(tuple((0.5 * i, 1.0 + i) for i in range(d)))
    sums, states = [], []
    for f in (Constant(c), Polynomial((c,))):
        rng = np.random.default_rng(21)
        sums.append(jump_sums(jump_law(box, AlphaStable(1.5), 0.2), f, 100, rng))
        states.append(rng.bit_generator.state)
    assert sums[0].tobytes() == sums[1].tobytes()
    assert states[0] == states[1]
    assert len(drawn) >= 2 * 10


def refuse(*args):
    raise AssertionError("fourier_vector called")


@pytest.mark.parametrize(
    "measure, policy", [(SymmetricTwoPoint(5.0, 0.5), "gaussianize"), (AlphaStable(1.5), "drop")]
)
def test_pairing_batch_without_a_gaussian_part_skips_fourier_coefficients(monkeypatch, measure, policy):
    f, triplet = AxisPower(-0.3), LevyTriplet(0.0, 0.0, measure)
    monkeypatch.setattr(noise, "fourier_vector", refuse)
    x = pairing_batch(NoiseLaw(UNIT, triplet, 0.05, policy), f, 1000, 3)
    rng = _rng.stream(3, _rng.BATCH_STREAM)
    assert np.array_equal(x, jump_sums(jump_law(UNIT, measure, 0.05), f, 1000, rng))


def cf_report(measure, seed, f=AxisPower(1.0), m=20_000):
    return empirical_cf_test(NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, measure), eps=0.05), f, [0.5, 1.0, 2.0], m, seed)


def isometry_report(measure, seed, f=AxisPower(1.0), m=20_000):
    return isometry_test(NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, measure), eps=0.05), f, m, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("measure", MEASURES)
def test_empirical_cf_passes_for_each_measure(measure, seed):
    report = cf_report(measure, seed)
    assert report.passed, report.to_dict()
    assert report.threshold == 4.0 / np.sqrt(20_000)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("measure", MEASURES)
def test_isometry_passes_for_each_measure(measure, seed):
    report = isometry_report(measure, seed)
    assert report.passed, report.to_dict()
    assert report.details["exact_variance"] == pytest.approx(band_variance(measure, 0.05, 1.0) / 3.0)


@pytest.mark.parametrize("measure", MEASURES)
def test_empirical_cf_fails_against_a_wrong_exponent(monkeypatch, measure):
    monkeypatch.setattr(diagnostics, "characteristic_exponent", lambda t, u: 1.2 * characteristic_exponent(t, u))
    report = cf_report(measure, SEEDS[0])
    assert not report.passed and report.statistic > report.threshold


@pytest.mark.parametrize("measure", MEASURES)
def test_isometry_fails_against_a_wrong_band_variance(monkeypatch, measure):
    monkeypatch.setattr(diagnostics, "band_variance", lambda *a: 1.2 * band_variance(*a))
    report = isometry_report(measure, SEEDS[0])
    assert not report.passed and report.statistic > 0.1


@pytest.mark.parametrize(
    "box, f, measure",
    [
        (UNIT, Indicator((HyperBox(((0.0, 0.3),)),)), 0.3),
        (SQUARE, Indicator((HyperBox(((0.0, 0.3), (0.0, 0.5))), HyperBox(((0.5, 1.0), (0.2, 0.9))))), 0.5),
    ],
)
def test_empirical_cf_target_of_an_indicator_is_its_measure_times_psi(box, f, measure):
    # Psi(0) = 0, so exp(int Psi(u 1_A)) = exp(|A| Psi(u)); a Gauss rule over
    # the jump at A's faces was off by up to 1.2e-2 on the unit interval.
    triplet = LevyTriplet(0.4, 0.5, AlphaStable(1.5))
    u_grid = [0.5, 1.0, 2.0]
    report = empirical_cf_test(NoiseLaw(box, triplet, eps=0.05), f, u_grid, 1000, 1)
    for row, u in zip(report.details["grid"], u_grid):
        exact = np.exp(measure * complex(characteristic_exponent(triplet, u)))
        assert abs(complex(*row["target"]) - exact) <= 1e-12


@pytest.mark.parametrize("box", [UNIT, SQUARE], ids=["d1", "d2"])
def test_empirical_cf_target_of_an_eigenfunction_does_not_depend_on_its_index(box):
    # int_D Psi(u e_k) is the same for every k: each axis's sine covers whole
    # half-periods and Psi is even.  A fixed 64-node rule read e_40 3.9e-2 off.
    law = NoiseLaw(box, LevyTriplet(0.0, 0.0, AlphaStable(1.5)), eps=0.05)
    u_grid = [0.5, 1.0, 2.0]
    targets = []
    for k in (1, 40):
        f = parse_function({"kind": "eigenfunction", "index": [k]}, box)
        report = empirical_cf_test(law, f, u_grid, 1000, 1)
        targets.append([complex(*row["target"]) for row in report.details["grid"]])
    assert max(abs(a - b) for a, b in zip(*targets)) <= 5e-3


def test_empirical_cf_rule_over_the_grid_cap_is_refused_before_it_is_built(monkeypatch):
    # At d = 4 the rule resolving e_1 has 64^4 nodes, above MAX_GRID_VALUES.
    box = HyperBox.unit(4)
    f = parse_function({"kind": "eigenfunction", "index": [1]}, box)
    monkeypatch.setattr(domain, "_leggauss", lambda n: pytest.fail("leggauss called"))
    with pytest.raises(ValueError, match=r"^a grid of 64 x 64 x 64 x 64 points exceeds the cap"):
        empirical_cf_test(NoiseLaw(box, LevyTriplet(0.0, 1.0, NullMeasure())), f, [1.0], 1000, 1)


def test_empirical_cf_target_of_a_constant_is_volume_times_psi_bit_for_bit():
    box = HyperBox(((0.0, 1.0), (0.0, 2.0)))
    triplet = LevyTriplet(0.4, 0.5, SymmetricTwoPoint(2.0, 0.5))
    report = empirical_cf_test(NoiseLaw(box, triplet, eps=0.05), Constant(2.5), [0.5, 1.0], 1000, 1)
    for row, u in zip(report.details["grid"], [0.5, 1.0]):
        target = np.exp(complex(characteristic_exponent(triplet, u * 2.5)) * 2.0)
        assert row["target"] == [target.real, target.imag]


def test_empirical_cf_walks_its_gauss_rule_in_chunks():
    # The rule resolving e_(20,20,20) has 88^3 nodes; evaluated whole, its
    # points, f and Psi took a traced peak of 72 MiB.
    box = HyperBox.unit(3)
    f = parse_function({"kind": "eigenfunction", "index": [20, 20, 20]}, box)
    law = NoiseLaw(box, LevyTriplet(0.0, 0.5, AlphaStable(1.5)), eps=0.05)
    tracemalloc.start()
    try:
        report = empirical_cf_test(law, f, [0.5, 1.0, 2.0], 1000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("gamma", [1.0, 0.5], ids=["in-regime", "outside-regime"])
def test_weak_rule_over_the_grid_cap_is_refused_before_the_solve(monkeypatch, gamma):
    # The rule resolving e_(200,1,1) has 448^3 nodes.  Outside the regime
    # (gamma <= d/4) the cap still speaks first.
    monkeypatch.setattr(diagnostics, "solve_mild", lambda *a, **k: pytest.fail("solved"))
    box = HyperBox.unit(3)
    realization = sample_noise(NoiseLaw(box, LevyTriplet(0.0, 1.0, AlphaStable(1.5)), eps=0.5), 7)
    with pytest.raises(ValueError, match=r"^a grid of 448 x 448 x 448 points exceeds the cap of 2097152 values$"):
        weak_identity_test(realization, Constant(1.0), gamma, single_mode(box, (200, 1, 1)))


def test_too_few_replicates_are_refused():
    with pytest.raises(ValueError, match="m below 1000"):
        cf_report(AlphaStable(1.5), 1, m=999)
    with pytest.raises(ValueError, match="m below 1000"):
        isometry_report(AlphaStable(1.5), 1, m=999)


def test_non_integrable_integrands_are_refused():
    # |x^-0.7|^1.5 and (x^-0.7)^2 both diverge at 0.
    with pytest.raises(ValueError, match="not noise-integrable"):
        cf_report(AlphaStable(1.5), 1, f=AxisPower(-0.7))
    with pytest.raises(ValueError, match="not square-integrable"):
        isometry_report(AlphaStable(1.5), 1, f=AxisPower(-0.7))


def test_integrand_that_overflows_at_the_nodes_is_refused_before_sampling(monkeypatch):
    # x^-400 is integrable against variance-gamma noise but is inf at 17 of
    # the 64 Gauss nodes of the unit interval.
    monkeypatch.setattr(diagnostics, "pairing_batch", lambda *a: pytest.fail("sampled"))
    with pytest.raises(ValueError, match=r"^integrand is not finite at 17 of the 64 Gauss nodes"):
        cf_report(VarianceGamma(1.0, 1.0), 1, f=AxisPower(-400.0))


def test_batch_over_the_atom_budget_is_refused_before_sampling(monkeypatch):
    # Were the bound gone, the first block would draw 1e9 atoms; fail there instead.
    monkeypatch.setattr(noise, "sample_jump_sizes", lambda *a, **k: pytest.fail("atoms drawn past the budget"))
    measure = AlphaStable(1.5)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    bound = r"above the bound of BATCH_ATOMS=1048576; raise eps$"
    with pytest.raises(ValueError, match=r"^eps=1e-06 gives 1e\+09 expected atoms a draw, " + bound):
        jump_sums(jump_law(UNIT, measure, 1e-6), Constant(1.0), 5000, rng)
    assert rng.bit_generator.state == state


def test_many_chunks_repeat_exactly_within_a_small_memory_bound(monkeypatch):
    # 20000 replicates of about 89 atoms: 1.8e6 atoms, 14 MB for their sizes
    # alone; drawn all at once, each check peaked at 72 MB under tracemalloc.
    monkeypatch.setattr(noise, "BLOCK_ATOMS", 4096)
    m = 20_000
    chunks = []

    def counted(*args, **kwargs):
        chunks.append(kwargs["size"])
        return sample_jump_sizes(*args, **kwargs)

    monkeypatch.setattr(noise, "sample_jump_sizes", counted)
    runs = []
    for _ in range(2):
        tracemalloc.start()
        try:
            reports = [cf_report(AlphaStable(1.5), 15, m=m), isometry_report(AlphaStable(1.5), 15, m=m)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        assert all(r.passed for r in reports)
        runs.append([r.to_dict() for r in reports])
    assert runs[0] == runs[1]
    # Two runs of two batches, each of about 436 blocks of at most 4096 atoms.
    assert len(chunks) >= 4 * 400 and max(chunks) <= 4096


DRIFT_LAW = NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, AlphaStable(1.5)))
DRIFT_POINTS = np.array([[0.3], [0.6]])
HALF = Indicator((HyperBox(((0.0, 0.5),)),))
SEED_TEXT = "seed must be an integer in [0, 2^64), got {}"
# 1449^2 values, just over the grid cap of 2^21.
BIG_AXES = [np.linspace(0.0, 1.0, 1449)] * 2
GRID_TEXT = "a grid of 1449 x 1449 points exceeds the cap of 2097152 values"
# No Gaussian part, and the two-point jumps of size 0.5 lie below eps = 1.
NOTHING_RANDOM = NoiseLaw(UNIT, LevyTriplet(0.0, 0.0, SymmetricTwoPoint(5.0, 0.5)), eps=1.0, policy="drop")
NOTHING_TEXT = "the law has nothing random: no Gaussian part and no jumps above eps=1.0"


@pytest.mark.parametrize(
    "check,message",
    [
        (lambda: continuity_probe(DRIFT_LAW, 1.5, [4, 4, 5], 2, 7), "levels must be distinct"),
        (lambda: spectral_bound_check(UNIT, [0, 100, 300], DRIFT_POINTS), "levels must be positive"),
        (lambda: spectral_bound_check(UNIT, [-5, 100], DRIFT_POINTS), "levels must be positive"),
        (lambda: spectral_bound_check(UNIT, [100, 100, 300], DRIFT_POINTS), "levels must be strictly increasing"),
        (lambda: sobolev_sweep(DRIFT_LAW, 1.0, [1.0], [1024, 1024, 2048], 2, 7), "each cutoff must be twice the one before"),
        (lambda: sobolev_sweep(DRIFT_LAW, 1.0, [1.0], [1024, 2048], 2, 7), "need at least 3 cutoffs"),
        (lambda: sobolev_sweep(DRIFT_LAW, 1.0, [1.0], [0, 0, 0], 2, 7), "cutoffs must be at least 1, got 0"),
        (lambda: sobolev_sweep(DRIFT_LAW, 1.0, [1.0, 1.0], [512, 1024, 2048], 2, 7), "orders must be distinct"),
        (lambda: _rng.stream(-1, _rng.ATOM_STREAM), SEED_TEXT.format(-1)),
        (lambda: _rng.stream(2**64 + 5, _rng.ATOM_STREAM), SEED_TEXT.format(2**64 + 5)),
        (lambda: sample_noise(DRIFT_LAW, -1), SEED_TEXT.format(-1)),
        (lambda: sample_noise(DRIFT_LAW, 2**64 + 5), SEED_TEXT.format(2**64 + 5)),
        (lambda: weak_identity_test(sample_noise(DRIFT_LAW, 7), HALF, 1.0, enumerate_eigen(UNIT, count=16)),
         "phi must be continuous on the box, not an indicator"),
        (lambda: eval_field_grid(SpectralFunction(single_mode(SQUARE, (1, 1)), [1.0]), BIG_AXES), GRID_TEXT),
        (lambda: green_gamma_grid(enumerate_eigen(UNIT, count=4), 1.0, BIG_AXES[0][:, None], BIG_AXES[0][:, None]),
         GRID_TEXT),
        (lambda: continuity_probe(NoiseLaw(SQUARE, DRIFT_LAW.triplet), 1.5, [4, 5, 11], 2, 7),
         "a grid of 2049 x 2049 points exceeds the cap of 2097152 values"),
        (lambda: sample_jump_sizes(AlphaStable(1.5), 1.0, _rng.stream(7, _rng.ATOM_STREAM), 10, 0.5),
         "need 0 <= lo < hi, got lo=1.0, hi=0.5"),
        (lambda: isometry_test(DRIFT_LAW, Constant(1.0), 1000, 7, band_high=0.005),
         "need 0 <= lo < hi, got lo=0.01, hi=0.005"),
        (lambda: isometry_test(DRIFT_LAW, Constant(1.0), 999, 7), "m below 1000 has no statistical power, got 999"),
        (lambda: integral(AxisPower(-0.3, 0, 0.5), UNIT),
         "axis-power offset must sit at or below the box on its axis, got 0.5 above 0.0"),
        (lambda: isometry_test(DRIFT_LAW, AxisPower(-2.0, 0, 0.5), 1000, 7),
         "axis-power offset must sit at or below the box on its axis, got 0.5 above 0.0"),
        (lambda: enumerate_eigen(UNIT, count=0), "count must be >= 1, got 0"),
        (lambda: sobolev_sweep(NOTHING_RANDOM, 1.0, [1.0], [512, 1024, 2048], 2, 7), NOTHING_TEXT),
        (lambda: continuity_probe(NOTHING_RANDOM, 0.4, [3, 4, 5], 2, 7), NOTHING_TEXT),
        (lambda: continuity_probe(DRIFT_LAW, 1.5, [0, 1, 2], 2, 7), "levels must be >= 1, got 0"),
        (lambda: continuity_probe(DRIFT_LAW, 1.5, [-1, 1, 2], 2, 7), "levels must be >= 1, got -1"),
        (lambda: continuity_probe(DRIFT_LAW, 1.5, [4, 5, 6], 0, 7), "need at least one replicate, got 0"),
        (lambda: sobolev_sweep(DRIFT_LAW, 1.0, [1.0], [512, 1024, 2048], 0, 7), "need at least one replicate, got 0"),
    ],
    ids=[
        "levels-4-4-5", "t-from-0", "t-from-negative", "t-repeated", "K-repeated", "K-two-cutoffs", "K-from-0",
        "r-repeated",
        "stream-seed-negative", "stream-seed-above-64-bits", "noise-seed-negative", "noise-seed-above-64-bits",
        "weak-indicator", "field-grid", "green-grid", "continuity-grid", "band-reversed", "isometry-band",
        "isometry-m", "axis-power-offset", "isometry-axis-power-offset", "count-0",
        "sobolev-nothing-random", "continuity-nothing-random", "levels-0-1-2", "levels-from-negative",
        "continuity-replicates-0", "sobolev-replicates-0",
    ],
)
def test_checks_refuse_what_the_config_refuses(monkeypatch, check, message):
    # Refused before any mode is listed or any field solved or tabulated: the rule
    # is checked first, not met by chance later.
    monkeypatch.setattr(diagnostics, "enumerate_eigen", lambda *a, **k: pytest.fail("enumerated"))
    monkeypatch.setattr(diagnostics, "solve_mild", lambda *a, **k: pytest.fail("solved"))
    monkeypatch.setattr(solver, "grid_rmatvec", lambda *a, **k: pytest.fail("field evaluated"))
    monkeypatch.setattr(solver, "eigen_matrix", lambda *a, **k: pytest.fail("kernel tabulated"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check()


def test_a_surrogate_sweep_runs_on_a_law_with_nothing_random():
    # The surrogate draws no noise, so the law's random part does not matter.
    reports = sobolev_sweep(NOTHING_RANDOM, 1.0, [1.0, 1.6], [512, 1024, 2048], 1, 7, surrogate=True)
    assert [r.details["classification"] for r in reports] == ["convergent", "divergent"]


def test_a_surrogate_sweep_reads_the_white_noise_ceiling_on_a_law_without_a_random_part():
    # The law's own ceiling is 2 gamma + 1/2 = 2.5; the surrogate's coefficients are white noise's.
    law = NoiseLaw(UNIT, LevyTriplet(1.0, 0.0, NullMeasure()), eps=1.0)
    reports = sobolev_sweep(law, 1.0, [1.0, 1.6], [512, 1024, 2048], 1, 7, surrogate=True)
    assert [r.details["r_threshold"] for r in reports] == [1.5, 1.5]
    assert [r.details["predicted"] for r in reports] == ["convergent", "divergent"]
    assert all(r.passed for r in reports)
