import tracemalloc

import numpy as np
import pytest

from levy_elliptic import diagnostics
from levy_elliptic.diagnostics import (
    _jump_sums,
    continuity_probe,
    empirical_cf_test,
    isometry_test,
    spectral_bound_check,
    weak_identity_test,
)
from levy_elliptic.domain import HyperBox, enumerate_eigen
from levy_elliptic.functions import AxisPower, Constant, Eigenfunction
from levy_elliptic.measures import (
    AlphaStable,
    LevyTriplet,
    SymmetricTwoPoint,
    VarianceGamma,
    band_variance,
    characteristic_exponent,
    sample_jump_sizes,
)
from levy_elliptic.noise import sample_noise

SQUARE = HyperBox.unit(2)
UNIT = HyperBox.unit(1)
MEASURES = [AlphaStable(1.5), VarianceGamma(1.0, 1.0), SymmetricTwoPoint(2.0, 0.5)]
# Seeds fixed before the first run of these tests; never re-picked.
SEEDS = [11, 12, 13]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weak_identity_holds_on_a_small_d2_realization(seed):
    system = enumerate_eigen(SQUARE, count=64)
    triplet = LevyTriplet(0.0, 0.3, AlphaStable(1.5))
    realization = sample_noise(SQUARE, triplet, eps=0.05, master_seed=seed)
    assert realization.atoms.count > 0
    report = weak_identity_test(realization, Eigenfunction(SQUARE, (1, 2)), 1.0, system)
    assert report.passed, report.to_dict()
    assert report.seed == seed


@pytest.mark.parametrize("d", [1, 2])
def test_continuity_probe_does_not_depend_on_workers(d):
    reports = [
        continuity_probe(d, 1.5, AlphaStable(1.5), [3, 4, 5], 8, 7, eps=0.05, workers=w)
        for w in (1, 2)
    ]
    assert reports[0].to_dict() == reports[1].to_dict()
    assert reports[0].passed and not reports[0].inconclusive


@pytest.mark.parametrize("d", [1, 2])
def test_spectral_bound_passes_on_interior_points(d):
    box = HyperBox.unit(d)
    pts = 0.25 + 0.5 * np.random.default_rng(1).random((4, d))
    report = spectral_bound_check(box, [100.0, 300.0, 1000.0, 3000.0], pts)
    assert report.passed, report.details["slopes"]
    assert report.replicates == 4


@pytest.mark.parametrize("budget", [1 << 20, 4])
def test_jump_sums_give_each_replicate_its_own_atoms(monkeypatch, budget):
    # Poisson(3) counts: at a budget of 4 atoms, chunks hold one to a few
    # replicates, and a replicate above the budget makes a chunk of its own.
    monkeypatch.setattr(diagnostics, "BATCH_ATOMS", budget)
    box, f, measure, m = HyperBox(((0.0, 2.0),)), AxisPower(1.0), SymmetricTwoPoint(1.5, 3.0), 50
    got = _jump_sums(box, measure, f, m, np.random.default_rng(9), 0.5)
    rng = np.random.default_rng(9)
    counts = rng.poisson(3.0, m)
    expected, i = np.zeros(m), 0
    while i < m:
        j = i + 1
        while j < m and counts[i : j + 1].sum() <= budget:
            j += 1
        n = counts[i:j].sum()
        if n:
            sizes = sample_jump_sizes(measure, 0.5, rng, size=n)
            y = 2.0 * rng.random(n)
            atom = 0
            for rep in range(i, j):
                for _ in range(counts[rep]):
                    expected[rep] += y[atom] * sizes[atom]
                    atom += 1
        i = j
    assert got == pytest.approx(expected, rel=1e-14)


def cf_report(measure, seed, f=AxisPower(1.0), m=20_000, **kw):
    triplet = LevyTriplet(0.0, 0.0, measure)
    system = enumerate_eigen(UNIT, count=256)
    return empirical_cf_test(triplet, f, [0.5, 1.0, 2.0], m, seed, box=UNIT, system=system, eps=0.05, **kw)


def isometry_report(measure, seed, f=AxisPower(1.0), m=20_000):
    return isometry_test(measure, 0.05, f, m, seed, box=UNIT)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("measure", MEASURES)
def test_empirical_cf_passes_for_each_measure(measure, seed):
    report = cf_report(measure, seed)
    assert report.passed, report.to_dict()
    assert report.threshold == 4.0 / np.sqrt(20_000)


VG_SMALL_U = pytest.mark.xfail(
    strict=True, reason="jump_exponent_quadrature(VarianceGamma(1, 1), 1e-4) reads -0.44, not -1e-8"
)


@pytest.mark.parametrize(
    "measure,f",
    [(m, Constant(1.0)) for m in MEASURES]
    + [(AlphaStable(1.5), AxisPower(1.0)), (SymmetricTwoPoint(2.0, 0.5), AxisPower(1.0))]
    + [pytest.param(VarianceGamma(1.0, 1.0), AxisPower(1.0), marks=VG_SMALL_U)],
)
def test_empirical_cf_quadrature_route_agrees_with_the_closed_form(measure, f):
    closed, quad = (cf_report(measure, 14, f=f, m=2000, psi_quadrature=q) for q in (False, True))
    assert quad.passed
    for a, b in zip(closed.details["grid"], quad.details["grid"]):
        assert b["target"] == pytest.approx(a["target"], abs=1e-7)


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


def test_batch_over_the_atom_budget_is_refused_before_sampling():
    measure = AlphaStable(1.5)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"eps=1e-06 .* M=5000 .*BATCH_ATOMS=1048576"):
        _jump_sums(UNIT, measure, Constant(1.0), 5000, rng, 1e-6)
    assert rng.bit_generator.state == state


def test_many_chunks_repeat_exactly_within_a_small_memory_bound(monkeypatch):
    # 20000 replicates of about 89 atoms: 1.8e6 atoms, 14 MB for their sizes
    # alone; drawn all at once, each check peaked at 72 MB under tracemalloc.
    monkeypatch.setattr(diagnostics, "BATCH_ATOMS", 4096)
    m = 20_000
    chunks = []

    def counted(*args, **kwargs):
        chunks.append(kwargs["size"])
        return sample_jump_sizes(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "sample_jump_sizes", counted)
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
    # Two runs of two batches, each of about 436 chunks of at most 4096 atoms.
    assert len(chunks) >= 4 * 400 and max(chunks) <= 4096
