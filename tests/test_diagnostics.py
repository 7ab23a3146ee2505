import numpy as np
import pytest

from levy_elliptic.diagnostics import _atom_sums, continuity_probe, spectral_bound_check, weak_identity_test
from levy_elliptic.domain import HyperBox, enumerate_eigen
from levy_elliptic.functions import AxisPower, Eigenfunction
from levy_elliptic.measures import AlphaStable, LevyTriplet
from levy_elliptic.noise import sample_noise

SQUARE = HyperBox.unit(2)


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


def test_atom_sums_give_each_replicate_its_own_atoms():
    box = HyperBox(((0.0, 2.0),))
    f = AxisPower(1.0)
    sizes = np.array([1.0, -2.0, 0.5, 3.0])
    counts = np.array([2, 0, 2])
    got = _atom_sums(box, f, sizes, counts, np.random.default_rng(9))
    y = 2.0 * np.random.default_rng(9).random(4)
    expected = [y[0] * 1.0 + y[1] * -2.0, 0.0, y[2] * 0.5 + y[3] * 3.0]
    assert got == pytest.approx(expected, rel=1e-15)
