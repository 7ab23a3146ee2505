"""The separable sine kernel against a dense reference, bit for bit.

Sizes stay below OpenBLAS's threading threshold (about 9200 cells per
product), where a product's rounding does not depend on how the library
splits it across threads.
"""

import math
import tracemalloc

import numpy as np
import pytest

from levy_elliptic import domain
from levy_elliptic.domain import (
    HyperBox,
    eigen_matrix,
    eigen_matvec,
    eigen_rmatvec,
    enumerate_eigen,
    gauss_rule,
    grid_matvec,
    grid_rmatvec,
    resolving_gauss_rule,
    tensor_rule,
)
from levy_elliptic.measures import AlphaStable, LevyTriplet
from levy_elliptic.noise import JumpAtomSet, NoiseRealization, pair_eigen
from levy_elliptic.functions import AxisPower, SpectralFunction, fourier_vector
from levy_elliptic.solver import eval_field_grid


def dense_reference(system, points):
    """E[j, i] = e_{k_j}(x_i), built as one dense product of sines."""
    box = system.box
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.ones((len(system), len(pts)))
    for j in range(box.dim):
        phase = np.pi * np.outer(system.indices[:, j], (pts[:, j] - box.lower[j]) / box.lengths[j])
        out *= math.sqrt(2.0 / box.lengths[j]) * np.sin(phase)
    out[:, np.any((pts == box.lower) | (pts == box.upper), axis=1)] = 0.0
    return out


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def case(d, count, n, seed=0):
    box = HyperBox(tuple((-0.5 * j, 1.0 + 0.75 * j) for j in range(d)))
    system = enumerate_eigen(box, count=count)
    rng = np.random.default_rng(seed)
    pts = box.lower + rng.random((n, d)) * box.lengths
    pts[0, 0] = box.lower[0]  # boundary points evaluate to exactly zero
    pts[-1, d - 1] = box.upper[d - 1]
    return system, pts, rng


# (d, K, points): K and the point counts are not multiples of 64, so the
# last block is a short remainder, and 150 leaves one under 64 to absorb.
SHAPES = [(1, 150, 60), (1, 60, 150), (2, 150, 45), (2, 45, 150), (3, 129, 70), (3, 70, 129)]


@pytest.mark.parametrize("d,count,n", SHAPES)
@pytest.mark.parametrize("cells", [1 << 21, 64 * 3])
def test_entry_points_match_dense_reference(monkeypatch, d, count, n, cells):
    monkeypatch.setattr(domain, "CHUNK_CELLS", cells)
    system, pts, rng = case(d, count, n)
    ref = dense_reference(system, pts)
    w, c = rng.standard_normal(n), rng.standard_normal(count)
    assert same_bits(eigen_matrix(system, pts), ref)
    assert same_bits(eigen_matvec(system, pts, w), ref @ w)
    assert same_bits(eigen_rmatvec(system, c, pts), c @ ref)
    assert np.all(ref[:, [0, -1]] == 0.0)


def test_blocks_are_whole_multiples_of_the_quantum():
    spans = list(domain._spans(1000, domain.CHUNK_CELLS // 100, 64))
    assert spans[0] == (0, 64) and spans[-1][1] == 1000
    assert all(start % 64 == 0 for start, _ in spans)
    # A remainder under the quantum joins the last block instead of standing alone.
    assert list(domain._spans(130, domain.CHUNK_CELLS // 64, 64)) == [(0, 64), (64, 130)]
    assert list(domain._spans(21, domain.CHUNK_CELLS, 8)) == [(0, 8), (8, 21)]
    assert list(domain._spans(0, 5, 64)) == [(0, 0)]


def test_grid_contraction_matches_dense_reference():
    box = HyperBox.unit(2)
    system = enumerate_eigen(box, count=40)
    coeffs = np.random.default_rng(3).standard_normal(40)
    axes = [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)]
    grid = eval_field_grid(SpectralFunction(system, coeffs), axes)
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    flat = coeffs @ dense_reference(system, pts)
    assert np.max(np.abs(grid.ravel() - flat)) < 1e-12
    assert np.all(grid[0, :] == 0.0) and np.all(grid[:, -1] == 0.0)


def test_pair_eigen_memory_is_bounded_by_the_block():
    # d=2, K=65536, 1000 atoms: the dense K x atoms matrix alone is 500 MiB.
    box = HyperBox.unit(2)
    system = enumerate_eigen(box, count=65536)
    rng = np.random.default_rng(11)
    atoms = JumpAtomSet(box, 0.01, rng.random((1000, 2)), rng.standard_normal(1000))
    realization = NoiseRealization(
        box, LevyTriplet(0.0, 0.0, AlphaStable(1.5)), 0.01, "drop", 0, atoms
    )
    tracemalloc.start()
    try:
        coeffs = pair_eigen(realization, system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    head = dense_reference(system.prefix(64), atoms.locations) @ atoms.sizes
    np.testing.assert_allclose(coeffs[:64], head, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d,count,n", SHAPES)
def test_cache_sized_blocks_of_whole_tables_match_dense_reference(monkeypatch, d, count, n):
    monkeypatch.setattr(domain, "BLOCK_CELLS", 64 * 3)
    system, pts, rng = case(d, count, n)
    ref = dense_reference(system, pts)
    w, c = rng.standard_normal(n), rng.standard_normal(count)
    assert same_bits(eigen_matvec(system, pts, w), ref @ w)
    assert same_bits(eigen_rmatvec(system, c, pts), c @ ref)


# (d, K, grid points per axis); the grids include both ends of every side.
GRIDS = [(1, 300, (41,)), (2, 500, (23, 17)), (3, 400, (9, 13, 11))]


@pytest.mark.parametrize("d,count,sizes", GRIDS)
def test_grid_evaluation_matches_the_scattered_kernel(d, count, sizes):
    system, _, rng = case(d, count, 1)
    box = system.box
    axes = [np.linspace(a, b, m) for (a, b), m in zip(box.intervals, sizes)]
    c = rng.standard_normal(count)
    grid = grid_rmatvec(system, c, axes)
    flat = eigen_rmatvec(system, c, tensor_rule([(x, np.ones(len(x))) for x in axes])[0])
    assert grid.shape == sizes
    assert np.max(np.abs(grid.ravel() - flat)) <= 1e-13 * np.max(np.abs(flat))
    assert np.array_equal(grid_rmatvec(system, c, [list(x) for x in axes]), grid)


@pytest.mark.parametrize("d,count,sizes", GRIDS)
def test_grid_projection_matches_the_scattered_kernel_with_gauss_weights(d, count, sizes):
    system, _, rng = case(d, count, 1)
    rule = [gauss_rule(HyperBox((side,)), m)[0] for side, m in zip(system.box.intervals, sizes)]
    pts, w = tensor_rule(rule)
    values = w * rng.standard_normal(len(w))
    coeffs = grid_matvec(system, [x for x, _ in rule], values.reshape(sizes))
    flat = eigen_matvec(system, pts, values)
    assert np.max(np.abs(coeffs - flat)) <= 1e-13 * np.max(np.abs(flat))


def test_grid_kernels_refuse_coordinates_outside_the_box():
    system = enumerate_eigen(HyperBox.unit(2), count=10)
    with pytest.raises(ValueError, match="one coordinate array per axis"):
        grid_rmatvec(system, np.ones(10), [np.linspace(0.0, 1.0, 5)])
    with pytest.raises(ValueError, match="outside the closed box"):
        grid_matvec(system, [np.linspace(0.0, 1.0, 5), np.array([0.5, 1.5])], np.ones((5, 2)))


def test_d3_quadrature_projection_memory_is_bounded_by_the_grid():
    # K=512 at d=3 resolves on 68^3 = 314432 Gauss nodes: their points and
    # values take about 10 MiB, one 64-mode block of the dense kernel 153 MiB.
    system = enumerate_eigen(HyperBox.unit(3), count=512)
    f = AxisPower(-0.3, 1)
    tracemalloc.start()
    try:
        coeffs = fourier_vector(system, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    pts, w = tensor_rule(resolving_gauss_rule(system))
    head = dense_reference(system.prefix(8), pts) @ (w * f.evaluate(pts))
    np.testing.assert_allclose(coeffs[:8], head, rtol=1e-12, atol=1e-14)
