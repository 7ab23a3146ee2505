"""The separable sine kernel against dense references.

The kernels build their sine tables by angle addition and sum in their own
order, so they are held to the accuracy of the plain dense product: against
an np.longdouble dense reference, within 4 times the error of the dense
np.sin product in float64.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levy_elliptic import domain
from levy_elliptic.domain import (
    EigenSystem,
    HyperBox,
    eigen_matrix,
    eigen_matvec_blocks,
    eigen_rmatvec,
    enumerate_eigen,
    gauss_rule,
    grid_matvec,
    grid_rmatvec,
    listing_blocks,
    positions,
    resolving_gauss_rule,
    tensor_points,
)
from levy_elliptic.measures import AlphaStable, LevyTriplet
from levy_elliptic.noise import JumpAtomSet, NoiseLaw, NoiseRealization, pair_eigen
from levy_elliptic.functions import AxisPower, SpectralFunction, fourier_vector
from levy_elliptic.solver import eval_field_grid

PI_LD = 4 * np.arctan(np.longdouble(1))


def dense_reference(system, points, dtype=float):
    """E[j, i] = e_{k_j}(x_i), built as one dense product of sines in ``dtype``
    from the float64 fractions (x - a) / L the kernels use."""
    box = system.box
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pi = PI_LD if dtype is np.longdouble else np.pi
    out = np.ones((len(system), len(pts)), dtype=dtype)
    for j in range(box.dim):
        unit = ((pts[:, j] - box.lower[j]) / box.lengths[j]).astype(dtype)
        phase = pi * np.outer(system.indices[:, j].astype(dtype), unit)
        out *= np.sqrt(dtype(2.0) / dtype(box.lengths[j])) * np.sin(phase)
    out[:, np.any((pts == box.lower) | (pts == box.upper), axis=1)] = 0.0
    return out


def entry_error(exact, dense) -> float:
    """The dense float64 matrix's own error: its largest entry error, at
    least an ulp of its largest value.  Times sum |w|, it is the most those
    entries can carry into a product with weights w."""
    return max(
        float(np.max(np.abs(dense - exact), initial=0.0)),
        np.finfo(float).eps * float(np.max(np.abs(exact), initial=1.0)),
    )


def gap(got, want) -> float:
    return float(np.max(np.abs(got - want), initial=0.0))


def eigen_matvec(system, points, weights) -> np.ndarray:
    """E @ w in one array: the blocks of ``domain.eigen_matvec_blocks`` end to end."""
    return np.concatenate(list(eigen_matvec_blocks(system, points, weights)))


def case(d, count, n, seed=0):
    box = HyperBox(tuple((-0.5 * j, 1.0 + 0.75 * j) for j in range(d)))
    system = enumerate_eigen(box, count=count)
    rng = np.random.default_rng(seed)
    pts = box.lower + rng.random((n, d)) * box.lengths
    pts[0, 0] = box.lower[0]  # boundary points evaluate to exactly zero
    pts[-1, d - 1] = box.upper[d - 1]
    return system, pts, rng


@st.composite
def kernel_cases(draw):
    d = draw(st.integers(1, 3))
    box = HyperBox(
        tuple(
            (a, a + length)
            for a, length in zip(
                draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)),
                draw(st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d)),
            )
        )
    )
    system = enumerate_eigen(box, count=draw(st.integers(1, 400)))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = box.lower + rng.random((n, d)) * box.lengths
    # Some points on a face of the box, at either end of some axis.
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        j = draw(st.integers(0, d - 1))
        pts[i, j] = draw(st.sampled_from([box.lower[j], box.upper[j]]))
    # A tensor grid of a few coordinates an axis, some on an end of their side.
    sizes = draw(st.lists(st.integers(1, 8), min_size=d, max_size=d))
    axes = [a + rng.random(m) * (b - a) for (a, b), m in zip(box.intervals, sizes)]
    for x, (a, b) in zip(axes, box.intervals):
        x[0] = draw(st.sampled_from([x[0], a, b]))
    cells = draw(st.sampled_from([1, 50, 700, domain.CHUNK_CELLS]))
    blocks = draw(st.sampled_from([1, 30, domain.BLOCK_MODES]))
    return system, pts, axes, rng, cells, blocks


@settings(max_examples=80, deadline=None)
@given(kernel_cases())
def test_kernels_are_as_accurate_as_the_dense_product(args):
    system, pts, axes, rng, cells, blocks = args
    exact = dense_reference(system, pts, np.longdouble)
    dense = dense_reference(system, pts)
    w, c = rng.standard_normal(len(pts)), rng.standard_normal(len(system))
    nodes = tensor_points(axes)
    exact_grid = dense_reference(system, nodes, np.longdouble)
    v = rng.standard_normal(len(nodes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domain, "CHUNK_CELLS", cells)
        mp.setattr(domain, "BLOCK_MODES", blocks)
        matrix = eigen_matrix(system, pts)
        matvec = eigen_matvec(system, pts, w)
        rmatvec = eigen_rmatvec(system, c, pts)
        on_face = np.any((pts == system.box.lower) | (pts == system.box.upper), axis=1)
        # A boundary point carries weight 0, whatever its weight was.
        moved = np.where(on_face, w + 1.0, w)
        assert np.array_equal(eigen_matvec(system, pts, moved), matvec)
        grid_values = grid_rmatvec(system, c, axes)
        grid_coeffs = grid_matvec(system, axes, v.reshape(grid_values.shape))
        on_grid_face = np.any((nodes == system.box.lower) | (nodes == system.box.upper), axis=1)
        moved = np.where(on_grid_face, v + 1.0, v).reshape(grid_values.shape)
        assert np.array_equal(grid_matvec(system, axes, moved), grid_coeffs)
    err = entry_error(exact, dense)
    assert gap(matrix, exact) <= 4 * err
    assert gap(matvec, exact @ w) <= 4 * err * np.sum(np.abs(w))
    assert gap(rmatvec, c @ exact) <= 4 * err * np.sum(np.abs(c))
    grid_err = entry_error(exact_grid, dense_reference(system, nodes))
    assert gap(grid_values.ravel(), c @ exact_grid) <= 4 * grid_err * np.sum(np.abs(c))
    assert gap(grid_coeffs, exact_grid @ v) <= 4 * grid_err * np.sum(np.abs(v))
    assert np.all(matrix[:, on_face] == 0.0) and np.all(rmatvec[on_face] == 0.0)
    assert np.all(grid_values.ravel()[on_grid_face] == 0.0)


@given(st.integers(1, 300), st.integers(1, 2000), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_anchor_rows_of_the_sine_tables_are_np_sin(lo, width, unit):
    u = np.array(unit)
    table = domain._sine_table(lo, lo + width - 1, u, 1.7)
    anchors = np.arange(lo, lo + width, domain._block_length(width))
    direct = math.sqrt(2.0 / 1.7) * np.sin(np.pi * np.outer(anchors, u))
    assert table.shape == (width, len(u))
    assert np.array_equal(table[anchors - lo], direct)


def test_grid_contraction_matches_dense_reference():
    box = HyperBox.unit(2)
    system = enumerate_eigen(box, count=40)
    coeffs = np.random.default_rng(3).standard_normal(40)
    axes = [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)]
    grid = eval_field_grid(SpectralFunction(system, coeffs), axes)
    flat = coeffs @ dense_reference(system, tensor_points(axes))
    assert np.max(np.abs(grid.ravel() - flat)) < 1e-12
    assert np.all(grid[0, :] == 0.0) and np.all(grid[:, -1] == 0.0)


def test_the_kernel_layout_is_built_once_per_system(monkeypatch):
    built = []
    of = domain._Kernel.of.__func__
    monkeypatch.setattr(domain._Kernel, "of", classmethod(lambda cls, system: built.append(system) or of(cls, system)))
    system, pts, rng = case(2, 300, 20)
    axes = [np.linspace(a, b, 5) for a, b in system.box.intervals]
    eigen_matvec(system, pts, rng.standard_normal(20))
    eigen_rmatvec(system, rng.standard_normal(300), pts)
    eigen_matrix(system, pts)
    positions(system, system.indices[::-1])
    grid_rmatvec(system, rng.standard_normal(300), axes)
    grid_matvec(system, axes, rng.standard_normal((5, 5)))
    assert built == [system]


def test_only_a_sorted_listing_at_d1_is_in_grid_order():
    system = enumerate_eigen(HyperBox.unit(1), count=500)
    assert system._kernel.in_grid_order and system.prefix(37)._kernel.in_grid_order
    assert not enumerate_eigen(HyperBox.unit(2), count=500)._kernel.in_grid_order
    reversed_listing = EigenSystem(system.box, system.indices[::-1], system.lams[::-1])
    assert not reversed_listing._kernel.in_grid_order
    gapped = EigenSystem(system.box, system.indices[::2], system.lams[::2])
    assert not gapped._kernel.in_grid_order


# (d, modes, points): at d = 1, anchor rows a block where the points fit one
# chunk and one dense grid where they do not; at d = 2, one dense grid.
BLOCK_CASES = [(1, 5000, 3), (1, 5000, 400), (1, 1, 2), (2, 3000, 5), (2, 3000, 400)]


@pytest.mark.parametrize("cells", [50, domain.CHUNK_CELLS])
@pytest.mark.parametrize("d,count,n", BLOCK_CASES)
def test_matvec_blocks_cut_the_listing_in_whole_anchor_rows(monkeypatch, cells, d, count, n):
    monkeypatch.setattr(domain, "BLOCK_MODES", 100)
    monkeypatch.setattr(domain, "CHUNK_CELLS", cells)
    system, pts, rng = case(d, count, n)
    w = rng.standard_normal(n)
    blocks = listing_blocks(system)
    assert blocks[0].start == 0 and blocks[-1].stop == count
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all((b.stop - b.start) % system._kernel.step == 0 for b in blocks[:-1])
    values = list(eigen_matvec_blocks(system, pts, w))
    assert [len(v) for v in values] == [b.stop - b.start for b in blocks]
    exact = dense_reference(system, pts, np.longdouble)
    err = entry_error(exact, dense_reference(system, pts))
    assert gap(np.concatenate(values), exact @ w) <= 4 * err * np.sum(np.abs(w))
    no_points = eigen_matvec(system, pts[:0], w[:0])
    assert not np.any(no_points) and not np.any(np.signbit(no_points))
    # The same modes listed backwards: gathered from the dense grid, block by block.
    order = np.arange(count)[::-1]
    backwards = EigenSystem(system.box, system.indices[order], system.lams[order])
    assert gap(eigen_matvec(backwards, pts, w), exact[order] @ w) <= 4 * err * np.sum(np.abs(w))


# d=2, K=65536, 1000 atoms: the dense K x atoms matrix alone is 500 MiB.
# d=1, K=256, 2^18 atoms: the same matrix takes 512 MiB, and whole sine
# tables of 64 modes at every atom took about 400 MB.
@pytest.mark.parametrize("d,count,n", [(2, 65536, 1000), (1, 256, 1 << 18)])
def test_pair_eigen_memory_is_bounded_by_the_block(d, count, n):
    box = HyperBox.unit(d)
    system = enumerate_eigen(box, count=count)
    rng = np.random.default_rng(11)
    atoms = JumpAtomSet(rng.random((n, d)), rng.standard_normal(n))
    realization = NoiseRealization(
        NoiseLaw(box, LevyTriplet(0.0, 0.0, AlphaStable(1.5)), 0.01, "drop"), 0, atoms
    )
    tracemalloc.start()
    try:
        coeffs = pair_eigen(realization, system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    head = dense_reference(system.prefix(64), atoms.locations) @ atoms.sizes
    np.testing.assert_allclose(coeffs[:64], head, rtol=0.0, atol=1e-12 * math.sqrt(n / 1000))


# (d, K, grid points per axis); the grids include both ends of every side.
GRIDS = [(1, 300, (41,)), (2, 500, (23, 17)), (3, 400, (9, 13, 11))]


@pytest.mark.parametrize("d,count,sizes", GRIDS)
def test_grid_evaluation_matches_the_scattered_kernel(d, count, sizes):
    system, _, rng = case(d, count, 1)
    box = system.box
    axes = [np.linspace(a, b, m) for (a, b), m in zip(box.intervals, sizes)]
    c = rng.standard_normal(count)
    grid = grid_rmatvec(system, c, axes)
    flat = eigen_rmatvec(system, c, tensor_points(axes))
    assert grid.shape == sizes
    assert np.max(np.abs(grid.ravel() - flat)) <= 1e-13 * np.max(np.abs(flat))
    assert np.array_equal(grid_rmatvec(system, c, [list(x) for x in axes]), grid)


@pytest.mark.parametrize("d,count,sizes", GRIDS)
def test_grid_projection_matches_the_scattered_kernel_with_gauss_weights(d, count, sizes):
    system, _, rng = case(d, count, 1)
    rules = [gauss_rule(HyperBox((side,)), m) for side, m in zip(system.box.intervals, sizes)]
    axes = [x for (x,), _ in rules]
    w = np.ones(1)
    for _, side_weights in rules:
        w = np.outer(w, side_weights).ravel()
    values = w * rng.standard_normal(len(w))
    coeffs = grid_matvec(system, axes, values.reshape(sizes))
    flat = eigen_matvec(system, tensor_points(axes), values)
    assert np.max(np.abs(coeffs - flat)) <= 1e-13 * np.max(np.abs(flat))


@pytest.mark.parametrize("cells", [1, 50, 700, domain.CHUNK_CELLS])
def test_grid_kernels_are_the_scattered_kernels_bit_for_bit_at_d1(monkeypatch, cells):
    system, pts, rng = case(1, 300, 200)
    x = np.sort(pts[:, 0])  # both ends of the side included
    c, w = rng.standard_normal(300), rng.standard_normal(200)
    monkeypatch.setattr(domain, "CHUNK_CELLS", cells)
    assert np.array_equal(grid_rmatvec(system, c, [x]), eigen_rmatvec(system, c, x[:, None]))
    assert np.array_equal(grid_matvec(system, [x], w), eigen_matvec(system, x[:, None], w))


def test_d1_grid_kernels_memory_is_bounded_by_the_chunk():
    # K=16384 on 16385 points: one dense sine table of the modes takes 2 GiB.
    system = enumerate_eigen(HyperBox.unit(1), count=16384)
    x = np.linspace(0.0, 1.0, 16385)
    c = np.random.default_rng(5).standard_normal(16384)
    tracemalloc.start()
    try:
        values = grid_rmatvec(system, c, [x])
        coeffs = grid_matvec(system, [x], values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    exact = dense_reference(system, x[::1024, None], np.longdouble)
    err = entry_error(exact, dense_reference(system, x[::1024, None]))
    assert gap(values[::1024], c @ exact) <= 4 * err * np.sum(np.abs(c))
    head = dense_reference(system.prefix(4), x[:, None], np.longdouble)
    err = entry_error(head, dense_reference(system.prefix(4), x[:, None]))
    assert gap(coeffs[:4], head @ values) <= 4 * err * np.sum(np.abs(values))


def test_grid_kernels_refuse_coordinates_outside_the_box():
    system = enumerate_eigen(HyperBox.unit(2), count=10)
    with pytest.raises(ValueError, match="one coordinate array per axis"):
        grid_rmatvec(system, np.ones(10), [np.linspace(0.0, 1.0, 5)])
    with pytest.raises(ValueError, match="outside the closed box"):
        grid_matvec(system, [np.linspace(0.0, 1.0, 5), np.array([0.5, 1.5])], np.ones((5, 2)))


def two_pass_unit_points(box, points):
    """The point check as it was: a closed-box test, then the fractions and
    the boundary mask from a second pass over the box's arrays."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = bool(np.all((pts >= box.lower) & (pts <= box.upper)))
    return inside, (pts - box.lower) / box.lengths, np.any((pts == box.lower) | (pts == box.upper), axis=1)


CHECK_BOXES = [
    HyperBox(((0.0, 1.0),)),
    HyperBox(((0.0, 2.0), (-1.0, 0.5))),
    HyperBox(((-3.0, 1e-3), (0.1, 0.7), (1e5, 1e5 + 1.0))),
]


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("box", CHECK_BOXES)
def test_point_check_is_the_two_pass_check_bit_for_bit(box):
    lower, upper = box.lower, box.upper
    inner = lower + np.random.default_rng(7).random((40, box.dim)) * box.lengths
    rows = [inner]
    for j in range(box.dim):
        for face in (lower[j], upper[j], np.nextafter(lower[j], np.inf), np.nextafter(upper[j], -np.inf)):
            row = inner[:1].copy()
            row[0, j] = face
            rows.append(row)
    pts = np.vstack(rows)
    inside, unit, on_boundary = two_pass_unit_points(box, pts)
    assert inside
    new_unit, new_boundary = domain._unit_points(box.intervals, pts)
    assert_same_bits(new_unit, unit)
    assert np.array_equal(new_boundary, on_boundary)
    assert on_boundary.sum() == 2 * box.dim


@pytest.mark.parametrize("box", CHECK_BOXES)
@pytest.mark.parametrize("bad", ["below", "above", "nan", "inf", "-inf"])
def test_point_check_refuses_what_the_two_pass_check_refuses(box, bad):
    for j in range(box.dim):
        pts = 0.5 * (box.lower + box.upper)[None, :].repeat(3, axis=0)
        pts[1, j] = {
            "below": np.nextafter(box.lower[j], -np.inf),
            "above": np.nextafter(box.upper[j], np.inf),
            "nan": np.nan,
            "inf": np.inf,
            "-inf": -np.inf,
        }[bad]
        assert not two_pass_unit_points(box, pts)[0]
        with pytest.raises(ValueError, match="^point outside the closed box$"):
            domain._unit_points(box.intervals, pts)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("bad", [np.nextafter(0.0, -1.0), np.nextafter(2.0, 3.0), np.nan, np.inf, -np.inf])
def test_grid_kernels_refuse_an_axis_outside_the_box(axis, bad):
    system = enumerate_eigen(HyperBox(((0.0, 2.0), (0.0, 2.0))), count=10)
    axes = [np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 4)]
    axes[axis] = np.append(axes[axis], bad)
    with pytest.raises(ValueError, match="^point outside the closed box$"):
        grid_rmatvec(system, np.ones(10), axes)
    with pytest.raises(ValueError, match="^point outside the closed box$"):
        grid_matvec(system, axes, np.ones((len(axes[0]), len(axes[1]))))


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
    axes, w = resolving_gauss_rule(system)
    pts = tensor_points(axes)
    head = dense_reference(system.prefix(8), pts) @ (w * f.evaluate(pts))
    np.testing.assert_allclose(coeffs[:8], head, rtol=1e-12, atol=1e-14)
