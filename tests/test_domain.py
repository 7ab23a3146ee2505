import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from levy_elliptic import domain
from levy_elliptic.domain import (
    EigenSystem,
    HyperBox,
    box_fourier,
    eigen_matrix,
    eigenvalues_of,
    enumerate_eigen,
    gauss_rule,
    positions,
    single_mode,
    tensor_points,
    weyl_count,
)

UNIT = HyperBox.unit(1)
SQUARE = HyperBox.unit(2)


class TestEnumeration:
    def test_unit_interval_first_three(self):
        system = enumerate_eigen(UNIT, count=3)
        assert np.array_equal(system.indices[:, 0], [1, 2, 3])
        assert np.array_equal(system.lams, np.pi**2 * np.array([1.0, 4.0, 9.0]))

    def test_square_threshold_with_tie(self):
        # Brute-force oracle: k1^2 + k2^2 <= 5.
        oracle = sorted(
            [
                (k1 * k1 + k2 * k2, k1, k2)
                for k1 in range(1, 5)
                for k2 in range(1, 5)
                if k1 * k1 + k2 * k2 <= 5
            ]
        )
        system = enumerate_eigen(SQUARE, lambda_max=5 * np.pi**2)
        assert len(system) == len(oracle) == 3
        assert [tuple(row) for row in system.indices] == [(1, 1), (1, 2), (2, 1)]

    def test_interval_scaling_exact(self):
        box = HyperBox(((0.0, 2.0),))
        system = enumerate_eigen(box, count=4)
        ks = np.arange(1, 5)
        assert np.array_equal(system.lams, (np.pi * ks / 2.0) ** 2)
        assert system.lams[0] == (np.pi / 2.0) ** 2

    def test_threshold_below_ground_state_errors(self):
        with pytest.raises(ValueError, match="empty"):
            enumerate_eigen(UNIT, lambda_max=np.pi**2 / 2.0)

    def test_cutoff_argument_validation(self):
        with pytest.raises(ValueError):
            enumerate_eigen(UNIT)
        with pytest.raises(ValueError):
            enumerate_eigen(UNIT, count=3, lambda_max=50.0)
        with pytest.raises(ValueError):
            enumerate_eigen(UNIT, count=0)

    @pytest.mark.parametrize("count", [0, 41])
    def test_prefix_out_of_range_is_refused(self, count):
        with pytest.raises(ValueError, match=r"^count must lie in \[1, 40\]$"):
            enumerate_eigen(SQUARE, count=40).prefix(count)

    @pytest.mark.parametrize("box", [UNIT, SQUARE, HyperBox(((0.0, 1.0), (0.0, 2.5)))])
    def test_prefix_consistency(self, box):
        big = enumerate_eigen(box, count=41)
        small = enumerate_eigen(box, count=40)
        assert np.array_equal(big.indices[:40], small.indices)
        assert np.array_equal(big.lams[:40], small.lams)

    def test_sorted_nondecreasing(self):
        system = enumerate_eigen(SQUARE, count=200)
        assert np.all(np.diff(system.lams) >= 0.0)

    def test_exactly_count_entries_despite_tie(self):
        # lambda for (1,2) and (2,1) tie; count=2 keeps the lexicographic first.
        system = enumerate_eigen(SQUARE, count=2)
        assert [tuple(r) for r in system.indices] == [(1, 1), (1, 2)]

    def test_nan_thresholds_are_refused(self):
        with pytest.raises(ValueError, match=r"^lambda_max must be positive, got nan$"):
            enumerate_eigen(UNIT, lambda_max=math.nan)
        with pytest.raises(ValueError, match=r"^t must be > 0, got nan$"):
            weyl_count(UNIT, math.nan)


def oracle_listing(box: HyperBox, t: float):
    """Every index of the cube k_j <= floor(L_j sqrt(t) / pi) + 1 with eigenvalue
    <= t, sorted by (eigenvalue, index); the cube is walked one k_1 at a time."""
    axes = [np.arange(1, math.floor(L * math.sqrt(t) / math.pi) + 2) for L in box.lengths]
    rows = []
    for k1 in axes[0]:
        cube = np.stack(np.meshgrid([k1], *axes[1:], indexing="ij"), axis=-1).reshape(-1, box.dim)
        lam = eigenvalues_of(box, cube)
        rows += zip(lam[lam <= t].tolist(), map(tuple, cube[lam <= t].tolist()))
    rows.sort()
    return np.array([k for _, k in rows], dtype=np.int64).reshape(-1, box.dim), np.array([lam for lam, _ in rows])


ORACLE_BOXES = [
    HyperBox(((0.0, 1.0),)),
    HyperBox(((-3.5, 9.25),)),
    HyperBox(((0.0, 1.0), (0.0, 1.0))),
    HyperBox(((2.0, 3.0), (-1.0, 6.5))),
    HyperBox(((1.0, 3.0), (1.0, 3.0), (1.0, 3.0))),
    HyperBox(((0.0, 1.0), (0.0, 2.5), (-4.0, 3.0))),
    HyperBox.unit(4),
    HyperBox(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0), (0.0, 0.05))),
]


class TestAgainstOracle:
    @pytest.mark.parametrize("box", ORACLE_BOXES, ids=lambda box: str(box.intervals))
    def test_both_modes_and_weyl_count_match_the_cube(self, box):
        # The count guess's threshold: the ground state plus the Weyl t for 300 modes.
        t = float(eigenvalues_of(box, np.ones((1, box.dim)))[0]) + weyl_threshold(box, 300)
        idx, lam = oracle_listing(box, t)
        # One ulp below an eigenvalue, that eigenvalue lies within the enumeration's slack.
        for cut in (t, float(np.nextafter(lam[len(lam) // 2], -np.inf))):
            n = int(np.searchsorted(lam, cut, side="right"))
            system = enumerate_eigen(box, lambda_max=cut)
            assert np.array_equal(system.indices, idx[:n]) and system.lams.tobytes() == lam[:n].tobytes()
            assert weyl_count(box, cut) == n
        ties = [c for c in range(1, len(lam)) if lam[c - 1] == lam[c]]
        if box.dim > 1 and len(set(box.lengths)) == 1:
            assert ties, "a cube box has tied eigenvalues"
        for count in ties[:5] + [1, len(lam) // 2, len(lam)]:
            system = enumerate_eigen(box, count=count)
            assert np.array_equal(system.indices, idx[:count])
            assert system.lams.tobytes() == lam[:count].tobytes()


@st.composite
def random_boxes(draw):
    d = draw(st.integers(1, 4))
    sides = draw(st.lists(st.floats(0.05, 20.0), min_size=d, max_size=d))
    lows = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
    return HyperBox(tuple((a, a + L) for a, L in zip(lows, sides)))


@settings(max_examples=60, deadline=None)
@given(box=random_boxes(), count=st.integers(1, 400))
def test_listings_agree_on_random_boxes(box, count):
    system = enumerate_eigen(box, count=count)
    t = float(system.lams[-1])
    # A thin box's Weyl term can lie above the budget while its listing is small;
    # weyl_count refuses such a t as enumerate_eigen does.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domain, "MAX_MODES", 1 << 62)
        full = enumerate_eigen(box, lambda_max=t)
        assert weyl_count(box, t) == len(full)
    assert np.array_equal(full.indices[:count], system.indices)
    assert full.lams[:count].tobytes() == system.lams.tobytes()
    for listing in (system, full):
        assert listing.lams.tobytes() == eigenvalues_of(box, listing.indices).tobytes()
        rows = list(zip(listing.lams.tolist(), map(tuple, listing.indices.tolist())))
        assert rows == sorted(rows)


def argsort_listing(box: HyperBox, t: float, count: int | None = None):
    """The listing by one stable argsort of the lexicographic lattice below t,
    read off the cube k_j <= floor(L_j sqrt(t) / pi) + 1, first ``count`` rows."""
    widths = [math.floor(L * math.sqrt(t) / math.pi) + 1 for L in box.lengths]
    cube = np.indices(widths).reshape(box.dim, -1).T + 1
    lam = eigenvalues_of(box, cube)
    cube, lam = cube[lam <= t], lam[lam <= t]
    order = np.argsort(lam, kind="stable")[:count]
    return cube[order], lam[order]


LARGE_BOXES = [
    (HyperBox.unit(1), 1 << 16),
    (HyperBox(((-3.5, 9.25),)), 1 << 16),
    (SQUARE, 1 << 14),
    (HyperBox(((2.0, 3.0), (-1.0, 6.5))), 1 << 14),
    (HyperBox.unit(3), 1 << 13),
    (HyperBox(((0.0, 1.0), (0.0, 2.5), (-4.0, 3.0))), 1 << 13),
]


@pytest.mark.parametrize("box, count", LARGE_BOXES, ids=lambda v: str(getattr(v, "intervals", v)))
def test_both_modes_are_the_argsort_of_the_lattice_bit_for_bit(box, count):
    system = enumerate_eigen(box, count=count)
    idx, lam = argsort_listing(box, float(system.lams[-1]), count)
    assert system.indices.tobytes() == idx.tobytes() and system.lams.tobytes() == lam.tobytes()
    t = float(system.lams[count // 2])
    system = enumerate_eigen(box, lambda_max=t)
    idx, lam = argsort_listing(box, t)
    assert system.indices.tobytes() == idx.tobytes() and system.lams.tobytes() == lam.tobytes()
    assert system.indices.shape == (len(system), box.dim) and system.indices.flags.c_contiguous


@pytest.mark.parametrize("cutoff", [{"count": 1 << 18}, {"lambda_max": (math.pi * (1 << 18)) ** 2}])
def test_a_listing_at_d1_peaks_near_its_own_size(cutoff):
    # The lattice of one axis is sorted, so no permutation is made: its k and
    # eigenvalues are the listing, beside one temporary while they are made.
    tracemalloc.start()
    try:
        system = enumerate_eigen(UNIT, **cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(system) == 1 << 18
    assert peak <= 1.3 * (system.indices.nbytes + system.lams.nbytes)


@st.composite
def listing_and_queries(draw):
    """A listing of a random box in count or threshold mode, and queries mixing
    its rows with lattice cells of its bounding box widened by two each side,
    some absent from the listing and some outside the box (down to index -1)."""
    box = draw(random_boxes())
    system = enumerate_eigen(box, count=draw(st.integers(1, 300)))
    if draw(st.booleans()):
        with pytest.MonkeyPatch.context() as patch:
            # A thin box's Weyl term can lie above the budget while its listing is small.
            patch.setattr(domain, "MAX_MODES", 1 << 62)
            system = enumerate_eigen(box, lambda_max=float(system.lams[-1]))
    low, high = system.indices.min(axis=0), system.indices.max(axis=0)
    cell = st.tuples(*(st.integers(int(a) - 2, int(b) + 2) for a, b in zip(low, high)))
    cells = np.array(draw(st.lists(cell, max_size=40)), dtype=np.int64).reshape(-1, box.dim)
    rows = system.indices[draw(st.lists(st.integers(0, len(system) - 1), max_size=40))]
    queries = np.concatenate([cells, rows])
    return system, queries[draw(st.permutations(range(len(queries))))]


@settings(max_examples=80, deadline=None)
@given(listing_and_queries())
def test_lookup_agrees_with_a_dict_of_the_listing(case):
    system, queries = case
    where = {tuple(row): i for i, row in enumerate(system.indices.tolist())}
    expected = [where.get(tuple(row), -1) for row in queries.tolist()]
    assert positions(system, queries).tolist() == expected


class TestPositions:
    SYSTEM = enumerate_eigen(HyperBox(((0.0, 1.0), (0.0, 2.5))), count=200)

    def test_prefix_and_full_listing(self):
        assert positions(self.SYSTEM, self.SYSTEM.indices[:17]).tolist() == list(range(17))
        assert positions(self.SYSTEM, self.SYSTEM.indices).tolist() == list(range(200))
        assert positions(self.SYSTEM, np.empty((0, 2), dtype=np.int64)).tolist() == []

    def test_full_listing_out_of_order_reads_the_inverse_order(self):
        order = np.random.default_rng(3).permutation(200)
        assert np.array_equal(positions(self.SYSTEM, self.SYSTEM.indices[order]), order)

    def test_a_listing_sharing_no_mode_reads_minus_one(self):
        far = single_mode(self.SYSTEM.box, (40, 3))
        assert positions(far, self.SYSTEM.indices).tolist() == [-1] * 200
        assert positions(self.SYSTEM, far.indices).tolist() == [-1]

    def test_a_single_row_queried_as_a_list(self):
        row = self.SYSTEM.indices[123].tolist()
        assert positions(self.SYSTEM, [row]).tolist() == [123]


def weyl_threshold(box: HyperBox, modes: float) -> float:
    """The t at which the Weyl term |D| t^(d/2) / ((4 pi)^(d/2) Gamma(d/2 + 1)) is ``modes``."""
    d = box.dim
    return 4.0 * math.pi * (modes * math.gamma(d / 2.0 + 1.0) / box.volume) ** (2.0 / d)


def skewed_box(d: int) -> HyperBox:
    return HyperBox(tuple((0.0, 1.0 + 0.5 * i) for i in range(d)))


class TestModeBudget:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_listing_over_the_budget_is_refused_before_enumerating(self, monkeypatch, d):
        monkeypatch.setattr(domain, "_lattice_below", lambda *a: pytest.fail("enumerated past the mode budget"))
        box = skewed_box(d)
        with pytest.raises(ValueError, match=r"^count=4194305 modes is above the mode budget MAX_MODES=4194304$"):
            enumerate_eigen(box, count=domain.MAX_MODES + 1)
        # 1e300 would overflow the Weyl term t^(d/2) outside logs.
        for t in (weyl_threshold(box, 1.01 * domain.MAX_MODES), 1e300):
            with pytest.raises(ValueError, match=r"may admit more modes than the mode budget MAX_MODES=4194304"):
                enumerate_eigen(box, lambda_max=t)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_listings_within_the_budget_are_made(self, monkeypatch, d):
        monkeypatch.setattr(domain, "MAX_MODES", 300)
        box = skewed_box(d)
        assert len(enumerate_eigen(box, count=300)) == 300
        system = enumerate_eigen(box, lambda_max=weyl_threshold(box, 0.99 * 300))
        assert len(system) == weyl_count(box, float(system.lams[-1])) <= 300
        with pytest.raises(ValueError, match="MAX_MODES=300"):
            enumerate_eigen(box, count=301)
        with pytest.raises(ValueError, match="MAX_MODES=300"):
            enumerate_eigen(box, lambda_max=weyl_threshold(box, 1.01 * 300))


class TestBoxesOutsideTheDoubleRange:
    # On [0, 1e200] lambda_1 = (pi / 1e200)^2 underflows to 0, so a count-mode
    # guess stays 0 and once grew forever; on [0, 1e-200] it overflows.
    @pytest.mark.parametrize("side,value", [(1e200, "0"), (1e-200, "inf")])
    def test_a_first_eigenvalue_outside_the_doubles_is_refused(self, monkeypatch, side, value):
        monkeypatch.setattr(domain, "_lattice_below", lambda *a: pytest.fail("enumerated"))
        box = HyperBox(((0.0, side),))
        for cutoff in ({"count": 256}, {"lambda_max": 1.0}):
            with pytest.raises(ValueError, match=rf"^the first eigenvalue of the box .* is {value}, outside"):
                enumerate_eigen(box, **cutoff)

    @pytest.mark.parametrize("box", [((0.0, 1e-152),), ((0.0, 1e-80),) * 4])
    def test_a_count_guess_outside_the_doubles_is_refused(self, monkeypatch, box):
        # lambda_1 is finite, but the Weyl guess for the 256th eigenvalue, or 1 / |D|, is not.
        monkeypatch.setattr(domain, "_lattice_below", lambda *a: pytest.fail("enumerated"))
        with pytest.raises(ValueError, match=r"^the count-mode eigenvalue guess of the box .* is inf, outside"):
            enumerate_eigen(HyperBox(box), count=256)

    # (1e-81)^4 underflows to 0, where log |D| once raised a math domain error,
    # and (1e80)^4 overflows, which once slipped past every refusal.  (1e-80)^4
    # = 1e-320 is still made, and refused by the count guess above.
    @pytest.mark.parametrize("box,value", [(((0.0, 1e-81),) * 4, "0"), (((0.0, 1e80),) * 4, "inf")])
    def test_a_volume_outside_the_doubles_is_refused_when_the_box_is_made(self, box, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^the volume of the box .* is {value}, outside the double range$"):
                HyperBox(box)

    @pytest.mark.parametrize("side", [1e150, 1e-150, 1e100, 1e-100])
    def test_extreme_boxes_inside_the_doubles_still_list(self, side):
        system = enumerate_eigen(HyperBox(((0.0, side),)), count=256)
        assert system.indices[:, 0].tolist() == list(range(1, 257))


class TestWeylCount:
    def test_interval_t_100(self):
        # Oracle: pi^2 k^2 <= 100 iff k <= 3.18.
        assert weyl_count(UNIT, 100.0) == int(math.floor(math.sqrt(100.0) / math.pi)) == 3

    def test_below_ground_state(self):
        assert weyl_count(UNIT, np.pi**2 / 2.0) == 0

    def test_square_lattice_oracle(self):
        t = 5 * np.pi**2
        oracle = sum(
            1 for k1 in range(1, 10) for k2 in range(1, 10) if k1 * k1 + k2 * k2 <= 5
        )
        assert weyl_count(SQUARE, t) == oracle == 3

    def test_monotone_in_t(self):
        counts = [weyl_count(SQUARE, t) for t in np.linspace(10.0, 2000.0, 25)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_leading_term_window_unit_square(self):
        t = 1.0e4
        n = weyl_count(SQUARE, t)
        assert 0.7 <= n * 4.0 * np.pi / t <= 1.1

    def test_matches_enumeration(self):
        t = 777.0
        assert weyl_count(SQUARE, t) == len(enumerate_eigen(SQUARE, lambda_max=t))

    @pytest.mark.parametrize("box", [UNIT, SQUARE, skewed_box(3)], ids=["d1", "d2", "d3"])
    def test_a_threshold_over_the_budget_is_refused_before_enumerating(self, monkeypatch, box):
        monkeypatch.setattr(domain, "_lattice_below", lambda *a: pytest.fail("enumerated past the mode budget"))
        for t in (math.inf, weyl_threshold(box, 1.01 * domain.MAX_MODES)):
            with pytest.raises(ValueError, match=r"^t=\S+ may admit more modes than the mode budget MAX_MODES=4194304"):
                weyl_count(box, t)


def eigenfunction_value(box, index, x) -> float:
    return float(eigen_matrix(single_mode(box, index), np.atleast_2d(x))[0, 0])


class TestEigenfunctions:
    def test_interval_values(self):
        assert eigenfunction_value(UNIT, (1,), (0.5,)) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert eigenfunction_value(UNIT, (2,), (0.5,)) == pytest.approx(0.0, abs=1e-14)

    def test_square_center(self):
        assert eigenfunction_value(SQUARE, (1, 1), (0.5, 0.5)) == pytest.approx(2.0, rel=1e-14)

    def test_boundary_exactly_zero(self):
        assert eigenfunction_value(UNIT, (3,), (0.0,)) == 0.0
        assert eigenfunction_value(UNIT, (3,), (1.0,)) == 0.0
        assert eigenfunction_value(SQUARE, (2, 2), (0.0, 0.37)) == 0.0

    def test_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            eigenfunction_value(UNIT, (1,), (1.5,))

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            eigenfunction_value(UNIT, (0,), (0.5,))
        with pytest.raises(ValueError):
            eigenfunction_value(SQUARE, (1,), (0.5, 0.5))

    def test_a_dense_block_over_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(domain, "MAX_MATRIX_VALUES", 300)
        system = enumerate_eigen(SQUARE, count=30)
        assert eigen_matrix(system, np.full((10, 2), 0.5)).shape == (30, 10)
        monkeypatch.setattr(domain, "_sine_table", lambda *a: pytest.fail("sine table built"))
        with pytest.raises(ValueError, match=r"^a dense 30 x 11 eigen matrix is above the cap MAX_MATRIX_VALUES=300$"):
            eigen_matrix(system, np.full((11, 2), 0.5))

    def test_orthonormality_gram_matrix(self):
        system = enumerate_eigen(UNIT, count=20)
        axes, w = gauss_rule(UNIT, 128)
        e = eigen_matrix(system, tensor_points(axes))
        gram = (e * w) @ e.T
        assert np.max(np.abs(gram - np.eye(20))) < 1e-8

    def test_orthonormality_gram_matrix_2d(self):
        system = enumerate_eigen(SQUARE, count=20)
        axes, w = gauss_rule(SQUARE, 48)
        e = eigen_matrix(system, tensor_points(axes))
        gram = (e * w) @ e.T
        assert np.max(np.abs(gram - np.eye(20))) < 1e-8

    def test_whole_box_fourier_closed_form(self):
        # Odd modes carry 2 sqrt(2 L) / (pi k); even modes vanish.
        box = HyperBox(((0.0, 2.0),))
        system = enumerate_eigen(box, count=6)
        coeffs = box_fourier(system)
        ks = np.arange(1, 7)
        expected = np.where(ks % 2 == 1, 2.0 * math.sqrt(4.0) / (np.pi * ks), 0.0)
        assert coeffs == pytest.approx(expected, rel=1e-14)


def parity_fourier(system):
    """<1, e_k> by the parity form sqrt(2 L) (1 - (-1)^k) / (pi k), axis by axis."""
    out = np.ones(len(system))
    for j, length in enumerate(system.box.lengths):
        k = system.indices[:, j]
        out *= math.sqrt(2.0 * length) * (1.0 - np.where(k % 2 == 0, 1.0, -1.0)) / (math.pi * k.astype(float))
    return out


@pytest.mark.parametrize(
    "box",
    [
        UNIT,
        HyperBox(((-0.3, 2.7),)),
        SQUARE,
        HyperBox(((0.0, 2.0), (0.1, 0.6))),
        HyperBox.unit(3),
        HyperBox(((-1.0, 1.5), (0.0, 1.0), (3.0, 3.25))),
    ],
)
def test_whole_box_fourier_is_the_parity_form_bit_for_bit(box):
    # At s = 0 and 1 the cosines are exactly +-1, up to these indices (2^16 at d = 1).
    system = enumerate_eigen(box, count=1 << 16 if box.dim == 1 else 1 << 14)
    assert box_fourier(system).tobytes() == parity_fourier(system).tobytes()
    assert box_fourier(system, box).tobytes() == parity_fourier(system).tobytes()


def axis_quad(k, lo, hi, a, length):
    """int_lo^hi sqrt(2/L) sin(pi k (x - a)/L) dx by adaptive quadrature."""
    value, _ = integrate.quad(
        lambda x: math.sqrt(2.0 / length) * math.sin(math.pi * k * (x - a) / length),
        lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return value


@st.composite
def sub_box_and_modes(draw):
    """A box of d = 1-3, a box inside it and modes with every k_i <= 40."""
    d = draw(st.integers(1, 3))
    lower = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    sides = draw(st.lists(st.floats(0.1, 5.0), min_size=d, max_size=d))
    box = HyperBox(tuple((a, a + L) for a, L in zip(lower, sides)))
    starts = draw(st.lists(st.floats(0.0, 0.95), min_size=d, max_size=d))
    ends = [draw(st.floats(s + 0.01, 1.0)) for s in starts]
    sub = HyperBox(tuple((a + s * L, a + t * L) for a, L, s, t in zip(lower, sides, starts, ends)))
    n = draw(st.integers(1, 6))
    indices = np.array(draw(st.lists(st.integers(1, 40), min_size=n * d, max_size=n * d))).reshape(n, d)
    return box, sub, EigenSystem(box, indices, eigenvalues_of(box, indices))


@settings(deadline=None, max_examples=40)
@given(sub_box_and_modes())
def test_sub_box_fourier_matches_per_axis_quadrature(case):
    box, sub, system = case
    expected = [
        math.prod(axis_quad(k, *sub.intervals[j], box.intervals[j][0], box.lengths[j]) for j, k in enumerate(index))
        for index in system.indices
    ]
    assert box_fourier(system, sub) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("box", [UNIT, HyperBox(((-0.3, 2.7), (1.0, 1.5)))])
def test_box_fourier_adds_over_a_box_split_in_two(box):
    system = enumerate_eigen(box, count=2000)
    (a, b), rest = box.intervals[0], box.intervals[1:]
    cut = a + 0.37 * (b - a)
    left, right = HyperBox(((a, cut), *rest)), HyperBox(((cut, b), *rest))
    halves = box_fourier(system, left) + box_fourier(system, right)
    scale = np.max(np.abs(box_fourier(system)))
    assert np.max(np.abs(halves - box_fourier(system))) <= 8 * np.finfo(float).eps * scale


@pytest.mark.parametrize(
    "box,sub",
    [
        (UNIT, HyperBox(((0.0, 2.0),))),  # past the upper side: read all zeros
        (UNIT, HyperBox(((-1.0, 0.5),))),  # below the lower side: read -0.45016 at k = 1
        (UNIT, HyperBox(((0.0, 0.5), (0.0, 0.5)))),  # another dimension: truncated by the per-axis loop
        (SQUARE, HyperBox(((0.0, 0.5),))),
    ],
)
def test_a_member_outside_the_box_is_refused(box, sub):
    with pytest.raises(ValueError, match="a member must be a .-d box inside"):
        box_fourier(enumerate_eigen(box, count=8), sub)


class TestBoxAndQuadrature:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            HyperBox(())
        with pytest.raises(ValueError):
            HyperBox(((1.0, 1.0),))
        with pytest.raises(ValueError):
            HyperBox(((2.0, 1.0),))

    def test_volume_and_point_check(self):
        box = HyperBox(((0.0, 2.0), (-1.0, 1.0)))
        assert box.volume == 4.0
        unit, on_boundary = domain._unit_points(box.intervals, np.array([[1.0, 0.0], [2.0, -1.0]]))
        assert unit.tolist() == [[0.5, 0.5], [1.0, 0.0]] and on_boundary.tolist() == [False, True]
        with pytest.raises(ValueError, match="^point outside the closed box$"):
            domain._unit_points(box.intervals, np.array([[1.0, 0.0], [3.0, 0.0]]))

    def test_a_gauss_rule_over_the_cap_is_refused_before_leggauss(self, monkeypatch):
        assert len(gauss_rule(UNIT, 64)[0][0]) == 64
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: pytest.fail(f"leggauss({n}) called"))
        with pytest.raises(ValueError, match=r"^16385 Gauss nodes an axis are above the cap MAX_GAUSS_NODES=16384$"):
            gauss_rule(UNIT, domain.MAX_GAUSS_NODES + 1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_tensor_points_are_the_grid_in_c_order(self, sizes, seed):
        rng = np.random.default_rng(seed)
        axes = [rng.standard_normal(m) for m in sizes]
        points = tensor_points(axes)
        expected = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert points.shape == (math.prod(sizes), len(sizes))
        assert np.array_equal(points, expected)

    @pytest.mark.parametrize("n", [1, 5, 16])
    def test_gauss_weights_are_the_product_of_the_sides_in_c_order(self, n):
        box = HyperBox(((0.0, 2.0), (-1.0, 0.3), (0.5, 0.75)))
        axes, w = gauss_rule(box, n)
        x, v = np.polynomial.legendre.leggauss(n)
        sides = [0.5 * (b - a) * v for a, b in box.intervals]
        assert all(np.array_equal(xs, 0.5 * (b - a) * x + 0.5 * (a + b)) for xs, (a, b) in zip(axes, box.intervals))
        assert np.array_equal(w, np.outer(np.outer(sides[0], sides[1]).ravel(), sides[2]).ravel())
        assert np.array_equal(gauss_rule(UNIT, n)[1], 0.5 * v)

    def test_gauss_weights_sum_to_volume(self):
        box = HyperBox(((0.0, 2.0), (-1.0, 1.0)))
        _, w = gauss_rule(box, 16)
        assert np.sum(w) == pytest.approx(box.volume, rel=1e-14)

    def test_eigenvalue_formula_vectorized(self):
        box = HyperBox(((0.0, 1.0), (0.0, 2.0)))
        lams = eigenvalues_of(box, np.array([[1, 1], [2, 3]]))
        assert lams[0] == pytest.approx(np.pi**2 * (1.0 + 0.25), rel=1e-15)
        assert lams[1] == pytest.approx(np.pi**2 * (4.0 + 2.25), rel=1e-15)
