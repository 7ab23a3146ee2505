"""Dirichlet eigenbasis of the Laplacian on hyperrectangles.

On a box D = prod (a_i, b_i) with side lengths L_i the eigenpairs are
explicit: for a multi-index k with integer components >= 1,

    lambda_k = sum_i (pi k_i / L_i)^2,
    e_k(x)   = prod_i sqrt(2 / L_i) sin(pi k_i (x_i - a_i) / L_i),

and {e_k} is an orthonormal basis of L^2(D).  ``box_fourier`` is the closed
form of <1_A, e_k> for D and every box A inside it, one interval form an axis.

``enumerate_eigen`` lists the lattice below a threshold t in one pass that
goes axis by axis.  Axis j extends each prefix (k_1, ..., k_{j-1}) with
np.repeat by the k_j that leave room (pi / L_i)^2 for every later axis i,
the least that axis can add, so no prefix is built that cannot end at or
below t, whatever the order of the sides.  The partial eigenvalues add in
``eigenvalues_of``'s order and the last axis filters on the eigenvalue
itself, so the listing is exact in floating point.  The prefixes stay in
lexicographic order, so one stable sort on the eigenvalue breaks ties
lexicographically on the index, and orderings are reproducible across runs.
A lattice already in that order, as every one at d = 1 is, is not sorted.

Every value e_k(x) is a product of per-axis sines, and one layout,
``_Kernel``, serves every evaluation.  The listed modes live in a dense
grid: the first d - 1 axes over their index widths, the last axis as
anchors x offsets.  A front axis's sine table is built by angle addition
from about sqrt(width) anchor rows and as many offset rows, so a point
costs about 4 sqrt(width) calls of np.sin or np.cos, and each anchor row is
np.sin's value bit for bit.  The last axis stays as its angle-addition
factors, and its sum is one BLAS product per chunk of points, in two
directions: ``_Kernel.rmatvec`` (grid rows times the sines at the points)
and ``_Kernel.matvec`` (its transpose).  Two front ends feed it rows:

- scattered points: ``eigen_rmatvec`` (c @ E) and ``eigen_matvec_blocks``
  (E @ w) multiply the front tables of a chunk into a dense prefix grid, one
  row a front index and a column a point;
- tensor grids: ``grid_rmatvec`` (c @ E) and ``grid_matvec`` (E @ w)
  contract the front axes of the mode grid with those axes' tables at the
  grid coordinates, one row a front grid point, and chunk the last axis's
  coordinates.  At d = 1 a grid is just points, and both front ends give
  the same bits.

``eigen_matrix`` gathers the whole of E from the same tables, for blocks
up to MAX_MATRIX_VALUES values, and ``positions`` finds where multi-indices
sit in a listing by reading the same grid of modes.  The layout is built
once per system, at its first use, and every later evaluation on that
system shares it.

``eigen_matvec_blocks`` gives E @ w one block of the listing at a time
(``listing_blocks``, about BLOCK_MODES modes each).  At d = 1 a block of
the sorted listing is a run of anchor rows of the grid, so points that fit
one chunk need memory for one block; otherwise the dense grid is summed
first and each block gathered from it.

CHUNK_CELLS bounds the memory of a chunk: it holds as many points (of the
last axis, on a grid) as keep its tables, rows and factors within that
many values.  Out of that bound are the mode grid itself, and on a tensor
grid the whole front tables (width x coordinates an axis) and the front
grid rows (one a front grid point and mode of the last axis): a thin box
whose wide side is a front axis has long front tables.  Points on the
boundary evaluate to exactly 0 (Dirichlet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Values (modes x points) of tables, grids and factors a chunk of points may hold: 4 MiB.
CHUNK_CELLS = 1 << 19
# Largest dense K x points block ``eigen_matrix`` returns, 128 MiB.
MAX_MATRIX_VALUES = 1 << 24
# Largest listing ``enumerate_eigen`` makes, 64 MiB at d = 1: its traced peak is 71 MB there and 2x the
# listing at d >= 2 (68 MB for 34 at d = 3, 2^20 modes).  ``check`` at 2^22 modes peaks at 100 MB RSS at
# d = 1, 304 MB at d = 3, most of it the enumeration: its Green diagonal walks ``listing_blocks``.
MAX_MODES = 1 << 22
# Most nodes ``gauss_rule`` makes an axis: numpy's leggauss solves a dense n x n eigenproblem, 2 GiB at 2^14.
MAX_GAUSS_NODES = 1 << 14
# Largest tensor grid, in values, that ``gauss_rule`` builds, ``solver.eval_field_grid`` evaluates or
# ``solver.green_gamma_grid`` tabulates; the CLI checks the grids of solve, sweep continuity and
# green-oracle before any work, so other commands run at high d.
MAX_GRID_VALUES = 1 << 21
# Modes of a block of the listing (``listing_blocks``), rounded down to whole anchor rows: 512 KiB a
# value array.  A default Sobolev sweep on 2 workers took 0.41 s at 2^16, 0.42 s at 2^17, 0.53 s at
# 2^15 and 0.87 s at 2^14 (in-process medians of 5, 2-core Xeon, one BLAS thread).  It also sizes the
# keyed Gaussian draws of a block, whose work arrays stay near a 2 MiB L2 cache: twenty draws of
# 524288 normals took 0.45 s serially and 0.23 s on two threads in blocks of 2^16, 0.55 and 0.43 s
# at 2^14 (more GIL handoffs), 0.58 and 0.27 s at 2^18.
BLOCK_MODES = 1 << 16


@dataclass(frozen=True)
class HyperBox:
    """Axis-aligned box given as a tuple of (lower, upper) interval pairs;
    a box whose volume underflows to 0 or overflows the doubles is refused."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if len(ivs) < 1:
            raise ValueError("box needs at least one interval")
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"lower must be below upper, both finite, got ({a}, {b})")
        with np.errstate(over="ignore"):
            _refuse_out_of_range(self, self.volume, "volume")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def lower(self) -> np.ndarray:
        return np.array([a for a, _ in self.intervals])

    @property
    def upper(self) -> np.ndarray:
        return np.array([b for _, b in self.intervals])

    @property
    def lengths(self) -> np.ndarray:
        return np.array([b - a for a, b in self.intervals])

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @classmethod
    def unit(cls, dim: int) -> "HyperBox":
        return cls(tuple((0.0, 1.0) for _ in range(dim)))


@dataclass(frozen=True)
class EigenSystem:
    """A sorted finite slice of the Dirichlet spectrum on a box.

    ``indices`` has shape (K, d), ``lams`` shape (K,), ascending, with ties
    broken lexicographically.  The listing is complete: every index with
    eigenvalue <= max(lams) that the cutoff admits is present.
    """

    box: HyperBox
    indices: np.ndarray
    lams: np.ndarray

    def __len__(self) -> int:
        return len(self.lams)

    def prefix(self, count: int) -> "EigenSystem":
        """First ``count`` entries as a new system (shares the arrays)."""
        if not 1 <= count <= len(self):
            raise ValueError(f"count must lie in [1, {len(self)}]")
        return EigenSystem(self.box, self.indices[:count], self.lams[:count])

    @cached_property
    def _kernel(self) -> "_Kernel":
        """The sine kernels' layout, built at the first use and shared by every later one."""
        return _Kernel.of(self)


def _axis_eigenvalues(k, length):
    """(pi k / L)^2, the term of index k on a side of length L in every eigenvalue."""
    return (math.pi * k / length) ** 2


def _lattice_below(lengths: np.ndarray, t: float):
    """Every multi-index (>= 1 each axis) with eigenvalue <= t, one row of an
    (N, d) int64 array each, in lexicographic order, and its eigenvalues, bit
    for bit those of ``eigenvalues_of``, which adds the same ``_axis_eigenvalues``.
    The room each axis leaves for the later ones has a relative slack of 1e-12.

    Besides its output, an axis makes one temporary of N values, the prefixes'
    eigenvalues repeated: each prefix row is repeated with a spare last column,
    whose run of k_j is one in-place cumsum of ones that restart at each prefix.
    """
    slack = t * (1.0 + 1e-12)
    least = _axis_eigenvalues(1, lengths)
    lattice, lam = None, np.zeros(1)
    for j, length in enumerate(lengths):
        room = slack - least[j + 1 :].sum()
        # The largest k_j any prefix may take (1 when no prefix is left).
        top = math.floor(length * math.sqrt(max(room - lam.min(initial=room), 0.0)) / math.pi) + 1
        ks = np.arange(1, top + 1)
        terms = _axis_eigenvalues(ks, length)
        counts = np.searchsorted(terms, room - lam, side="right")
        if j == len(lengths) - 1:
            # lam + terms[k] <= t is monotone in k: the slack admits at most a prefix's top k.
            while np.any(over := (counts > 0) & (lam + terms[counts - 1] > t)):
                counts -= over
        if j == 0:
            # One empty prefix, of eigenvalue 0: the first k_j and their terms are the listing so far.
            lattice, lam = ks[: counts[0], None], terms[: counts[0]]
            continue
        kept = np.flatnonzero(counts)
        counts = counts[kept]
        rows = np.empty((len(kept), j + 1), dtype=np.int64)
        rows[:, :j] = lattice[kept]
        lattice = np.repeat(rows, counts, axis=0)
        k = lattice[:, j]
        k.fill(1)
        k[:1] = 0
        k[np.cumsum(counts[:-1])] = 1 - counts[:-1]
        np.cumsum(k, out=k)
        step = terms[k]
        step += np.repeat(lam[kept], counts)
        lam = step
        k += 1
    return lattice, lam


def eigenvalues_of(box: HyperBox, indices: np.ndarray) -> np.ndarray:
    """Canonical eigenvalue formula, accumulated axis by axis; an eigenvalue
    past the double range is inf, without a warning."""
    idx = np.atleast_2d(np.asarray(indices, dtype=np.int64))
    lengths = box.lengths
    lam = np.zeros(len(idx))
    with np.errstate(over="ignore"):
        for j in range(box.dim):
            lam += _axis_eigenvalues(idx[:, j], lengths[j])
    return lam


def _refuse_over_budget(box: HyperBox, t: float, name: str) -> None:
    """Refuse a threshold t whose Weyl term |D| t^(d/2) / ((4 pi)^(d/2)
    Gamma(d/2 + 1)), an upper bound on N(t) on a box, lies above MAX_MODES."""
    d = box.dim
    # The Weyl term in logs, where no threshold overflows it.
    log_weyl = math.log(box.volume) + d / 2.0 * math.log(t / (4.0 * math.pi)) - math.lgamma(d / 2.0 + 1.0)
    if log_weyl > math.log(MAX_MODES):
        raise ValueError(
            f"{name}={t:g} may admit more modes than the mode budget MAX_MODES={MAX_MODES}: "
            "its Weyl term, an upper bound on their count, lies above it"
        )


def _refuse_out_of_range(box: HyperBox, value: float, name: str) -> None:
    """Refuse a box whose ``value``, its volume or an eigenvalue, underflows to 0 or overflows the doubles."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"the {name} of the box {box.intervals} is {value:g}, outside the double range")


def check_cutoff(count: int | None = None, lambda_max: float | None = None) -> None:
    """A listing's one criterion: a mode count >= 1 or an eigenvalue threshold > 0."""
    if (count is None) == (lambda_max is None):
        raise ValueError("specify exactly one of count, lambda_max")
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if lambda_max is not None and not lambda_max > 0.0:
        raise ValueError(f"lambda_max must be positive, got {lambda_max}")


def enumerate_eigen(
    box: HyperBox, count: int | None = None, lambda_max: float | None = None
) -> EigenSystem:
    """Complete sorted eigen listing below a count or eigenvalue threshold.

    Count mode lists every mode below a Weyl-law guess for the ``count``-th
    eigenvalue, raising a guess that admits n < count modes by the factor
    1.01 (count / n)^(2/d), and keeps the first ``count`` of the sorted
    listing; ties at the last admitted eigenvalue are resolved by the
    lexicographic order, not widened.  Both modes refuse, before
    enumerating, a listing over MAX_MODES: a count above it, or a threshold
    t whose Weyl term |D| t^(d/2) / ((4 pi)^(d/2) Gamma(d/2 + 1)), an upper
    bound on N(t) on a box, lies above it.

    A lattice already sorted is the listing itself, with no permutation:
    at d = 1 the traced peak is 1.06x the listing (2^22 modes: 71 MB for
    67 MB).  Otherwise the permutation and the sorted copy are made beside
    the lattice, about 2x the listing (2^20 modes: 51 MB for 25 MB at d = 2,
    68 MB for 34 MB at d = 3).
    """
    check_cutoff(count, lambda_max)
    d = box.dim
    lam1 = float(eigenvalues_of(box, np.ones((1, d), dtype=np.int64))[0])
    _refuse_out_of_range(box, lam1, "first eigenvalue")
    if count is not None:
        if count > MAX_MODES:
            raise ValueError(f"count={count} modes is above the mode budget MAX_MODES={MAX_MODES}")
        try:
            t = lam1 + 4.0 * math.pi * ((count + 1) * math.gamma(d / 2.0 + 1.0) / box.volume) ** (2.0 / d)
        except (OverflowError, ZeroDivisionError):  # the guess or 1 / |D| leaves the doubles
            t = math.inf
        _refuse_out_of_range(box, t, "count-mode eigenvalue guess")
        lattice, lam = _lattice_below(box.lengths, t)
        while len(lam) < count:
            t *= 1.01 * (count / len(lam)) ** (2.0 / d)
            lattice = lam = None  # hold one lattice at a time
            lattice, lam = _lattice_below(box.lengths, t)
    else:
        _refuse_over_budget(box, lambda_max, "lambda_max")
        lattice, lam = _lattice_below(box.lengths, float(lambda_max))
        if len(lam) == 0:
            raise ValueError(
                f"threshold {lambda_max} lies below the first eigenvalue; empty system"
            )
    if np.all(lam[1:] >= lam[:-1]):
        # Already sorted, as the lattice always is at d = 1: a stable sort would not move it.
        return EigenSystem(box, lattice[:count], lam[:count])
    order = np.argsort(lam, kind="stable")[:count]
    # Sorted eigenvalues first, so glibc reuses the unsorted ones' memory for the indices.
    lam = np.take(lam, order)
    return EigenSystem(box, np.take(lattice, order, axis=0), lam)


def weyl_count(box: HyperBox, t: float) -> int:
    """N(t): number of eigenvalues <= t, by exact lattice enumeration; refuses,
    as ``enumerate_eigen`` does, a t whose Weyl term lies above MAX_MODES."""
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    _refuse_over_budget(box, t, "t")
    return len(_lattice_below(box.lengths, t)[1])


def single_mode(box: HyperBox, index) -> EigenSystem:
    """One-entry system holding the multi-index ``index``; validates it."""
    idx = np.atleast_1d(np.asarray(index, dtype=np.int64))
    if idx.ndim != 1 or len(idx) != box.dim or np.any(idx < 1):
        raise ValueError(f"index {index} invalid for a dim-{box.dim} box")
    return EigenSystem(box, idx[None, :], eigenvalues_of(box, idx[None, :]))


def _unit_points(intervals, points) -> tuple[np.ndarray, np.ndarray]:
    """Points of the closed box of ``intervals`` as fractions (x - a) / L of each
    side, and their boundary mask, read off x - a and b - x: in IEEE arithmetic
    each is >= 0 iff its order holds and 0 iff its sides are equal; NaN, +-inf fail."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lower, upper = np.array(intervals).T
    if pts.shape[1] != len(lower):
        raise ValueError(f"points have dim {pts.shape[1]}, box has {len(lower)}")
    below, above = pts - lower, upper - pts
    if not np.all((below >= 0.0) & (above >= 0.0)):
        raise ValueError("point outside the closed box")
    return below / (upper - lower), np.any((below == 0.0) | (above == 0.0), axis=1)


def _block_length(width: int) -> int:
    """Rows B between the anchors of a sine table of ``width`` rows: ceil(sqrt(width))."""
    return math.isqrt(width - 1) + 1


def _sine_factors(lo: int, hi: int, step: int, u: np.ndarray, length: float):
    """Factors of sqrt(2/L) sin(pi k u) for lo <= k <= hi by angle addition.

    With anchors m0 = lo + m step and offsets j < step,
    sin(pi (m0 + j) u) = sin(pi m0 u) cos(pi j u) + cos(pi m0 u) sin(pi j u).
    Returns the scaled anchor sines and cosines, shape (anchors, points),
    and the offset cosines and sines side by side, shape (step, 2 points).
    """
    return (*_anchor_factors(np.arange(lo, hi + 1, step), u, length), _offset_factors(step, u))


def _anchor_factors(anchors: np.ndarray, u: np.ndarray, length: float):
    """sqrt(2/L) sin(pi m u) and sqrt(2/L) cos(pi m u), one row an anchor m and a column a point."""
    anchor = np.pi * np.outer(anchors, u)
    scale = math.sqrt(2.0 / length)
    return scale * np.sin(anchor), scale * np.cos(anchor)


def _offset_factors(step: int, u: np.ndarray) -> np.ndarray:
    """cos(pi j u) and sin(pi j u) side by side, one row an offset j < step."""
    offset = np.pi * np.outer(np.arange(step), u)
    cos_sin = np.empty((step, 2 * len(u)))
    np.cos(offset, out=cos_sin[:, : len(u)])
    np.sin(offset, out=cos_sin[:, len(u) :])
    return cos_sin


def _sine_table(lo: int, hi: int, u: np.ndarray, length: float) -> np.ndarray:
    """T[k - lo, i] = sqrt(2/L) sin(pi k u_i) for lo <= k <= hi.

    Built from ``_sine_factors`` with about sqrt(width) anchors and offsets,
    so only about 4 sqrt(width) values per point call np.sin or np.cos.
    Anchor rows are the np.sin values bit for bit, since cos(0) = 1 and
    sin(0) = 0 exactly.
    """
    width = hi - lo + 1
    step = _block_length(width)
    sa, ca, cos_sin = _sine_factors(lo, hi, step, u, length)
    table = sa[:, None, :] * cos_sin[:, : len(u)]
    table += ca[:, None, :] * cos_sin[:, len(u) :]
    return table.reshape(-1, len(u))[:width]


@dataclass(frozen=True)
class _Kernel:
    """Layout of the sine kernels for one system.

    Modes live in a dense grid whose first d - 1 axes run over the index
    widths of those axes (``rows`` cells in all) and whose last axis runs
    over ``anchors`` x ``step`` indices of the last axis.  The block length
    ``step`` is about sqrt(rows x width), at most the width: that balances
    the anchor products (rows x anchors a point) against the offset
    factors (step a point).  So at d = 1 step and anchors are both about
    sqrt(width), and at d >= 2 the step is usually the whole width, with
    one anchor.  ``in_grid_order`` says that the listing is the grid's one
    row, mode after mode, as a sorted listing at d = 1 is.
    """

    box: HyperBox
    indices: np.ndarray  # the system's listing, shared
    low: tuple
    widths: tuple
    rows: int
    step: int
    anchors: int
    in_grid_order: bool

    @classmethod
    def of(cls, system: EigenSystem) -> "_Kernel":
        idx = system.indices
        low = idx.min(axis=0)
        widths = tuple(int(w) for w in idx.max(axis=0) - low + 1)
        rows = math.prod(widths[:-1])
        step = min(widths[-1], _block_length(rows * widths[-1]))
        # One row as wide as the listing, strictly ascending along it: the modes low, low + 1, ... in order.
        in_grid_order = rows == 1 and widths[-1] == len(idx) and bool(np.all(idx[1:, -1] > idx[:-1, -1]))
        low = tuple(int(k) for k in low)
        return cls(system.box, idx, low, widths, rows, step, -(-widths[-1] // step), in_grid_order)

    @cached_property
    def modes(self) -> tuple:
        """Each mode's place in the dense grid, one index array an axis; made at the first use."""
        return tuple((self.indices - np.array(self.low)).T)

    def grid(self) -> np.ndarray:
        """A zero dense grid of modes, shaped (rows x anchors, step)."""
        return np.zeros((self.rows * self.anchors, self.step))

    def at_modes(self, grid: np.ndarray) -> np.ndarray:
        """The view of ``grid`` that ``modes`` indexes."""
        return grid.reshape(*self.widths[:-1], self.anchors * self.step)

    def tables(self, unit) -> list:
        """T_j[k - low_j, i] = sqrt(2/L_j) sin(pi k unit[j][i]) over axis j's
        index width, for the leading axes that ``unit`` has a row of fractions for."""
        return [
            _sine_table(lo, lo + w - 1, u, length)
            for lo, w, length, u in zip(self.low, self.widths, self.box.lengths, unit)
        ]

    def chunk_points(self, rows: int) -> int:
        """Points of the last axis a chunk holds: about CHUNK_CELLS values for ``rows`` grid rows a point."""
        # A point's values: its front tables and rows, the anchor products
        # and their partial sums, and the offset phases, cosines and sines.
        cells = sum(self.widths[:-1]) + rows + 3 * rows * self.anchors + 3 * self.step
        return max(1, CHUNK_CELLS // cells)

    def chunks(self, unit: np.ndarray, rows: int):
        """(slice, last-axis factors) per chunk of the last axis's fractions
        ``unit``, ``chunk_points(rows)`` points a chunk."""
        size = self.chunk_points(rows)
        lo, hi, length = self.low[-1], self.low[-1] + self.widths[-1] - 1, self.box.lengths[-1]
        for start in range(0, len(unit), size):
            part = slice(start, start + size)
            yield part, _sine_factors(lo, hi, self.step, unit[part], length)

    def rmatvec(self, dense: np.ndarray, sa, ca, cos_sin) -> np.ndarray:
        """R[r, i] = sum_k G[r, k] sqrt(2/L) sin(pi k u_i) over the last axis,
        for a grid G shaped (r x anchors, step) as ``grid`` is: one BLAS
        product with the offset factors, then the anchor factors."""
        n = len(sa[0])
        both = (dense @ cos_sin).reshape(-1, self.anchors, 2 * n)
        partial = both[:, :, :n] * sa
        partial += both[:, :, n:] * ca
        return partial.sum(axis=1)

    def matvec(self, front: np.ndarray, sa, ca, cos_sin) -> np.ndarray:
        """The transpose: G[r, k] = sum_i F[r, i] sqrt(2/L) sin(pi k u_i) for
        rows F of point weights, shaped (r x anchors, step), over the anchors
        that ``sa`` and ``ca`` hold: the weighted anchor factors, then one
        BLAS product with the offset factors."""
        n = len(sa[0])
        lhs = np.empty((len(front), len(sa), 2 * n))
        np.multiply(front[:, None, :], sa, out=lhs[:, :, :n])
        np.multiply(front[:, None, :], ca, out=lhs[:, :, n:])
        return lhs.reshape(-1, 2 * n) @ cos_sin.T


def listing_blocks(system: EigenSystem) -> list[slice]:
    """The listing cut into consecutive blocks of BLOCK_MODES modes rounded down to whole anchor
    rows of the kernel (at least one), the last block shorter.  At d = 1 the atom sums of
    ``eigen_matvec_blocks`` move with BLOCK_MODES in their last bits (3.4e-14 at most, seen at K =
    70000 and 524288): OpenBLAS may round the rows at a block's edge otherwise than inside a grid."""
    step = system._kernel.step
    size = step * max(1, BLOCK_MODES // step)
    return [slice(start, min(start + size, len(system))) for start in range(0, len(system), size)]


def positions(system: EigenSystem, indices) -> np.ndarray:
    """Listing position of each row (n, d) of ``indices`` in the system, or -1: a gather
    from the kernel's grid of modes numbered in place."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, system.box.dim)
    kernel = system._kernel
    grid = np.full(kernel.widths, -1)
    grid[kernel.modes] = np.arange(len(system))
    cells = idx - kernel.low
    inside = np.all((cells >= 0) & (cells < kernel.widths), axis=1)
    return np.where(inside, grid[tuple(np.clip(cells, 0, np.array(kernel.widths) - 1).T)], -1)


def eigen_matrix(system: EigenSystem, points: np.ndarray) -> np.ndarray:
    """Dense E[j, i] = e_{k_j}(x_i), for small K x points: rows of the kernel's
    sine tables gathered and multiplied axis by axis.  Boundary columns are
    exactly zero.  A block over MAX_MATRIX_VALUES is refused."""
    unit, on_boundary = _unit_points(system.box.intervals, points)
    if len(system) * len(unit) > MAX_MATRIX_VALUES:
        raise ValueError(
            f"a dense {len(system)} x {len(unit)} eigen matrix is above the cap MAX_MATRIX_VALUES={MAX_MATRIX_VALUES}"
        )
    kernel = system._kernel
    out = np.ones((len(system), len(unit)))
    for table, k in zip(kernel.tables(unit.T), kernel.modes):
        out *= table[k]
    out[:, on_boundary] = 0.0
    return out


def _prefix_grid(tables: list, weights: np.ndarray) -> np.ndarray:
    """P[(k_1, ..., k_{d-1}), i] = w_i prod_{j < d} T_j[k_j, i], the first d - 1
    axes of a chunk multiplied into a dense grid, rows in C order."""
    grid = weights[None, :]
    for table in tables:
        grid = (grid[:, None, :] * table[None, :, :]).reshape(-1, len(weights))
    return grid


def eigen_matvec_blocks(system: EigenSystem, points, weights):
    """E @ w, sum_i e_k(x_i) w_i for every mode, one block of ``listing_blocks`` at a
    time: the values of each block, in order.

    A listing in grid order (``_Kernel.in_grid_order``, a sorted listing at
    d = 1) with points that fit one chunk builds the points' offset factors
    once and, for each block, the anchor rows that block covers, their
    weighted anchor factors and one BLAS product with the offset factors.
    Otherwise, per chunk of points, the weighted prefix grid goes through
    the last axis's product; the first chunk's block is the dense grid of
    modes, the later ones add to it, and each block of modes is gathered
    from it; with no points it is a zero grid.  Boundary points carry
    weight 0, and a -0.0 reads +0.0, as on a zero grid plus the products.
    """
    kernel = system._kernel
    unit, on_boundary = _unit_points(system.box.intervals, points)
    weights = np.where(on_boundary, 0.0, np.asarray(weights, dtype=float))
    blocks = listing_blocks(system)
    if kernel.in_grid_order and 0 < len(unit) <= kernel.chunk_points(kernel.rows):
        front = _prefix_grid(kernel.tables(unit[:, :-1].T), weights)
        u, length = unit[:, -1], system.box.lengths[-1]
        cos_sin = _offset_factors(kernel.step, u)
        anchors = np.arange(kernel.low[-1], kernel.low[-1] + kernel.widths[-1], kernel.step)
        for part in blocks:
            rows = anchors[part.start // kernel.step : -(-part.stop // kernel.step)]
            values = kernel.matvec(front, *_anchor_factors(rows, u, length), cos_sin).ravel()
            values += 0.0
            yield values[: part.stop - part.start]
            del values  # hold no block while the next one is made
        return
    dense = None
    for chunk, factors in kernel.chunks(unit[:, -1], kernel.rows):
        block = kernel.matvec(_prefix_grid(kernel.tables(unit[chunk, :-1].T), weights[chunk]), *factors)
        if dense is None:
            dense = block
            dense += 0.0  # as a zero grid plus the block: a -0.0 reads +0.0
        else:
            dense += block
    if dense is None:
        dense = kernel.grid()
    for part in blocks:
        yield kernel.at_modes(dense)[tuple(m[part] for m in kernel.modes)]


def eigen_rmatvec(system: EigenSystem, coeffs, points) -> np.ndarray:
    """c @ E: sum_k c_k e_k(x_i) at every point.

    The coefficients fill the dense grid of modes.  Per chunk of points the
    last axis's product leaves one value a prefix row and point, which the
    prefix grid weights and sums.  Boundary points read 0.
    """
    kernel = system._kernel
    dense = kernel.grid()
    kernel.at_modes(dense)[kernel.modes] = coeffs
    unit, on_boundary = _unit_points(system.box.intervals, points)
    out = np.empty(len(unit))
    for part, factors in kernel.chunks(unit[:, -1], kernel.rows):
        u = unit[part]
        values = kernel.rmatvec(dense, *factors) * _prefix_grid(kernel.tables(u[:, :-1].T), np.ones(len(u)))
        out[part] = np.where(on_boundary[part], 0.0, values.sum(axis=0))
    return out


def _grid_kernel(system: EigenSystem, axes):
    """The system's kernel, the sine tables of its first d - 1 axes at their
    grid coordinates (zero on the boundary), and the last axis's fractions
    and boundary mask."""
    box = system.box
    if len(axes) != box.dim:
        raise ValueError("one coordinate array per axis required")
    sides = [_unit_points((side,), np.reshape(xs, (-1, 1))) for side, xs in zip(box.intervals, axes)]
    kernel = system._kernel
    tables = kernel.tables([unit[:, 0] for unit, _ in sides[:-1]])
    for table, (_, on_boundary) in zip(tables, sides):
        table[:, on_boundary] = 0.0
    unit, on_boundary = sides[-1]
    return kernel, tables, unit[:, 0], on_boundary


def _contract_front(tensor: np.ndarray, tables: list) -> np.ndarray:
    """Contract the first len(tables) axes of ``tensor``, each with the first
    axis of its table, which the table's second axis replaces in place."""
    for table in reversed(tables):
        tensor = np.tensordot(table, tensor, axes=([0], [len(tables) - 1]))
    return tensor


def grid_rmatvec(system: EigenSystem, coeffs, axes) -> np.ndarray:
    """c @ E on the tensor grid of the per-axis coordinate arrays ``axes``,
    shape (len(axes[0]), ...), never forming the K x prod m_i matrix.

    The coefficients fill the dense grid of modes, whose first d - 1 axes
    contract with those axes' sine tables into front grid rows; per chunk
    of last-axis coordinates, the last axis's product turns them into values.
    """
    kernel, tables, unit, on_boundary = _grid_kernel(system, axes)
    dense = kernel.grid()
    kernel.at_modes(dense)[kernel.modes] = coeffs
    front = _contract_front(kernel.at_modes(dense), tables)
    shape = front.shape[:-1]
    rows = math.prod(shape)
    front = front.reshape(rows * kernel.anchors, kernel.step)
    out = np.empty((rows, len(unit)))
    for part, factors in kernel.chunks(unit, rows):
        out[:, part] = kernel.rmatvec(front, *factors)
    out[:, on_boundary] = 0.0
    return out.reshape(*shape, len(unit))


def grid_matvec(system: EigenSystem, axes, values) -> np.ndarray:
    """E @ w for values w on the tensor grid of ``axes`` (the transpose of
    ``grid_rmatvec``): per chunk of last-axis coordinates, the last axis's
    product of the front grid rows of w; the first d - 1 axes then contract
    with their sine tables and the modes are gathered."""
    kernel, tables, unit, on_boundary = _grid_kernel(system, axes)
    shape = tuple(table.shape[1] for table in tables)
    rows = math.prod(shape)
    values = np.asarray(values, dtype=float).reshape(rows, len(unit))
    dense = np.zeros((rows * kernel.anchors, kernel.step))
    for part, factors in kernel.chunks(unit, rows):
        dense += kernel.matvec(np.where(on_boundary[part], 0.0, values[:, part]), *factors)
    tensor = _contract_front(dense.reshape(*shape, -1), [table.T for table in tables])
    return tensor[kernel.modes]


def check_sub_box(box: HyperBox, sub: HyperBox) -> np.ndarray:
    """The corners of ``sub`` as fractions (x - a) / L of the sides of ``box``, shape (2, d);
    a ValueError unless ``sub`` is a box of ``box``'s dimension inside its closed box."""
    try:
        return _unit_points(box.intervals, np.stack([sub.lower, sub.upper]))[0]
    except ValueError:
        raise ValueError(f"a member must be a {box.dim}-d box inside {box.intervals}, got {sub.intervals}") from None


def box_fourier(system: EigenSystem, sub: HyperBox | None = None) -> np.ndarray:
    """Coefficients <1_A, e_k> for every index of the system (closed form),
    A the box ``sub`` inside the system's box, or the whole box.

    Per axis, with s = (x - a)/L at A's sides: int sqrt(2/L) sin(pi k s) dx =
    sqrt(2 L) (cos(pi k s_lo) - cos(pi k s_hi)) / (pi k).  On the whole box
    s = 0 and 1, where the cosines are exactly +-1: sqrt(2 L) (1 - (-1)^k) / (pi k).
    """
    lo, hi = check_sub_box(system.box, system.box if sub is None else sub)
    out = np.ones(len(system))
    for j, length in enumerate(system.box.lengths):
        k = system.indices[:, j]
        ends = _cos_pi(k, lo[j]) - _cos_pi(k, hi[j])
        out *= math.sqrt(2.0 * length) * ends / (math.pi * k)
    return out


def _cos_pi(k: np.ndarray, s: float):
    """cos(pi k s) at integers k; at s = 0 and 1 the exact 1 and (-1)^k, to which np.cos rounds there."""
    if s == 0.0:
        return 1.0
    if s == 1.0:
        return 1.0 - 2.0 * (k & 1)
    return np.cos(math.pi * k * s)


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def check_grid(sizes) -> None:
    """Refuse a tensor grid of more than MAX_GRID_VALUES values, given its points an axis."""
    if math.prod(sizes) > MAX_GRID_VALUES:
        raise ValueError(f"a grid of {' x '.join(map(str, sizes))} points exceeds the cap of {MAX_GRID_VALUES} values")


def tensor_points(axes) -> np.ndarray:
    """Points (n, d), in C order, of the tensor grid of one coordinate array per axis."""
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


def gauss_rule(box: HyperBox, n_per_axis: int):
    """Gauss-Legendre nodes on each side of the box, and the product weights
    (n^d,) of the tensor grid's points in C order.  More than MAX_GAUSS_NODES
    nodes an axis, or a grid over MAX_GRID_VALUES, are refused before the rule is built."""
    n = int(n_per_axis)
    if n > MAX_GAUSS_NODES:
        raise ValueError(f"{n} Gauss nodes an axis are above the cap MAX_GAUSS_NODES={MAX_GAUSS_NODES}")
    check_grid([n] * box.dim)
    x, w = _leggauss(n)
    axes, weights = [], np.ones(1)
    for a, b in box.intervals:
        axes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights = np.outer(weights, 0.5 * (b - a) * w).ravel()
    return axes, weights


def resolving_nodes(system: EigenSystem) -> int:
    """Gauss nodes an axis whose tensor rule integrates products with every mode."""
    return max(64, 2 * int(system.indices.max()) + 48)


def resolving_gauss_rule(system: EigenSystem):
    """Gauss rule, as ``gauss_rule`` returns it, of ``resolving_nodes`` nodes an axis."""
    return gauss_rule(system.box, resolving_nodes(system))
