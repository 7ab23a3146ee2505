"""Mild-solution machinery for the spectral fractional Dirichlet problem.

The operator acts diagonally on the Dirichlet eigenbasis, multiplying the
k-th coefficient by lambda_k^gamma, so its Green kernel is the series
G(x, y) = sum_k e_k(x) e_k(y) / lambda_k^gamma and a mild solution driven
by a noise realization has coefficients

    a_k = <noise, e_k> / lambda_k^gamma.

Everything here is a truncated series; each evaluation can be accompanied
by a counting-law tail estimate so callers can size the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv
from .domain import (
    EigenSystem, HyperBox, box_fourier, check_grid, eigen_matrix, grid_rmatvec, listing_blocks, tensor_points
)
from .functions import SpectralFunction, fourier_vector
from .integrability import ExistenceVerdict, existence_verdict
from .noise import NoiseRealization, pair_eigen


class RegimeRefusalError(RuntimeError):
    """Raised when solving is requested outside the existence regime."""


@dataclass(frozen=True)
class GreenValue:
    """Truncated Green-kernel value with a spectral-tail error estimate."""

    value: float
    tail_bound: float


def series_tail_bound(box: HyperBox, gamma: float, lambda_max: float) -> float:
    """Estimate of sum_{lambda_k > lambda_max} lambda_k^(-gamma).

    Uses the leading counting asymptotics N(t) ~ C_d |D| t^(d/2); infinite
    when gamma <= d/2, where the full series itself diverges.
    """
    d = box.dim
    if gamma <= d / 2.0:
        return math.inf
    c_d = (4.0 * math.pi) ** (-d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return (
        c_d * box.volume * (d / 2.0) * lambda_max ** (d / 2.0 - gamma) / (gamma - d / 2.0)
    )


def green_gamma_eval(system: EigenSystem, gamma: float, x, y) -> GreenValue:
    """Truncated Green kernel at (x, y) with a sup-norm tail bound.

    Diagonal evaluation is permitted; when the untruncated kernel is
    singular there (gamma <= d/2) the value is truncation-dependent and the
    tail bound is infinite.
    """
    box = system.box
    xs = np.atleast_2d(x)
    value = float(green_gamma_grid(system, gamma, xs, xs if y is x else np.atleast_2d(y))[0, 0])
    sup_sq = 2.0**box.dim / box.volume  # |e_k(x) e_k(y)| <= prod 2/L_i
    tail = sup_sq * series_tail_bound(box, gamma, system.lambda_max)
    return GreenValue(value, tail)


def green_gamma_grid(system: EigenSystem, gamma: float, xs, ys) -> np.ndarray:
    """Truncated Green kernel on a product grid of points; shape (len(xs), len(ys)).

    The sum over modes walks ``domain.listing_blocks``: each block
    (``EigenSystem.block``) gives its dense ``eigen_matrix`` on each side,
    weighted by lambda_k^(-gamma/2), and adds one product into the result,
    so memory holds one block, not K rows; at d = 1 the listing itself is
    held as K, and each block's k and eigenvalues are built as it is
    reached, so nothing K-sized is made (2^22 modes: 1.0 MB traced).  Each
    side carries the same factors, so the kernel at (x, y) and at (y, x)
    multiplies them in the same order, and the two agree exactly.  The same
    array on both sides builds its factor once.  A grid over
    ``domain.MAX_GRID_VALUES`` is refused, and so is a block over
    ``domain.MAX_MATRIX_VALUES``, before its sine tables are built.  A
    listing of one block (at d = 1 up to 16384 modes) gives the bits of one
    whole product; past it, the blocks' tables and partial sums move the last bits.
    """
    check_grid([len(xs), len(ys)])
    out = np.zeros((len(xs), len(ys)))
    for part in listing_blocks(system):
        block = system.block(part)
        half = block.lams[:, None] ** (-gamma / 2.0)
        left = eigen_matrix(block, xs) * half
        out += left.T @ (left if ys is xs else eigen_matrix(block, ys) * half)
    return out


def refuse_outside_regime(d: int, gamma: float, triplet, override: bool) -> ExistenceVerdict:
    """The regime's verdict; raises RegimeRefusalError where no mild solution
    exists, unless overridden."""
    verdict = existence_verdict(d, gamma, triplet)
    if not verdict.exists and not override:
        raise RegimeRefusalError(
            f"no mild solution for d={d}, gamma={gamma}; "
            "pass --override (override=True) for divergence experiments"
        )
    return verdict


def solve_mild(
    realization: NoiseRealization,
    gamma: float,
    system: EigenSystem,
    override: bool = False,
) -> SpectralFunction:
    """Mild solution of the noise-driven problem as an eigen-expansion.

    Refuses regimes where no mild solution exists unless ``override`` is
    set (divergence sweeps set it deliberately).
    """
    refuse_outside_regime(system.box.dim, gamma, realization.law.triplet, override)
    return _apply_inverse(system, gamma, pair_eigen(realization, system))


def _apply_inverse(system: EigenSystem, gamma: float, values: np.ndarray) -> SpectralFunction:
    """The expansion with coefficients values_k / lambda_k^gamma.  A power past
    the doubles reads inf, so its mode is exactly 0, without a warning."""
    with np.errstate(over="ignore"):
        return SpectralFunction(system, values / system.lams**gamma)


def eval_field_grid(field: SpectralFunction, axes: list[np.ndarray]) -> np.ndarray:
    """Evaluate on the tensor grid of per-axis coordinate arrays
    (``domain.grid_rmatvec``): the first d - 1 axes contract with their sine
    tables, and the last axis runs through the chunked kernel of the
    scattered points, so at d = 1 memory stays within a chunk whatever the
    number of modes and points.  A grid over ``domain.MAX_GRID_VALUES`` is refused."""
    check_grid([len(a) for a in axes])
    return grid_rmatvec(field.system, field.coeffs, axes)


def torsion_solution(system: EigenSystem) -> SpectralFunction:
    """Solution of the unit-source Dirichlet problem (-Laplace v = 1).

    Spectral coefficients <1, e_k> / lambda_k; on an interval (a, b) the
    exact solution is (x - a)(b - x)/2, which makes this a convenient
    closed-form oracle target.
    """
    return SpectralFunction(system, box_fourier(system) / system.lams)


def green_convolve(system: EigenSystem, gamma: float, phi) -> SpectralFunction:
    """The kernel smoothing G * phi as an explicit eigen-expansion.

    Coefficients <phi, e_k> / lambda_k^gamma; evaluable like any spectral
    function and pairable with a noise realization.
    """
    return _apply_inverse(system, gamma, fourier_vector(system, phi))


def dump_coeffs_csv(field: SpectralFunction, path) -> None:
    """Coefficient dump: (ordinal, k_1..k_d, lambda, a_k) rows."""
    system = field.system
    header = ["ordinal", *(f"k_{i+1}" for i in range(system.box.dim)), "lambda", "a_k"]
    write_csv(path, header, [np.arange(len(system)), *system.indices.T, system.lams, field.coeffs])


def dump_field_grid_csv(field: SpectralFunction, axes: list[np.ndarray], path) -> None:
    """Field dump on a tensor grid: (x_1..x_d, value) rows."""
    values = eval_field_grid(field, axes)
    header = [*(f"x_{i+1}" for i in range(len(axes))), "value"]
    write_csv(path, header, [*tensor_points(axes).T, values.ravel()])
