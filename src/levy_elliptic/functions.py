"""Function descriptors: the closed set of integrands the package accepts.

Descriptors exist so that pairing, Fourier analysis, and integrability
checks can dispatch to closed forms when they exist and fall back to
tensor Gauss quadrature otherwise.  A bare callable can be wrapped in
``CallableFunction``, but consumers that need analytic finiteness
information (integrability verdicts, noise pairing) refuse it unless the
caller certifies integrability explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import ConfigError, as_int, as_list, as_number
from .domain import (
    EigenSystem,
    HyperBox,
    box_integral,
    constant_fourier,
    eigen_matrix,
    eigen_matvec,
    eigen_rmatvec,
    resolving_gauss_nodes,
    single_mode,
)


class UncertifiedFunctionError(ValueError):
    """Raised when an operation needs integrability facts a descriptor lacks."""


@dataclass(frozen=True)
class Constant:
    value: float

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(points)), float(self.value))


@dataclass(frozen=True)
class Eigenfunction:
    """One Dirichlet eigenfunction of the box, as a reusable integrand."""

    box: HyperBox
    index: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(int(k) for k in np.atleast_1d(self.index)))
        single_mode(self.box, self.index)  # validates the index

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return eigen_matrix(single_mode(self.box, self.index), points)[0]


@dataclass(frozen=True)
class Indicator:
    """Indicator of a disjoint union of boxes (half-open on each axis).

    Membership uses lower <= x < upper so adjacent members partition their
    union without double counting on shared faces.
    """

    boxes: tuple[HyperBox, ...]

    def __post_init__(self):
        boxes = tuple(self.boxes)
        object.__setattr__(self, "boxes", boxes)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _interiors_overlap(boxes[i], boxes[j]):
                    raise ValueError("indicator members must have disjoint interiors")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts))
        for bx in self.boxes:
            inside = np.all((pts >= bx.lower) & (pts < bx.upper), axis=1)
            out = np.where(inside, 1.0, out)
        return out


def _interiors_overlap(a: HyperBox, b: HyperBox) -> bool:
    return bool(np.all(np.maximum(a.lower, b.lower) < np.minimum(a.upper, b.upper)))


@dataclass(frozen=True)
class AxisPower:
    """f(x) = (x_axis - offset)^exponent, possibly singular at the offset."""

    exponent: float
    axis: int = 0
    offset: float = 0.0

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts[:, self.axis] - self.offset) ** self.exponent


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in one coordinate: sum_j coeffs[j] * x_axis^j."""

    coeffs: tuple[float, ...]
    axis: int = 0

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.polynomial.polynomial.polyval(pts[:, self.axis], np.asarray(self.coeffs))


@dataclass(frozen=True)
class CallableFunction:
    """Opaque callable contract: points array (m, d) -> values (m,).

    ``certified`` asserts the caller has verified integrability against the
    intended noise; operations that need that fact refuse when it is False.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    certified: bool = False

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(np.asarray(points, dtype=float))), dtype=float)


@dataclass(frozen=True)
class SpectralFunction:
    """Finite eigen-expansion sum_k coeffs[k] e_k aligned with a system."""

    system: EigenSystem
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != len(self.system):
            raise ValueError("coefficient length must match the system")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return eigen_rmatvec(self.system, self.coeffs, points)


@dataclass(frozen=True)
class Scaled:
    """c * f for a descriptor f; keeps closed forms of the inner descriptor."""

    inner: object
    factor: float

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return self.factor * self.inner.evaluate(points)


FunctionDescriptor = (
    Constant
    | Eigenfunction
    | Indicator
    | AxisPower
    | Polynomial
    | CallableFunction
    | SpectralFunction
    | Scaled
)


def _same_box(a: HyperBox, b: HyperBox) -> bool:
    return a.intervals == b.intervals


def indicator_fourier_vector(system: EigenSystem, f: Indicator) -> np.ndarray:
    """<f, e_k>: per axis sqrt(2/L) L/(pi k) [cos(pi k (alpha-a)/L) - cos(pi k (beta-a)/L)]."""
    box = system.box
    total = np.zeros(len(system))
    for sub in f.boxes:
        out = np.ones(len(system))
        for j in range(box.dim):
            a, _ = box.intervals[j]
            L = box.lengths[j]
            alpha, beta = sub.intervals[j]
            k = system.indices[:, j].astype(float)
            out *= (
                math.sqrt(2.0 / L)
                * L
                / (math.pi * k)
                * (np.cos(math.pi * k * (alpha - a) / L) - np.cos(math.pi * k * (beta - a) / L))
            )
        total += out
    return total


def fourier_vector(system: EigenSystem, f) -> np.ndarray:
    """Coefficients <f, e_k> for every index of the system at once.

    Closed forms where the descriptor admits them; otherwise one shared
    tensor Gauss rule sized to resolve the highest mode of the system.
    """
    box = system.box
    if isinstance(f, Scaled):
        return f.factor * fourier_vector(system, f.inner)
    if isinstance(f, Constant):
        return f.value * constant_fourier(system)
    if isinstance(f, Eigenfunction) and _same_box(f.box, box):
        out = np.zeros(len(system))
        pos = system.position(f.index)
        if pos is not None:
            out[pos] = 1.0
        return out
    if isinstance(f, Indicator):
        return indicator_fourier_vector(system, f)
    if isinstance(f, SpectralFunction) and _same_box(f.system.box, box):
        out = np.zeros(len(system))
        limit = min(len(out), len(f.coeffs))
        # Both systems are sorted the same way, so a shared prefix aligns.
        if limit and np.array_equal(system.indices[:limit], f.system.indices[:limit]):
            out[:limit] = f.coeffs[:limit]
            return out
        for pos_f, row in enumerate(f.system.indices):
            pos = system.position(row)
            if pos is not None:
                out[pos] = f.coeffs[pos_f]
        return out

    pts, w = resolving_gauss_nodes(system)
    return eigen_matvec(system, pts, w * f.evaluate(pts))


def integral(f, box: HyperBox, tol: float = 1e-8) -> float:
    """int_D f dx with closed forms where available; math.inf if divergent."""
    if isinstance(f, Scaled):
        return f.factor * integral(f.inner, box, tol)
    if isinstance(f, Constant):
        return f.value * box.volume
    if isinstance(f, Eigenfunction) and _same_box(f.box, box):
        return float(constant_fourier(single_mode(box, f.index))[0])
    if isinstance(f, Indicator):
        return float(sum(bx.volume for bx in f.boxes))
    if isinstance(f, SpectralFunction) and _same_box(f.system.box, box):
        return float(np.dot(f.coeffs, constant_fourier(f.system)))
    if isinstance(f, AxisPower):
        return _axis_power_integral(f, box, 1.0, signed=True)
    return box_integral(lambda p: f.evaluate(p), box, tol=tol)


def abs_power_integral(f, box: HyperBox, q: float, tol: float = 1e-8) -> float:
    """int_D |f|^q dx; math.inf when the analytic criterion says divergent.

    Raises UncertifiedFunctionError for opaque callables without the
    certified flag, because divergence cannot be decided by quadrature.
    """
    finite = lq_finite(f, box, q)
    if finite is None:
        raise UncertifiedFunctionError(
            "cannot decide integrability of an uncertified callable"
        )
    if not finite:
        return math.inf
    if isinstance(f, Scaled):
        return abs(f.factor) ** q * abs_power_integral(f.inner, box, q, tol)
    if isinstance(f, Constant):
        return abs(f.value) ** q * box.volume
    if isinstance(f, Indicator):
        return float(sum(bx.volume for bx in f.boxes))
    if isinstance(f, Eigenfunction) and q == 2.0 and _same_box(f.box, box):
        return 1.0
    if isinstance(f, SpectralFunction) and q == 2.0 and _same_box(f.system.box, box):
        return float(np.dot(f.coeffs, f.coeffs))
    if isinstance(f, AxisPower):
        return _axis_power_integral(f, box, q, signed=False)
    return box_integral(lambda p: np.abs(f.evaluate(p)) ** q, box, tol=tol)


def _axis_power_integral(f: AxisPower, box: HyperBox, q: float, signed: bool) -> float:
    a, b = box.intervals[f.axis]
    lo, hi = a - f.offset, b - f.offset
    if lo < 0.0:
        raise ValueError("axis-power offset must sit at or below the box on its axis")
    other = box.volume / (b - a)
    e = q * f.exponent
    if lo == 0.0 and e <= -1.0:
        return math.inf
    if e == -1.0:
        val = math.log(hi / lo)
    else:
        val = (hi ** (e + 1.0) - lo ** (e + 1.0)) / (e + 1.0)
    return other * val


def lq_finite(f, box: HyperBox, q: float) -> bool | None:
    """Whether int |f|^q < infinity; None when not analytically decidable."""
    if isinstance(f, Scaled):
        return lq_finite(f.inner, box, q)
    if isinstance(f, (Constant, Eigenfunction, Indicator, Polynomial, SpectralFunction)):
        return True
    if isinstance(f, AxisPower):
        a, _ = box.intervals[f.axis]
        if a - f.offset > 0.0:
            return True
        return q * f.exponent > -1.0
    if isinstance(f, CallableFunction):
        return True if f.certified else None
    return None


# The config keys of each function kind besides "kind"; absent optional keys take defaults.
_FUNCTION_KEYS = {
    "constant": ("value",),
    "eigenfunction": ("index",),
    "indicator": ("boxes",),
    "axis_power": ("exponent", "axis", "offset"),
    "polynomial": ("coeffs", "axis"),
}


def parse_function(data: dict, box: HyperBox, path: str = "f"):
    """Descriptor from its JSON config object; ConfigError names a bad key under ``path``."""
    if not isinstance(data, dict) or data.get("kind") not in _FUNCTION_KEYS:
        raise ConfigError(path, f"expected an object whose kind is one of {sorted(_FUNCTION_KEYS)}")
    kind = data["kind"]
    for key in data:
        if key != "kind" and key not in _FUNCTION_KEYS[kind]:
            raise ConfigError(f"{path}.{key}", f"unknown key for {kind}")
    try:
        if kind == "constant":
            return Constant(as_number(data.get("value", 1.0), f"{path}.value"))
        if kind == "eigenfunction":
            return Eigenfunction(box, tuple(as_list(data["index"], f"{path}.index", 1, as_int)))
        if kind == "indicator":
            return Indicator(tuple(HyperBox(tuple(tuple(p) for p in ivs)) for ivs in data["boxes"]))
        axis = as_int(data.get("axis", 0), f"{path}.axis", least=0)
        if kind == "axis_power":
            exponent = as_number(data["exponent"], f"{path}.exponent")
            return AxisPower(exponent, axis, as_number(data.get("offset", 0.0), f"{path}.offset"))
        return Polynomial(tuple(as_list(data["coeffs"], f"{path}.coeffs", 1, as_number)), axis)
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}", f"missing key of {kind}")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # from the descriptor's own checks
        raise ConfigError(path, str(exc))
