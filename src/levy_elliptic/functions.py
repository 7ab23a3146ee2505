"""Function descriptors: the closed set of integrands the package accepts.

Descriptors exist so that integrals and Fourier analysis can dispatch to
closed forms.  ``integral`` and ``square_integral`` are closed forms for
every kind a config can name and for ``SpectralFunction``, and
``lq_finite`` decides every L^q question analytically; tensor Gauss
quadrature now serves only the Fourier coefficients that have no closed
form.  Config objects name the kinds that ``parse_function`` builds,
checked against the run's box, and the ``eigenfunction`` kind e_k is the
one-mode ``SpectralFunction`` with coefficient 1; the package itself
builds other ``SpectralFunction`` values and ``RadialPower``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import ConfigError, as_int, as_list, as_number, require
from .domain import (
    EigenSystem,
    HyperBox,
    _unit_points,
    constant_fourier,
    eigen_rmatvec,
    grid_matvec,
    positions,
    resolving_gauss_rule,
    single_mode,
    tensor_points,
)


@dataclass(frozen=True)
class Constant:
    value: float

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(points)), float(self.value))


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
class RadialPower:
    """f(x) = |x - centre|^exponent for a centre in the closed box."""

    exponent: float
    centre: tuple[float, ...]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - np.asarray(self.centre), axis=1) ** self.exponent


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


FunctionDescriptor = Constant | Indicator | AxisPower | Polynomial | RadialPower | SpectralFunction


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

    Closed forms where the descriptor admits them, a copy to ``positions`` for
    an expansion on the same box, otherwise one shared tensor Gauss rule sized
    to resolve the highest mode of the system, projected axis by axis.
    """
    box = system.box
    if isinstance(f, Constant):
        return f.value * constant_fourier(system)
    if isinstance(f, Indicator):
        return indicator_fourier_vector(system, f)
    if isinstance(f, SpectralFunction) and f.system.box == box:
        # A mode the system lacks has position -1, a spare last entry that is dropped.
        out = np.zeros(len(system) + 1)
        out[positions(system, f.system.indices)] = f.coeffs
        return out[:-1]

    axes, w = resolving_gauss_rule(system)
    return grid_matvec(system, axes, w * f.evaluate(tensor_points(axes)))


def integral(f, box: HyperBox) -> float:
    """int_D f dx in closed form; math.inf if divergent, ValueError if no closed form."""
    if isinstance(f, Constant):
        return f.value * box.volume
    if isinstance(f, Indicator):
        return float(sum(bx.volume for bx in f.boxes))
    if isinstance(f, SpectralFunction) and f.system.box == box:
        return float(np.dot(f.coeffs, constant_fourier(f.system)))
    if isinstance(f, AxisPower):
        return _axis_power_integral(f, box, 1.0)
    if isinstance(f, Polynomial):
        return _polynomial_integral(f.coeffs, f.axis, box)
    raise ValueError(f"no closed-form integral of {type(f).__name__} over {box.intervals}")


def square_integral(f, box: HyperBox) -> float:
    """int_D f^2 dx in closed form; math.inf if f is not in L^2, ValueError if no closed form."""
    if not lq_finite(f, box, 2.0):
        return math.inf
    if isinstance(f, Constant):
        return f.value**2 * box.volume
    if isinstance(f, Indicator):
        return float(sum(bx.volume for bx in f.boxes))
    if isinstance(f, SpectralFunction) and f.system.box == box:
        return float(np.dot(f.coeffs, f.coeffs))
    if isinstance(f, AxisPower):
        return _axis_power_integral(f, box, 2.0)
    if isinstance(f, Polynomial):
        return _polynomial_integral(np.polynomial.polynomial.polymul(f.coeffs, f.coeffs), f.axis, box)
    raise ValueError(f"no closed-form square integral of {type(f).__name__} over {box.intervals}")


def _axis_power_integral(f: AxisPower, box: HyperBox, q: float) -> float:
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


def _polynomial_integral(coeffs, axis: int, box: HyperBox) -> float:
    """|D| / L_axis * [P(b) - P(a)] with P the antiderivative of the coefficients."""
    a, b = box.intervals[axis]
    lo, hi = np.polynomial.polynomial.polyval([a, b], np.polynomial.polynomial.polyint(coeffs))
    return box.volume / (b - a) * float(hi - lo)


def lq_finite(f, box: HyperBox, q: float) -> bool:
    """Whether int_D |f|^q < infinity, decided analytically.

    A power singularity is integrable iff q * exponent exceeds minus its
    codimension: 1 for an axis power, d for a radial one.
    """
    if isinstance(f, AxisPower):
        a, _ = box.intervals[f.axis]
        return a - f.offset > 0.0 or q * f.exponent > -1.0
    if isinstance(f, RadialPower):
        return q * f.exponent > -box.dim
    return True


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
            index = as_list(data["index"], f"{path}.index", as_int)
            # One entry applies to every axis, as one box.intervals pair does.
            return SpectralFunction(single_mode(box, tuple(index * box.dim if len(index) == 1 else index)), [1.0])
        if kind == "indicator":
            members = tuple(HyperBox(tuple(tuple(p) for p in ivs)) for ivs in data["boxes"])
            for i, member in enumerate(members):
                try:  # both corners in the run's closed box, in the run's dimension
                    _unit_points(box.intervals, np.stack([member.lower, member.upper]))
                except ValueError:
                    raise ConfigError(f"{path}.boxes[{i}]", f"member must be a {box.dim}-d box inside the run's box")
            return Indicator(members)
        axis = as_int(data.get("axis", 0), f"{path}.axis", least=0)
        require(axis < box.dim, f"{path}.axis", f"axis must lie in [0, {box.dim})")
        if kind == "axis_power":
            exponent = as_number(data["exponent"], f"{path}.exponent")
            offset = as_number(data.get("offset", 0.0), f"{path}.offset")
            below = offset <= box.intervals[axis][0]
            require(below, f"{path}.offset", "offset must sit at or below the box on its axis")
            return AxisPower(exponent, axis, offset)
        return Polynomial(tuple(as_list(data["coeffs"], f"{path}.coeffs", as_number)), axis)
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}", f"missing key of {kind}")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # from the descriptor's own checks
        raise ConfigError(path, str(exc))
