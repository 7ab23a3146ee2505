"""Function descriptors: the closed set of integrands the package accepts.

Descriptors exist so that integrals and Fourier analysis can dispatch to
closed forms.  ``integral(f, box, q)`` is the closed form of int f^q for
q = 1 and 2, for every kind a config can name and for ``SpectralFunction``,
and ``lq_finite`` decides every L^q question analytically; tensor Gauss
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

from ._checks import ConfigError, as_int, as_list, as_number, reported_at, require
from .domain import (
    EigenSystem,
    HyperBox,
    box_fourier,
    check_sub_box,
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


def fourier_vector(system: EigenSystem, f) -> np.ndarray:
    """Coefficients <f, e_k> for every index of the system at once.

    Closed forms where the descriptor admits them, a copy to ``positions`` for
    an expansion on the same box, otherwise one shared tensor Gauss rule sized
    to resolve the highest mode of the system, projected axis by axis.
    """
    box = system.box
    if isinstance(f, Constant):
        return f.value * box_fourier(system)
    if isinstance(f, Indicator):
        return sum(box_fourier(system, member) for member in f.boxes)
    if isinstance(f, SpectralFunction) and f.system.box == box:
        # A mode the system lacks has position -1, a spare last entry that is dropped.
        out = np.zeros(len(system) + 1)
        out[positions(system, f.system.indices)] = f.coeffs
        return out[:-1]

    axes, w = resolving_gauss_rule(system)
    return grid_matvec(system, axes, w * f.evaluate(tensor_points(axes)))


def integral(f, box: HyperBox, q: int = 1) -> float:
    """int_D f^q dx in closed form for q = 1 or 2; math.inf if f is not in
    L^q (``lq_finite``), ValueError if no closed form."""
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")
    if not lq_finite(f, box, q):
        return math.inf
    if isinstance(f, Constant):
        return f.value**q * box.volume
    if isinstance(f, Indicator):
        for member in f.boxes:
            check_sub_box(box, member)
        return float(sum(bx.volume for bx in f.boxes))
    if isinstance(f, SpectralFunction) and f.system.box == box:
        return float(np.dot(f.coeffs, box_fourier(f.system) if q == 1 else f.coeffs))
    if isinstance(f, AxisPower | Polynomial):
        a, b = box.intervals[f.axis]
        if isinstance(f, Polynomial):  # P(b) - P(a), P the antiderivative of f^q
            poly = np.polynomial.polynomial
            lo, hi = poly.polyval([a, b], poly.polyint(poly.polypow(f.coeffs, q)))
            value = hi - lo
        else:  # int t^e dt over the side less the offset, finite as f is in L^q
            e, lo, hi = q * f.exponent, a - f.offset, b - f.offset
            value = math.log(hi / lo) if e == -1.0 else (hi ** (e + 1.0) - lo ** (e + 1.0)) / (e + 1.0)
        return box.volume / (b - a) * float(value)
    raise ValueError(f"no closed-form integral of {type(f).__name__} to the power {q} over {box.intervals}")


def check_offset(f: AxisPower, box: HyperBox) -> None:
    """An axis power's offset sits at or below the box on its axis, where its power is real."""
    a = box.intervals[f.axis][0]
    if f.offset > a:
        raise ValueError(f"axis-power offset must sit at or below the box on its axis, got {f.offset} above {a}")


def lq_finite(f, box: HyperBox, q: float) -> bool:
    """Whether int_D |f|^q < infinity, decided analytically.

    A power singularity is integrable iff q * exponent exceeds minus its
    codimension: 1 for an axis power, d for a radial one.
    """
    if isinstance(f, AxisPower):
        check_offset(f, box)
        return box.intervals[f.axis][0] - f.offset > 0.0 or q * f.exponent > -1.0
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
                reported_at(f"{path}.boxes[{i}]", check_sub_box, box, member)
            return Indicator(members)
        axis = as_int(data.get("axis", 0), f"{path}.axis", least=0)
        require(axis < box.dim, f"{path}.axis", f"axis must lie in [0, {box.dim})")
        if kind == "axis_power":
            exponent = as_number(data["exponent"], f"{path}.exponent")
            f = AxisPower(exponent, axis, as_number(data.get("offset", 0.0), f"{path}.offset"))
            reported_at(f"{path}.offset", check_offset, f, box)
            return f
        return Polynomial(tuple(as_list(data["coeffs"], f"{path}.coeffs", as_number)), axis)
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}", f"missing key of {kind}")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # from the descriptor's own checks
        raise ConfigError(path, str(exc))
