"""ConfigError and the value checks shared by every reader of the run config."""

from __future__ import annotations

import sys


class ConfigError(ValueError):
    """A config value rejected at ``path``, a dotted key such as ``triplet.measure.alpha``."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"config error at {path}: {message}")


def require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def reported_at(path: str, owner, *args, **kwargs):
    """``owner(*args, **kwargs)``, a ValueError it raises reported as a ConfigError at ``path``."""
    try:
        return owner(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def as_number(value, path: str) -> float:
    require(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    # False for nan, inf and integers too large for a float.
    require(abs(value) <= sys.float_info.max, path, "expected a finite number")
    return float(value)


def as_int(value, path: str, least: int | None = 1) -> int:
    """An integer, at least ``least`` unless that is None (its owner checks the range)."""
    ok = isinstance(value, int) and not isinstance(value, bool) and (least is None or value >= least)
    require(ok, path, "expected an integer" if least is None else f"expected an integer >= {least}")
    return value


def as_list(value, path: str, entry) -> list:
    """A non-empty list, each entry checked by ``entry(value, path)``."""
    require(isinstance(value, list) and value, path, "expected a non-empty list")
    return [entry(v, f"{path}[{i}]") for i, v in enumerate(value)]
