"""Run configuration: one JSON document, flat overrides, strict validation.

The tool is driven by a single structured config file so sweep scripts can
compose runs textually.  ``--set key=value`` overrides accept dotted paths
into the document plus a handful of flat aliases (d, K, M, measure, ...)
for the values that change most often.  Unknown keys anywhere are rejected
with the offending path.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from .domain import HyperBox
from .integrability import GREEN_BOUND_MODE
from .measures import LevyTriplet, measure_from_dict
from .noise import POLICIES


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"config error at {path}: {message}")


DEFAULTS: dict = {
    "box": {"dim": 1, "intervals": [[0.0, 1.0]]},
    "triplet": {
        "b": 0.0,
        "sigma": 0.0,
        "measure": {"kind": "alpha_stable", "alpha": 1.5},
    },
    "gamma": 1.0,
    "eps": 0.01,
    "small_jump_policy": "gaussianize",
    "cutoff": {"count": 256},
    "mode": "spectral",
    "seed": None,
    "outdir": "levy-out",
    "workers": 1,
    "cf": {
        "u_grid": [0.5, 1.0, 2.0],
        "M": 100000,
        "f": {"kind": "constant", "value": 1.0},
    },
    "isometry": {
        "M": 100000,
        "band_high": 1.0,
        "f": {"kind": "constant", "value": 1.0},
    },
    "weak": {"phi": {"kind": "eigenfunction", "index": [1]}, "replicates": 5},
    "sobolev": {
        "r_list": [1.0, 1.4, 1.6],
        "K_list": [16384, 32768, 65536, 131072, 262144, 524288],
        "replicates": 20,
        "surrogate": False,
        "eps": 1.0,
    },
    "continuity": {"grid_levels": [4, 5, 6, 7, 8], "replicates": 20},
    "spectral_bound": {
        "t_list": [100.0, 300.0, 1000.0, 3000.0, 10000.0],
        "x_count": 5,
    },
    "solve": {"grid_points": 33},
    "green_oracle": {"grid_points": 20, "tolerance": 1e-3},
}

# Flat --set aliases mapping onto document paths.  A value may land on
# several paths (M applies to every block that reads an M).
_ALIASES: dict[str, list[str]] = {
    "d": ["box.dim"],
    "intervals": ["box.intervals"],
    "b": ["triplet.b"],
    "sigma": ["triplet.sigma"],
    "measure": ["triplet.measure"],
    "gamma": ["gamma"],
    "eps": ["eps"],
    "policy": ["small_jump_policy"],
    "small_jump_policy": ["small_jump_policy"],
    "K": ["cutoff.count"],
    "lambda_max": ["cutoff.threshold"],
    "mode": ["mode"],
    "seed": ["seed"],
    "outdir": ["outdir"],
    "workers": ["workers"],
    "M": ["cf.M", "isometry.M"],
    "u_grid": ["cf.u_grid"],
    "band_high": ["isometry.band_high"],
    "replicates": ["weak.replicates", "sobolev.replicates", "continuity.replicates"],
    "r_list": ["sobolev.r_list"],
    "K_list": ["sobolev.K_list"],
    "surrogate": ["sobolev.surrogate"],
    "grid_levels": ["continuity.grid_levels"],
    "t_list": ["spectral_bound.t_list"],
    "x_count": ["spectral_bound.x_count"],
    "grid_points": ["solve.grid_points", "green_oracle.grid_points"],
    "tolerance": ["green_oracle.tolerance"],
}


@dataclass
class RunConfig:
    box: HyperBox
    triplet: LevyTriplet
    gamma: float
    eps: float
    policy: str
    cutoff: tuple[str, float]
    mode: str
    seed: int | None
    outdir: str
    workers: int
    blocks: dict


def _parse_set_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    if "," in text:
        parts = []
        for piece in text.split(","):
            try:
                parts.append(json.loads(piece))
            except json.JSONDecodeError:
                parts.append(piece)
        return parts
    return text


def parse_measure_shorthand(text: str) -> dict:
    """alpha:1.5 | twopoint:rate,magnitude | vgamma:c,m | null."""
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    args = [float(x) for x in rest.split(",")] if rest else []
    if head in ("alpha", "alpha_stable", "stable"):
        if len(args) != 1:
            raise ValueError("alpha measure needs one parameter, e.g. alpha:1.5")
        return {"kind": "alpha_stable", "alpha": args[0]}
    if head in ("twopoint", "two_point"):
        if len(args) != 2:
            raise ValueError("twopoint measure needs rate,magnitude")
        return {"kind": "two_point", "rate": args[0], "magnitude": args[1]}
    if head in ("vgamma", "variance_gamma"):
        if len(args) != 2:
            raise ValueError("vgamma measure needs c,m")
        return {"kind": "variance_gamma", "c": args[0], "m": args[1]}
    if head == "null":
        return {"kind": "null"}
    raise ValueError(f"unknown measure shorthand {text!r}")


def _assign(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def _apply_override(doc: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError(item, "override must look like key=value")
    key, _, raw = item.partition("=")
    key = key.strip()
    raw = raw.strip()
    if key == "measure" or key.endswith(".measure"):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = None
        if not isinstance(value, dict):  # null, alpha:1.5, ... are shorthands
            try:
                value = parse_measure_shorthand(value if isinstance(value, str) else raw)
            except ValueError as exc:
                raise ConfigError(key, str(exc))
    else:
        value = _parse_set_value(raw)
    targets = _ALIASES.get(key, [key] if "." in key else None)
    if targets is None:
        raise ConfigError(key, "unknown override key")
    for dotted in targets:
        _assign(doc, dotted, copy.deepcopy(value))


# Objects that a config file replaces whole instead of merging key by key: a
# cutoff names one criterion, and a measure or function names its own kind.
_REPLACED = ("cutoff", "triplet.measure", "cf.f", "isometry.f", "weak.phi")


def _merge(base: dict, extra: dict, path: str = "") -> None:
    for key, value in extra.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown key")
        if isinstance(base[key], dict) and isinstance(value, dict) and here not in _REPLACED:
            _merge(base[key], value, here)
        else:
            base[key] = value


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _as_number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    _require(math.isfinite(float(value)), path, "expected a finite number")
    return float(value)


def load_config(
    config_path: str | None,
    overrides: list[str],
    *,
    seed: int | None = None,
    workers: int | None = None,
    outdir: str | None = None,
) -> RunConfig:
    """Defaults <- file <- --set overrides <- dedicated flags, then validate."""
    doc = copy.deepcopy(DEFAULTS)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(config_path, "config file not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{config_path}:{exc.lineno}:{exc.colno}", f"invalid JSON ({exc.msg})"
            )
        _require(isinstance(loaded, dict), config_path, "top level must be an object")
        _merge(doc, loaded)
    given_cutoff = doc.pop("cutoff")  # a --set cutoff replaces it, never merges into it
    for item in overrides:
        _apply_override(doc, item)
    doc.setdefault("cutoff", given_cutoff)
    if seed is not None:
        doc["seed"] = seed
    if workers is not None:
        doc["workers"] = workers
    if outdir is not None:
        doc["outdir"] = outdir
    return _validate(doc)


def _validate(doc: dict) -> RunConfig:
    dim = doc["box"]["dim"]
    _require(isinstance(dim, int) and 1 <= dim <= 6, "box.dim", "dim must be an integer in [1, 6]")
    intervals = doc["box"]["intervals"]
    _require(isinstance(intervals, list) and intervals, "box.intervals", "expected a list of pairs")
    if len(intervals) == 1 and dim > 1:
        intervals = intervals * dim
    _require(len(intervals) == dim, "box.intervals", f"need {dim} interval pairs")
    pairs = []
    for i, pair in enumerate(intervals):
        _require(
            isinstance(pair, (list, tuple)) and len(pair) == 2,
            f"box.intervals[{i}]",
            "expected [lower, upper]",
        )
        lo = _as_number(pair[0], f"box.intervals[{i}][0]")
        hi = _as_number(pair[1], f"box.intervals[{i}][1]")
        _require(lo < hi, f"box.intervals[{i}]", "lower must be below upper")
        pairs.append((lo, hi))
    box = HyperBox(tuple(pairs))

    trip = doc["triplet"]
    b = _as_number(trip["b"], "triplet.b")
    sigma = _as_number(trip["sigma"], "triplet.sigma")
    _require(sigma >= 0.0, "triplet.sigma", "sigma must be >= 0")
    measure_doc = trip["measure"]
    _require(isinstance(measure_doc, (dict, str)), "triplet.measure", "expected an object or shorthand")
    try:
        if isinstance(measure_doc, str):
            measure_doc = parse_measure_shorthand(measure_doc)
        measure = measure_from_dict(measure_doc)
        triplet = LevyTriplet(b, sigma, measure)
    except (ValueError, KeyError) as exc:
        raise ConfigError("triplet.measure", str(exc))

    gamma = _as_number(doc["gamma"], "gamma")
    _require(gamma > 0.0, "gamma", "gamma must be > 0")
    eps = _as_number(doc["eps"], "eps")
    _require(0.0 < eps <= 1.0, "eps", "eps must lie in (0, 1]")
    policy = doc["small_jump_policy"]
    _require(policy in POLICIES, "small_jump_policy", f"must be one of {POLICIES}")

    cut = doc["cutoff"]
    _require(isinstance(cut, dict), "cutoff", "expected an object")
    _require(len(cut) == 1 and set(cut) <= {"count", "threshold"}, "cutoff", "give exactly one of count or threshold")
    if "threshold" in cut:
        thr = _as_number(cut["threshold"], "cutoff.threshold")
        _require(thr > 0.0, "cutoff.threshold", "threshold must be > 0")
        cutoff = ("threshold", thr)
    else:
        count = cut["count"]
        _require(isinstance(count, int) and count >= 1, "cutoff.count", "count must be an integer >= 1")
        cutoff = ("count", float(count))

    mode = doc["mode"]
    _require(mode in ("spectral", GREEN_BOUND_MODE), "mode", f"must be 'spectral' or '{GREEN_BOUND_MODE}'")

    seed = doc["seed"]
    if seed is not None:
        _require(isinstance(seed, int) and seed >= 0, "seed", "seed must be a non-negative integer")

    workers = doc["workers"]
    _require(isinstance(workers, int) and workers >= 1, "workers", "workers must be an integer >= 1")

    outdir = doc["outdir"]
    _require(isinstance(outdir, str) and outdir, "outdir", "outdir must be a non-empty string")

    blocks = {
        name: copy.deepcopy(doc[name])
        for name in ("cf", "isometry", "weak", "sobolev", "continuity", "spectral_bound", "solve", "green_oracle")
    }
    _validate_blocks(blocks)

    return RunConfig(
        box=box,
        triplet=triplet,
        gamma=gamma,
        eps=eps,
        policy=policy,
        cutoff=cutoff,
        mode=mode,
        seed=seed,
        outdir=outdir,
        workers=workers,
        blocks=blocks,
    )


def _validate_blocks(blocks: dict) -> None:
    cf = blocks["cf"]
    _require(isinstance(cf["M"], int) and cf["M"] >= 1, "cf.M", "M must be a positive integer")
    _require(
        isinstance(cf["u_grid"], list) and cf["u_grid"], "cf.u_grid", "expected a non-empty list"
    )
    for i, u in enumerate(cf["u_grid"]):
        _as_number(u, f"cf.u_grid[{i}]")

    iso = blocks["isometry"]
    _require(isinstance(iso["M"], int) and iso["M"] >= 1, "isometry.M", "M must be a positive integer")
    _as_number(iso["band_high"], "isometry.band_high")

    weak = blocks["weak"]
    _require(
        isinstance(weak["replicates"], int) and weak["replicates"] >= 1,
        "weak.replicates",
        "replicates must be a positive integer",
    )

    sob = blocks["sobolev"]
    _require(isinstance(sob["r_list"], list) and sob["r_list"], "sobolev.r_list", "expected a list")
    _require(isinstance(sob["K_list"], list) and len(sob["K_list"]) >= 2, "sobolev.K_list", "need >= 2 cutoffs")
    _require(isinstance(sob["replicates"], int) and sob["replicates"] >= 1, "sobolev.replicates", "positive integer")
    _require(isinstance(sob["surrogate"], bool), "sobolev.surrogate", "expected a boolean")
    eps = _as_number(sob["eps"], "sobolev.eps")
    _require(0.0 < eps <= 1.0, "sobolev.eps", "eps must lie in (0, 1]")

    cont = blocks["continuity"]
    _require(
        isinstance(cont["grid_levels"], list) and len(cont["grid_levels"]) >= 3,
        "continuity.grid_levels",
        "need >= 3 levels",
    )
    _require(isinstance(cont["replicates"], int) and cont["replicates"] >= 1, "continuity.replicates", "positive integer")

    sb = blocks["spectral_bound"]
    _require(isinstance(sb["t_list"], list) and len(sb["t_list"]) >= 2, "spectral_bound.t_list", "need >= 2 values")
    _require(isinstance(sb["x_count"], int) and sb["x_count"] >= 1, "spectral_bound.x_count", "positive integer")

    _require(
        isinstance(blocks["solve"]["grid_points"], int) and blocks["solve"]["grid_points"] >= 2,
        "solve.grid_points",
        "need >= 2 grid points",
    )
    go = blocks["green_oracle"]
    _require(isinstance(go["grid_points"], int) and go["grid_points"] >= 2, "green_oracle.grid_points", "need >= 2")
    tol = _as_number(go["tolerance"], "green_oracle.tolerance")
    _require(tol > 0.0, "green_oracle.tolerance", "tolerance must be > 0")
