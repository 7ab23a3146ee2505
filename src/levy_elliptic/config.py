"""Run configuration: one JSON document, flat overrides, strict validation.

The tool is driven by a single structured config file so sweep scripts can
compose runs textually.  ``--set key=value`` overrides accept dotted paths
into the document plus a handful of flat aliases (d, K, M, measure, ...)
for the values that change most often.  Unknown keys anywhere are rejected
with the offending path.

This module checks shape, types and keys, and asks each value's owner for
its range: the box, triplet and noise law check themselves when they are
made, ``existence_verdict`` checks gamma, and each sweep list goes through
the validator beside its check in ``diagnostics``.  An owner's ValueError
is reported as a ConfigError at the value's key path.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace

from ._checks import ConfigError, as_int, as_list, as_number, reported_at, require
from .diagnostics import check_grid_levels, check_k_list, check_r_list, check_t_list
from .domain import HyperBox
from .functions import Indicator, parse_function
from .integrability import existence_verdict
from .measures import LevyTriplet, parse_measure
from .noise import NoiseLaw


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
# several paths (M applies to every block that reads an M, and eps to the run
# and to the Sobolev sweep, which keeps its own default of 1).
_ALIASES: dict[str, list[str]] = {
    "d": ["box.dim"],
    "intervals": ["box.intervals"],
    "b": ["triplet.b"],
    "sigma": ["triplet.sigma"],
    "measure": ["triplet.measure"],
    "gamma": ["gamma"],
    "eps": ["eps", "sobolev.eps"],
    "policy": ["small_jump_policy"],
    "small_jump_policy": ["small_jump_policy"],
    "K": ["cutoff.count"],
    "lambda_max": ["cutoff.threshold"],
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
    noise: NoiseLaw
    gamma: float
    cutoff: tuple[str, float]
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
            value = parse_measure(value if isinstance(value, str) else raw, key).to_dict()
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
        require(isinstance(loaded, dict), config_path, "top level must be an object")
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
    require(isinstance(dim, int) and 1 <= dim <= 6, "box.dim", "dim must be an integer in [1, 6]")
    intervals = doc["box"]["intervals"]
    require(isinstance(intervals, list) and intervals, "box.intervals", "expected a list of pairs")
    if len(intervals) == 1 and dim > 1:
        intervals = intervals * dim
    require(len(intervals) == dim, "box.intervals", f"need {dim} interval pairs")
    pairs = []
    for i, pair in enumerate(intervals):
        path = f"box.intervals[{i}]"
        require(isinstance(pair, (list, tuple)) and len(pair) == 2, path, "expected [lower, upper]")
        ends = (as_number(pair[0], f"{path}[0]"), as_number(pair[1], f"{path}[1]"))
        pairs.append(reported_at(path, HyperBox, (ends,)).intervals[0])
    box = HyperBox(tuple(pairs))

    trip = doc["triplet"]
    b = as_number(trip["b"], "triplet.b")
    sigma = as_number(trip["sigma"], "triplet.sigma")
    # Every parsed measure meets the Levy integrability condition, so sigma is all the triplet can refuse here.
    triplet = reported_at("triplet.sigma", LevyTriplet, b, sigma, parse_measure(trip["measure"], "triplet.measure"))

    gamma = as_number(doc["gamma"], "gamma")
    reported_at("gamma", existence_verdict, box.dim, gamma, triplet)
    noise = reported_at("eps", NoiseLaw, box, triplet, as_number(doc["eps"], "eps"))
    noise = reported_at("small_jump_policy", replace, noise, policy=doc["small_jump_policy"])

    cut = doc["cutoff"]
    require(isinstance(cut, dict), "cutoff", "expected an object")
    require(len(cut) == 1 and set(cut) <= {"count", "threshold"}, "cutoff", "give exactly one of count or threshold")
    if "threshold" in cut:
        thr = as_number(cut["threshold"], "cutoff.threshold")
        require(thr > 0.0, "cutoff.threshold", "threshold must be > 0")
        cutoff = ("threshold", thr)
    else:
        cutoff = ("count", float(as_int(cut["count"], "cutoff.count")))

    seed = doc["seed"]
    if seed is not None:
        # The streams key on 64 bits, so a larger seed would alias a smaller one.
        require(as_int(seed, "seed", least=0) < 1 << 64, "seed", "expected an integer below 2^64")

    workers = as_int(doc["workers"], "workers")

    outdir = doc["outdir"]
    require(isinstance(outdir, str) and outdir, "outdir", "outdir must be a non-empty string")

    blocks = {
        name: copy.deepcopy(doc[name])
        for name in ("cf", "isometry", "weak", "sobolev", "continuity", "spectral_bound", "solve", "green_oracle")
    }
    _validate_blocks(blocks, noise)
    # Parsed at load against the run's box, so every subcommand refuses a bad descriptor.
    for name, key in (("cf", "f"), ("isometry", "f"), ("weak", "phi")):
        blocks[name][key] = parse_function(blocks[name][key], box, f"{name}.{key}")
    # The weak test's Gauss rule cannot resolve the jump of an indicator at its faces.
    continuous = not isinstance(blocks["weak"]["phi"], Indicator)
    require(continuous, "weak.phi", "phi must be continuous on the box, not an indicator")

    return RunConfig(
        noise=noise,
        gamma=gamma,
        cutoff=cutoff,
        seed=seed,
        outdir=outdir,
        workers=workers,
        blocks=blocks,
    )


def _validate_blocks(blocks: dict, noise: NoiseLaw) -> None:
    cf = blocks["cf"]
    as_int(cf["M"], "cf.M")
    as_list(cf["u_grid"], "cf.u_grid", as_number)

    iso = blocks["isometry"]
    as_int(iso["M"], "isometry.M")
    as_number(iso["band_high"], "isometry.band_high")

    as_int(blocks["weak"]["replicates"], "weak.replicates")

    sob = blocks["sobolev"]
    reported_at("sobolev.r_list", check_r_list, as_list(sob["r_list"], "sobolev.r_list", as_number))
    reported_at("sobolev.K_list", check_k_list, as_list(sob["K_list"], "sobolev.K_list", as_int))
    as_int(sob["replicates"], "sobolev.replicates")
    require(isinstance(sob["surrogate"], bool), "sobolev.surrogate", "expected a boolean")
    # The sweep's own law: the run's with the sweep's eps in place of the run's.
    sob["law"] = reported_at("sobolev.eps", replace, noise, eps=as_number(sob.pop("eps"), "sobolev.eps"))

    cont = blocks["continuity"]
    levels = as_list(cont["grid_levels"], "continuity.grid_levels", as_int)
    reported_at("continuity.grid_levels", check_grid_levels, levels)
    as_int(cont["replicates"], "continuity.replicates")

    sb = blocks["spectral_bound"]
    reported_at("spectral_bound.t_list", check_t_list, as_list(sb["t_list"], "spectral_bound.t_list", as_number))
    as_int(sb["x_count"], "spectral_bound.x_count")

    as_int(blocks["solve"]["grid_points"], "solve.grid_points", least=2)
    go = blocks["green_oracle"]
    as_int(go["grid_points"], "green_oracle.grid_points", least=2)
    tol = as_number(go["tolerance"], "green_oracle.tolerance")
    require(tol > 0.0, "green_oracle.tolerance", "tolerance must be > 0")
