"""Run configuration: one JSON document, flat overrides, strict validation.

The tool is driven by a single structured config file so sweep scripts can
compose runs textually.  ``--set key=value`` overrides accept dotted paths
into the document plus a handful of flat aliases (d, K, M, measure, ...)
for the values that change most often.  Input enters the document by one
rule, ``_merge``, applied to the defaults in layers: the file, then the
document the ``--set`` items build, then the ``--seed``, ``--workers`` and
``--out`` flags, the last layer.  Every layer replaces the ``_REPLACED``
objects whole and merges the other objects key by key; an unknown key, or
a non-object where the defaults hold an object, is refused at its path.

This module checks shape, types and keys, and asks each value's owner for
its range: the box, triplet and noise law check themselves when they are
made, ``existence_verdict`` checks gamma, ``_rng.check_seed`` the seed,
``domain.check_cutoff`` the cutoff, and the Monte Carlo sizes, the weak
test's phi and each sweep list go through the validator beside their check
in ``diagnostics``.  An owner's ValueError is reported as a ConfigError at
the value's key path.  Rules that would refuse a valid run of another
subcommand are checked by the subcommand that needs them, in ``cli``: the
grid caps, and the isometry band (eps, band_high], empty at eps = 1.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace

from ._checks import ConfigError, as_int, as_list, as_number, reported_at, require
from ._rng import check_seed
from .diagnostics import check_grid_levels, check_k_list, check_m, check_r_list, check_t_list, check_weak_phi
from .domain import HyperBox, check_cutoff
from .functions import parse_function
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

# Flat --set aliases mapping onto document paths; any other key is its own
# path.  A value may land on several paths (M applies to every block that
# reads an M, and eps to the run and to the Sobolev sweep, which keeps its
# own default of 1).
_ALIASES: dict[str, list[str]] = {
    "d": ["box.dim"],
    "intervals": ["box.intervals"],
    "b": ["triplet.b"],
    "sigma": ["triplet.sigma"],
    "measure": ["triplet.measure"],
    "eps": ["eps", "sobolev.eps"],
    "policy": ["small_jump_policy"],
    "K": ["cutoff.count"],
    "lambda_max": ["cutoff.threshold"],
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
    cutoff: dict  # enumerate_eigen's keyword: {"count": n} or {"lambda_max": t}
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


def _assign(doc: dict, item: str) -> None:
    """Write one ``--set key=value`` item into ``doc``, the nested document of every item."""
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
    for dotted in _ALIASES.get(key, [key]):
        *parents, last = dotted.split(".")
        node = doc
        for part in parents:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[last] = copy.deepcopy(value)


# Objects that every source replaces whole instead of merging key by key: a
# cutoff names one criterion, and a measure or function names its own kind.
_REPLACED = ("cutoff", "triplet.measure", "cf.f", "isometry.f", "weak.phi")


def _merge(base: dict, extra: dict, path: str = "") -> None:
    """Merge one source into ``base`` by the one rule the module docstring gives."""
    for key, value in extra.items():
        here = f"{path}.{key}" if path else key
        require(key in base, here, "unknown key")
        if isinstance(base[key], dict) and here not in _REPLACED:
            require(isinstance(value, dict), here, "expected an object")
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
    """Defaults <- file <- the ``--set`` items' document <- the flags given, each
    merged by ``_merge`` so a later source wins, then validate."""
    doc = copy.deepcopy(DEFAULTS)
    loaded: dict = {}
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
    sets: dict = {}
    for item in overrides:
        _assign(sets, item)
    flags = {"seed": seed, "workers": workers, "outdir": outdir}
    for layer in (loaded, sets, {key: value for key, value in flags.items() if value is not None}):
        _merge(doc, layer)
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
        cutoff = {"lambda_max": as_number(cut["threshold"], "cutoff.threshold")}
    else:
        cutoff = {"count": as_int(cut["count"], "cutoff.count", least=None)}
    (key,) = cut
    reported_at(f"cutoff.{key}", check_cutoff, **cutoff)

    seed = doc["seed"]
    if seed is not None:
        reported_at("seed", check_seed, as_int(seed, "seed", least=None))

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
    reported_at("weak.phi", check_weak_phi, blocks["weak"]["phi"])

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
    reported_at("cf.M", check_m, as_int(cf["M"], "cf.M", least=None))
    as_list(cf["u_grid"], "cf.u_grid", as_number)

    iso = blocks["isometry"]
    reported_at("isometry.M", check_m, as_int(iso["M"], "isometry.M", least=None))
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
