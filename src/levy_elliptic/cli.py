"""Command line entry point.

Subcommands: check, sample-noise, solve, verify {cf,isometry,weak,
spectral-bound}, sweep {sobolev,continuity}, green-oracle.  Configuration
comes from one JSON file plus ``--set key=value`` overrides; stochastic
subcommands require a seed.  The config's box, triplet, eps and
small-jump policy make one ``noise.NoiseLaw``, which every stochastic
subcommand draws from.  Every file is written here, not in ``noise``:
``sample-noise``'s manifest.json holds the law and seed under the
config's keys, so ``--config manifest.json`` redraws its atoms.csv.
Exit codes: 0 all good, 1 a non-inconclusive
verification failed, 2 config error, refused regime or invalid request.
Exit 2 covers a key the config does not hold (in the file or ``--set``) or a
non-object where it holds an object, a Sobolev ``K_list`` of fewer than
three cutoffs or with a cutoff that is not twice the one before (so two
cutoffs are refused: the sweep fits a slope over the doublings), a sweep
whose law has nothing random (no Gaussian part and no jumps above its eps;
a surrogate Sobolev sweep draws nothing and runs), an eps outside (0, 1]
or an unknown small-jump policy, a box whose volume underflows to 0 or
overflows the doubles, an indicator ``weak.phi`` (the weak test's Gauss
rule cannot resolve its jump),
a grid over ``domain.MAX_GRID_VALUES`` in ``solve``, ``sweep continuity`` or
``green-oracle`` or as a tensor Gauss rule (``verify cf`` with an
eigen-expansion at d = 4, ``verify weak`` at d = 3 and a large K; ``verify
weak`` builds its rule before the solve, so a run outside the regime whose
rule is over a cap is refused with the cap's message), an
``isometry.band_high`` at or below eps in ``verify isometry`` (only there,
so other subcommands run at eps = 1), a draw of the noise over its atom
budget (see ``noise``), a truncation over the mode budget
``domain.MAX_MODES`` (a count above it or a threshold whose Weyl term lies
above it), a dense eigen block over ``domain.MAX_MATRIX_VALUES``
(``green-oracle`` at a large K and grid), a Gauss rule over
``domain.MAX_GAUSS_NODES`` nodes an axis (``verify weak`` at d = 1 past
K = 8168), a ``verify cf`` integrand outside L^2 under a Gaussian part and
one the CF test cannot evaluate.  ``verify cf`` lists no eigen modes, so
its K is unused.  Given one seed,
outputs are byte-identical across runs and worker counts on one machine and
numpy build; another CPU or build may round some values differently, since
numpy picks its SIMD kernels (log, exp, pow, ...) at run time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import _rng
from ._csvio import write_csv
from ._checks import reported_at
from .config import ConfigError, RunConfig, load_config
from .diagnostics import (
    TestReport,
    check_grid_levels,
    check_random_part,
    continuity_probe,
    empirical_cf_test,
    isometry_test,
    run_replicates,
    sobolev_sweep,
    spectral_bound_check,
    weak_identity_test,
)
from .domain import check_grid, enumerate_eigen, tensor_points
from .integrability import existence_verdict, green_kernel_integrability
from .measures import check_band
from .noise import replicate_noise, sample_noise
from .solver import (
    RegimeRefusalError,
    dump_coeffs_csv,
    dump_field_grid_csv,
    green_gamma_eval,
    green_gamma_grid,
    solve_mild,
)


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._=-]+", "_", name)


def emit_report(reports: list[TestReport], outdir: str) -> int:
    """Write reports.jsonl, summary.csv and plot-ready sweep CSVs.

    Returns the runner exit code: 0 iff every non-inconclusive report passed.
    """
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "reports.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in reports)

    rows = [(r.name, r.statistic, r.threshold, r.passed, r.inconclusive) for r in reports]
    header = ["name", "statistic", "threshold", "pass", "inconclusive"]
    write_csv(os.path.join(outdir, "summary.csv"), header, zip(*rows))

    for r in reports:
        if "trajectory" in r.details:
            path = os.path.join(outdir, f"sweep_{_sanitize(r.name)}.csv")
            write_csv(path, ["K", "norm"], zip(*r.details["trajectory"]))
        if "median_sup_norm" in r.details:
            path = os.path.join(outdir, f"levels_{_sanitize(r.name)}.csv")
            keys = ["levels", "median_max_increment", "median_sup_norm"]
            write_csv(path, ["level", *keys[1:]], [r.details[k] for k in keys])

    failed = any(not r.inconclusive and not r.passed for r in reports)
    return 1 if failed else 0


def _system(cfg: RunConfig):
    return enumerate_eigen(cfg.noise.box, **cfg.cutoff)


def _need_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("seed", "this subcommand is stochastic; provide --seed")
    return cfg.seed


def _cmd_check(cfg: RunConfig) -> int:
    """The gate's verdict, the untruncated kernel's integrability and the run's truncation."""
    box, triplet = cfg.noise.box, cfg.noise.triplet
    verdict = existence_verdict(box.dim, cfg.gamma, triplet)
    kernel = green_kernel_integrability(box, cfg.gamma, triplet)
    system = _system(cfg)
    center = 0.5 * (box.lower + box.upper)
    diagonal = green_gamma_eval(system, cfg.gamma, center, center)
    payload = {
        "existence": verdict.to_dict(),
        "kernel_integrability": kernel.to_dict(),
        # The gate alone refuses: the kernel is noise-integrable, yet gamma <= d/4.
        "gate_stricter": kernel.verdict and not verdict.exists,
        "truncation": {
            "modes": len(system),
            "lambda_max": system.lambda_max,
            "diagonal": diagonal.value,
            "diagonal_tail_bound": diagonal.tail_bound,
        },
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_sample_noise(cfg: RunConfig) -> int:
    seed = _need_seed(cfg)
    atoms = sample_noise(cfg.noise, seed).atoms
    os.makedirs(cfg.outdir, exist_ok=True)
    header = [*(f"y_{i+1}" for i in range(cfg.noise.box.dim)), "z"]
    write_csv(os.path.join(cfg.outdir, "atoms.csv"), header, [*atoms.locations.T, atoms.sizes])
    with open(os.path.join(cfg.outdir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({**cfg.noise.to_dict(), "seed": seed}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {atoms.count} atoms to {cfg.outdir}")
    return 0


def _cmd_solve(cfg: RunConfig, override: bool) -> int:
    seed = _need_seed(cfg)
    n, d = cfg.blocks["solve"]["grid_points"], cfg.noise.box.dim
    reported_at("solve.grid_points", check_grid, [n] * d)
    system = _system(cfg)
    realization = sample_noise(cfg.noise, seed)
    field = solve_mild(realization, cfg.gamma, system, override=override)
    os.makedirs(cfg.outdir, exist_ok=True)
    dump_coeffs_csv(field, os.path.join(cfg.outdir, "coefficients.csv"))
    axes = [np.linspace(a, b, n) for a, b in cfg.noise.box.intervals]
    dump_field_grid_csv(field, axes, os.path.join(cfg.outdir, "field.csv"))
    print(f"solved with {len(system)} modes; outputs in {cfg.outdir}")
    return 0


def _cmd_verify(cfg: RunConfig, which: str, override: bool) -> int:
    seed = _need_seed(cfg)
    if which == "cf":
        block = cfg.blocks["cf"]
        reports = [empirical_cf_test(cfg.noise, block["f"], block["u_grid"], block["M"], seed)]
    elif which == "isometry":
        block = cfg.blocks["isometry"]
        reported_at("isometry.band_high", check_band, cfg.noise.eps, block["band_high"])
        reports = [isometry_test(cfg.noise, block["f"], block["M"], seed, band_high=block["band_high"])]
    elif which == "weak":
        block = cfg.blocks["weak"]
        system = _system(cfg)

        def one(i: int) -> TestReport:
            realization = replicate_noise(cfg.noise, seed, i)
            label = f"weak_identity[{i}]"
            return weak_identity_test(realization, block["phi"], cfg.gamma, system, override, label)

        reports = run_replicates(one, block["replicates"], cfg.workers)
    elif which == "spectral-bound":
        block = cfg.blocks["spectral_bound"]
        rng = _rng.stream(seed, _rng.SAMPLE_STREAM)
        # Interior band: near the boundary the counting sum settles only at
        # depths ~ dist^-2, which would swamp the trend fit at desk-scale t.
        box = cfg.noise.box
        unit = 0.25 + 0.5 * rng.random((block["x_count"], box.dim))
        pts = box.lower + unit * box.lengths
        reports = [spectral_bound_check(box, block["t_list"], pts)]
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(which)
    return emit_report(reports, cfg.outdir)


def _cmd_sweep(cfg: RunConfig, which: str, override: bool) -> int:
    seed = _need_seed(cfg)
    if which == "sobolev":
        block = cfg.blocks["sobolev"]
        if not block["surrogate"]:
            reported_at("sobolev.eps", check_random_part, block["law"])
        reports = sobolev_sweep(
            block["law"],
            cfg.gamma,
            block["r_list"],
            block["K_list"],
            block["replicates"],
            seed,
            workers=cfg.workers,
            surrogate=block["surrogate"],
            override=override,
        )
    else:
        block = cfg.blocks["continuity"]
        reported_at("continuity.grid_levels", check_grid_levels, block["grid_levels"], cfg.noise.box.dim)
        reported_at("eps", check_random_part, cfg.noise)
        reports = [
            continuity_probe(
                cfg.noise,
                cfg.gamma,
                block["grid_levels"],
                block["replicates"],
                seed,
                workers=cfg.workers,
                override=override,
            )
        ]
    return emit_report(reports, cfg.outdir)


def _cmd_green_oracle(cfg: RunConfig) -> int:
    if cfg.noise.box.dim != 1 or cfg.gamma != 1.0:
        raise ConfigError("green_oracle", "closed-form oracle needs dim=1 and gamma=1")
    n = cfg.blocks["green_oracle"]["grid_points"]
    reported_at("green_oracle.grid_points", check_grid, [n, n])
    tol = cfg.blocks["green_oracle"]["tolerance"]
    system = _system(cfg)
    (a, b) = cfg.noise.box.intervals[0]
    length = b - a
    # Two interleaved interior grids keep every pair off the diagonal.
    xs = a + (np.arange(1, n + 1) / (n + 1.5)) * length
    ys = a + ((np.arange(1, n + 1) + 0.5) / (n + 1.5)) * length
    spectral = green_gamma_grid(system, 1.0, xs[:, None], ys[:, None])
    exact = (np.minimum.outer(xs, ys) - a) * (b - np.maximum.outer(xs, ys)) / length
    err = np.abs(spectral - exact)

    os.makedirs(cfg.outdir, exist_ok=True)
    write_csv(
        os.path.join(cfg.outdir, "green_oracle.csv"),
        ["x", "y", "spectral", "exact", "abs_error"],
        [*tensor_points([xs, ys]).T, spectral.ravel(), exact.ravel(), err.ravel()],
    )
    max_err = float(err.max())
    print(f"max abs error {max_err:.3e} over {n}x{n} pairs (tolerance {tol:g})")
    return 0 if max_err <= tol else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (repeatable; dotted paths or flat aliases)",
    )
    common.add_argument("--seed", type=int, help="master seed for stochastic subcommands")
    common.add_argument("--workers", type=int, help="replicate parallelism (default 1)")
    common.add_argument("--out", help="output directory (overrides config outdir)")
    common.add_argument(
        "--override",
        action="store_true",
        help="proceed in regimes where no solution exists (divergence studies)",
    )

    parser = argparse.ArgumentParser(
        prog="levy-elliptic",
        description="Simulate and verify noise-driven spectral Dirichlet problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common])
    sub.add_parser("sample-noise", parents=[common])
    sub.add_parser("solve", parents=[common])
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("what", choices=["cf", "isometry", "weak", "spectral-bound"])
    sweep = sub.add_parser("sweep", parents=[common])
    sweep.add_argument("what", choices=["sobolev", "continuity"])
    sub.add_parser("green-oracle", parents=[common])
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(
            args.config, args.set, seed=args.seed, workers=args.workers, outdir=args.out
        )
        if args.command == "check":
            return _cmd_check(cfg)
        if args.command == "sample-noise":
            return _cmd_sample_noise(cfg)
        if args.command == "solve":
            return _cmd_solve(cfg, args.override)
        if args.command == "verify":
            return _cmd_verify(cfg, args.what, args.override)
        if args.command == "sweep":
            return _cmd_sweep(cfg, args.what, args.override)
        if args.command == "green-oracle":
            return _cmd_green_oracle(cfg)
        raise ValueError(args.command)  # pragma: no cover
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RegimeRefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
