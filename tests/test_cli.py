"""Golden runs of the command line through ``cli.run`` on small configs."""

import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from levy_elliptic import _rng, cli, diagnostics, domain, functions, noise
from levy_elliptic.cli import run
from levy_elliptic.config import load_config
from levy_elliptic.diagnostics import (
    check_grid_levels,
    check_k_list,
    check_m,
    check_r_list,
    check_random_part,
    check_t_list,
    check_weak_phi,
)
from levy_elliptic.domain import HyperBox, box_fourier, check_cutoff, check_grid, enumerate_eigen
from levy_elliptic.functions import AxisPower, Indicator, integral
from levy_elliptic.integrability import existence_verdict
from levy_elliptic.measures import AlphaStable, LevyTriplet, NullMeasure, SymmetricTwoPoint, check_band
from levy_elliptic.noise import NoiseLaw, sample_noise

SOLVE = ["solve", "--set", "d=2", "--set", "eps=0.05", "--set", "K=200", "--set", "grid_points=9"]
WEAK = [
    "verify", "weak", "--set", "d=2", "--set", "eps=0.05", "--set", "K=64",
    "--set", 'weak.phi={"kind":"eigenfunction","index":[1,2]}', "--set", "weak.replicates=2",
]

CF = ["verify", "cf", "--set", "eps=0.05", "--set", "M=2000", "--set", 'cf.f={"kind":"axis_power","exponent":1.0}']
ISOMETRY = ["verify", "isometry", "--set", "eps=0.05", "--set", "M=2000"]
SOBOLEV = ["sweep", "sobolev", "--set", "K_list=1024,2048,4096", "--set", "replicates=4"]
CONTINUITY = ["sweep", "continuity", "--set", "grid_levels=3,4,5", "--set", "replicates=4"]
SAMPLE = ["sample-noise", "--set", "d=2", "--set", "eps=0.05"]
GREEN = ["green-oracle", "--set", "grid_points=8"]
SPECTRAL = ["verify", "spectral-bound", "--set", "t_list=100,300,1000", "--set", "x_count=3"]
REPORTS = {"reports.jsonl", "summary.csv"}


def outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize(
    "argv,files",
    [
        (SOLVE, {"coefficients.csv", "field.csv"}),
        (WEAK, {"reports.jsonl", "summary.csv"}),
        (CF, {"reports.jsonl", "summary.csv"}),
        (ISOMETRY, {"reports.jsonl", "summary.csv"}),
        (SOBOLEV, REPORTS | {f"sweep_sobolev_d=1_gamma=1.0_r={r}_.csv" for r in ("1.0", "1.4", "1.6")}),
        (CONTINUITY, REPORTS | {"levels_continuity_d=1_gamma=1.0_.csv"}),
        (SAMPLE, {"atoms.csv", "manifest.json"}),
        (GREEN, {"green_oracle.csv"}),
        (SPECTRAL, REPORTS),
    ],
)
def test_outputs_repeat_byte_for_byte_across_runs_and_workers(tmp_path, capsys, argv, files):
    runs = []
    for i, workers in enumerate(["1", "1", "2"]):
        outdir = tmp_path / str(i)
        assert run(argv + ["--seed", "5", "--workers", workers, "--out", str(outdir)]) == 0
        runs.append(outputs(outdir))
    assert set(runs[0]) == files
    assert runs[0] == runs[1] == runs[2]


BOX_D2 = ["--set", "d=2", "--set", "intervals=[[0,2],[0,0.5]]"]


def test_sample_noise_writes_the_realization_atoms(tmp_path, capsys):
    # 17 significant digits: every location and size parses back to its double.
    items = ["d=2", "intervals=[[0,2],[0,0.5]]", "measure=twopoint:5,0.5"]
    assert run(["sample-noise", *(f"--set={item}" for item in items), "--seed", "3", "--out", str(tmp_path)]) == 0
    atoms = sample_noise(load_config(None, items).noise, 3).atoms
    with open(tmp_path / "atoms.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y_1", "y_2", "z"] and atoms.count > 0
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back, np.column_stack([atoms.locations, atoms.sizes]))
    assert capsys.readouterr().out == f"wrote {atoms.count} atoms to {tmp_path}\n"


def test_sample_noise_manifest_is_the_law_and_seed_in_config_keys(tmp_path, capsys):
    argv = ["--set", "b=0.1", "--set", "sigma=0.2", "--set", "measure=vgamma:1,2", "--set", "eps=0.3"]
    assert run(["sample-noise", *argv, "--set", "policy=drop", "--seed", "77", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "manifest.json").read_text()
    assert text.startswith('{\n  "box": {\n    "dim": 1,') and text.endswith("}\n")
    assert json.loads(text) == {
        "box": {"dim": 1, "intervals": [[0.0, 1.0]]},
        "triplet": {"b": 0.1, "sigma": 0.2, "measure": {"kind": "variance_gamma", "c": 1.0, "m": 2.0}},
        "eps": 0.3,
        "small_jump_policy": "drop",
        "seed": 77,
    }


@pytest.mark.parametrize(
    "law",
    [
        BOX_D2,
        ["--set", "measure=alpha:1.5"],
        ["--set", "measure=vgamma:1,1", "--set", "sigma=0.5", "--set", "policy=drop"],
        ["--set", "measure=twopoint:5,0.5", "--set", "b=-0.25", "--set", "eps=0.2"],
        ["--set", "measure=null", "--set", "d=3"],
    ],
)
def test_sample_noise_manifest_redraws_its_files_as_config(tmp_path, capsys, law):
    assert run(["sample-noise", *law, "--seed", "3", "--out", str(tmp_path / "a")]) == 0
    redraw = ["sample-noise", "--config", str(tmp_path / "a" / "manifest.json"), "--out", str(tmp_path / "b")]
    assert run(redraw) == 0
    assert outputs(tmp_path / "a") == outputs(tmp_path / "b")


def test_other_seed_changes_the_solution(tmp_path, capsys):
    for seed in ("5", "6"):
        assert run(SOLVE + ["--seed", seed, "--out", str(tmp_path / seed)]) == 0
    assert outputs(tmp_path / "5") != outputs(tmp_path / "6")


D2 = ["--set", "d=2"]


@pytest.mark.parametrize(
    "argv,d,gamma",
    [
        (SOLVE, "2", "0.4"),
        (SOBOLEV + D2, "2", "0.4"),
        (CONTINUITY + D2, "2", "0.4"),
        (SOBOLEV, "1", "0.2"),
        (CONTINUITY, "1", "0.2"),
    ],
)
def test_refused_regime_exits_2(tmp_path, capsys, argv, d, gamma):
    # A mild solution exists iff gamma > d/4; gamma = 0.4 is refused only at d = 2.
    outdir = tmp_path / "out"
    assert run(argv + ["--set", f"gamma={gamma}", "--seed", "5", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and f"d={d}, gamma={gamma}" in err
    assert not outdir.exists()


OVERRIDDEN = ["--set", "gamma=0.2", "--seed", "1"]  # at d = 1 no mild solution exists for gamma <= 1/4


def test_solve_runs_where_no_solution_exists_only_under_override(tmp_path, capsys):
    assert run(["solve", *OVERRIDDEN, "--out", str(tmp_path / "refused")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: no mild solution for d=1, gamma=0.2; pass --override") and err.count("\n") == 1
    assert not (tmp_path / "refused").exists()
    assert run(["solve", *OVERRIDDEN, "--override", "--out", str(tmp_path / "out")]) == 0
    assert set(outputs(tmp_path / "out")) == {"coefficients.csv", "field.csv"}


def test_overridden_surrogate_sweep_reads_every_order_divergent(tmp_path, capsys):
    # r_max = 2 gamma - d/2 = -0.1; the surrogate draws nothing, so no seed matters.
    outdir = tmp_path / "out"
    assert run(["sweep", "sobolev", "--override", "--set", "surrogate=true", *OVERRIDDEN, "--out", str(outdir)]) == 0
    with open(outdir / "reports.jsonl", encoding="utf-8") as fh:
        details = [json.loads(line)["details"] for line in fh]
    assert [(d["predicted"], d["classification"]) for d in details] == [("divergent", "divergent")] * 3


def test_d2_sobolev_sweep_repeats_byte_for_byte_across_workers(tmp_path, capsys, monkeypatch):
    # Blocks of a few hundred modes, so each replicate walks several of its dense grid.
    monkeypatch.setattr(domain, "BLOCK_MODES", 256)
    runs = []
    for workers in ("1", "2", "3"):
        outdir = tmp_path / workers
        assert run(SOBOLEV + D2 + ["--seed", "5", "--workers", workers, "--out", str(outdir)]) == 0
        runs.append(outputs(outdir))
    assert "sweep_sobolev_d=2_gamma=1.0_r=1.6_.csv" in runs[0]
    assert runs[0] == runs[1] == runs[2]


def test_d1_sobolev_sweep_on_more_workers_than_cores_repeats_byte_for_byte(tmp_path, capsys, monkeypatch):
    # Each worker thread reuses its block arrays across replicates: 12 replicates
    # on 4 threads that switch often must read what one thread reads alone.
    monkeypatch.setattr(domain, "BLOCK_MODES", 256)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = []
        for workers in ("1", "4"):
            outdir = tmp_path / workers
            argv = [*SOBOLEV, "--set", "replicates=12", "--seed", "5", "--workers", workers, "--out", str(outdir)]
            assert run(argv) == 0
            runs.append(outputs(outdir))
    finally:
        sys.setswitchinterval(interval)
    assert "sweep_sobolev_d=1_gamma=1.0_r=1.6_.csv" in runs[0]
    assert runs[0] == runs[1]


# sigma = 0 and nu = 0: no random part, and gamma = 0.2 lies below the white-noise threshold d/4.
DETERMINISTIC = ["--set", "measure=null", "--set", "gamma=0.2"]


def test_check_reads_a_law_without_a_random_part_as_solvable(capsys):
    assert run(["check", *DETERMINISTIC, "--set", "b=1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["existence"]["exists"] is True and payload["existence"]["continuous"] is True
    assert payload["existence"]["r_max"] == 2 * 0.2 + 0.5
    assert payload["gate_stricter"] is False


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_solve_without_a_random_part_is_the_drift_through_the_inverse(tmp_path, capsys, b):
    # u = b (-Laplace)^(-gamma) 1, coefficient by coefficient.
    assert run(["solve", *DETERMINISTIC, "--set", f"b={b}", "--seed", "1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "coefficients.csv", newline="") as fh:
        a_k = np.array([float(row["a_k"]) for row in csv.DictReader(fh)])
    system = enumerate_eigen(HyperBox.unit(1), count=len(a_k))
    assert np.array_equal(a_k, b * box_fourier(system) / system.lams**0.2)


def test_overridden_weak_identity_passes(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert run(["verify", "weak", "--override", "--set", "weak.replicates=1", *OVERRIDDEN, "--out", str(outdir)]) == 0
    with open(outdir / "reports.jsonl", encoding="utf-8") as fh:
        (report,) = [json.loads(line) for line in fh]
    assert report["pass"] and not report["inconclusive"]


@pytest.mark.parametrize(
    "text,argv,err",
    [
        (None, ["check", "--set", "sobolev.K_lst=1,2"], "config error at sobolev.K_lst: unknown key"),
        (None, ["check", "--set", "foo.bar=1"], "config error at foo: unknown key"),
        (None, ["check", "--set", "K"], "config error at K: override must look like key=value"),
        (None, ["check", "--set", "cf=3"], "config error at cf: expected an object"),
        ('{"cf": 3}', ["check", "--config", "{config}"], "config error at cf: expected an object"),
        ('{"weak": null}', ["check", "--config", "{config}"], "config error at weak: expected an object"),
        ('{"gamma": 1', ["check", "--config", "{config}"],
         "config error at {config}:1:12: invalid JSON (Expecting ',' delimiter)"),
        (None, ["check", "--config", "{config}"], "config error at {config}: config file not found"),
        (None, ["green-oracle", "--set", "d=2"], "config error at green_oracle: closed-form oracle needs dim=1 and gamma=1"),
        (None, ["green-oracle", "--set", "gamma=0.5"],
         "config error at green_oracle: closed-form oracle needs dim=1 and gamma=1"),
    ],
)
def test_bad_config_input_exits_2_in_one_line(tmp_path, capsys, text, argv, err):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    assert run([arg.format(config=config) for arg in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == err.format(config=config) + "\n"
    assert not (tmp_path / "out").exists()


def test_oversized_solve_grid_is_refused_before_solving(tmp_path, capsys):
    # 33^6 rows at the default grid_points would be about 1.3e9 CSV rows.
    outdir = tmp_path / "out"
    assert run(["solve", "--set", "d=6", "--seed", "5", "--out", str(outdir)]) == 2
    assert "solve.grid_points" in capsys.readouterr().err
    assert not outdir.exists()


def test_oversized_green_oracle_grid_is_refused_before_allocating(tmp_path, capsys, monkeypatch):
    # 1449^2 pairs are just over the cap of 2^21; the dense tables once took 1.1 GB there.
    monkeypatch.setattr(cli, "enumerate_eigen", lambda *a, **k: pytest.fail("eigen system built"))
    monkeypatch.setattr(cli, "green_gamma_grid", lambda *a, **k: pytest.fail("kernel tabulated"))
    outdir = tmp_path / "out"
    assert run(["green-oracle", "--set", "grid_points=1449", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "green_oracle.grid_points" in err and "exceeds the cap of 2097152" in err
    assert not outdir.exists()


def test_oversized_green_oracle_block_is_refused_before_allocating(tmp_path, capsys, monkeypatch):
    # 2^18 modes against 1448 points: the first block of the listing, 2^14 modes,
    # makes two dense block x points matrices of 190 MB each.
    first = domain.listing_blocks(enumerate_eigen(HyperBox.unit(1), count=262144))[0]
    assert (first.stop - first.start) * 1448 > domain.MAX_MATRIX_VALUES
    monkeypatch.setattr(domain, "_sine_table", lambda *a: pytest.fail("sine table built"))
    outdir = tmp_path / "out"
    assert run(["green-oracle", "--set", "K=262144", "--set", "grid_points=1448", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid request: ") and f"{first.stop - first.start} x 1448" in err
    assert "MAX_MATRIX_VALUES=16777216" in err
    assert not outdir.exists()


def test_oversized_gauss_rule_is_refused_before_leggauss(tmp_path, capsys, monkeypatch):
    # K=16384 at d=1 resolves on 32816 nodes; leggauss would take 8 GiB for them.
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: pytest.fail(f"leggauss({n}) called"))
    outdir = tmp_path / "out"
    argv = ["verify", "weak", "--set", "d=1", "--set", "K=16384", "--set", "weak.replicates=1", "--seed", "1"]
    assert run(argv + ["--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid request: ") and "32816 Gauss nodes" in err and "MAX_GAUSS_NODES=16384" in err
    assert not outdir.exists()


@pytest.mark.parametrize("levels,d", [("4,5,6", 4), ("4,5,1000000000", 1)])
def test_oversized_continuity_grid_is_refused_before_sampling(tmp_path, capsys, levels, d):
    # (2^6 + 1)^4 = 1.8e7 values, over the cap of 2^21; a huge level is refused as fast.
    outdir = tmp_path / "out"
    argv = ["sweep", "continuity", "--set", f"d={d}", "--set", "gamma=3", "--set", f"grid_levels={levels}"]
    assert run(argv + ["--seed", "5", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "continuity.grid_levels" in err and "exceeds the cap of 2097152" in err
    assert not outdir.exists()


@pytest.mark.parametrize("side", ["1e200", "1e-200"])
def test_box_with_eigenvalues_outside_the_doubles_exits_2_in_one_line(capsys, side):
    # [0, 1e200] once looped forever and [0, 1e-200] died with an OverflowError.
    assert run(["check", "--set", f"intervals=[[0,{side}]]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid request: the first eigenvalue of the box") and err.count("\n") == 1


@pytest.mark.parametrize("side,value", [("1e80", "inf"), ("1e-81", "0")])
def test_box_with_a_volume_outside_the_doubles_exits_2_in_one_line(capsys, side, value):
    # (1e80)^4 once ran past numpy's overflow warning; (1e-81)^4 died in a math domain error.
    argv = ["check", "--set", "d=4", "--set", f"intervals=[[0,{side}]]", "--set", "lambda_max=1e170"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid request: the volume of the box") and f" is {value}, outside" in err
    assert err.count("\n") == 1


def test_seed_above_64_bits_exits_2(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert run(["sample-noise", "--seed", str((1 << 64) + 5), "--out", str(outdir)]) == 2
    assert capsys.readouterr().err == f"config error at seed: seed must be an integer in [0, 2^64), got {(1 << 64) + 5}\n"
    assert not outdir.exists()


@pytest.mark.parametrize(
    "item,path",
    [
        ("K_list=1024,3000", "sobolev.K_list"),
        ("t_list=300,100", "spectral_bound.t_list"),
        ("grid_levels=0,1,2", "continuity.grid_levels[0]"),
    ],
)
def test_config_value_out_of_range_exits_2_at_its_path(capsys, item, path):
    assert run(["check", "--set", item]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,path",
    [
        (["sweep", "continuity", "--set", "grid_levels=5,5,5"], "continuity.grid_levels"),
        (["sweep", "sobolev", "--set", "r_list=1.0,1.0"], "sobolev.r_list"),
    ],
)
def test_repeated_sweep_entries_exit_2_before_any_output(tmp_path, capsys, argv, path):
    outdir = tmp_path / "out"
    assert run(argv + ["--seed", "5", "--out", str(outdir)]) == 2
    assert f"config error at {path}: " in capsys.readouterr().err
    assert not outdir.exists()


def test_unsorted_grid_levels_still_run(tmp_path):
    argv = ["sweep", "continuity", "--set", "grid_levels=5,3,4", "--set", "replicates=4"]
    assert run(argv + ["--seed", "5", "--out", str(tmp_path / "out")]) == 0


@pytest.fixture
def no_atom_draws(monkeypatch):
    """Fail at the first atom draw, so a budget that stops refusing fails the
    test instead of allocating about 16 GB."""
    for name in ("sample_jump_sizes", "uniform_locations"):
        monkeypatch.setattr(noise, name, lambda *a, **k: pytest.fail("atoms drawn past the budget"))


@pytest.mark.parametrize("argv", [CF, ISOMETRY])
def test_batch_over_the_atom_budget_is_refused(tmp_path, capsys, no_atom_draws, argv):
    # eps = 1e-6 gives 1e9 stable atoms a replicate, over BATCH_ATOMS = 2^20.
    outdir = tmp_path / "out"
    assert run(argv + ["--set", "eps=1e-6", "--seed", "5", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "eps=1e-06" in err and "BATCH_ATOMS=1048576" in err
    assert not outdir.exists()


def test_cf_check_of_an_integrand_outside_l2_with_a_gaussian_part_exits_2(tmp_path, capsys):
    # sigma = 0, but the gaussianized small jumps give the law a Gaussian part,
    # whose pairing with x^-0.6 has a variance growing with K.
    argv = ["verify", "cf", "--set", "sigma=0", "--set", "measure=alpha:1.5", "--set", "eps=0.1", "--set", "K=64"]
    argv += ["--set", "M=2000", "--set", 'cf.f={"kind":"axis_power","axis":0,"exponent":-0.6}']
    outdir = tmp_path / "out"
    assert run(argv + ["--seed", "3", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err == "invalid request: integrand is not square integrable and the law has a Gaussian part\n"
    assert not outdir.exists()


E_300 = 'cf.f={"kind":"eigenfunction","index":[300]}'


def test_cf_check_of_an_eigenfunction_outside_the_listing_with_a_gaussian_part_runs(tmp_path):
    # The gaussianized small jumps give the law a Gaussian part, whose variance
    # reads int e_300^2 = 1, not the K = 256 listing, which lacks e_300.
    argv = ["verify", "cf", "--set", E_300, "--set", "M=20000", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0


def test_cf_reports_do_not_depend_on_k(tmp_path):
    # The Gaussian part's variance (sigma and the gaussianized small jumps)
    # reads int f^2 in closed form; a 16-mode Parseval sum of the constant misses 2.5 %.
    reports = []
    for k in (16, 4096):
        outdir = tmp_path / f"k{k}"
        argv = ["verify", "cf", "--set", "sigma=1", "--set", "M=2000", "--set", f"K={k}", "--seed", "3"]
        assert run(argv + ["--out", str(outdir)]) == 0
        reports.append(outputs(outdir))
    assert reports[0] == reports[1]


def test_cf_check_lists_no_modes(tmp_path, monkeypatch):
    # Every module's binding of the two names fails if called.
    for name, owner in (("enumerate_eigen", domain), ("fourier_vector", functions)):
        target = getattr(owner, name)
        for module in [m for n, m in sys.modules.items() if n.startswith("levy_elliptic")]:
            if getattr(module, name, None) is target:
                monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    for f in (E_300, 'cf.f={"kind":"polynomial","coeffs":[1,-2,3]}'):
        argv = ["verify", "cf", "--set", "sigma=1", "--set", f, "--set", "M=2000", "--seed", "1"]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 0


def test_cf_check_of_an_eigenfunction_outside_the_listing_without_a_gaussian_part_runs(tmp_path):
    argv = ["verify", "cf", "--set", "policy=drop", "--set", E_300, "--set", "M=1000", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0


SMALL_SOBOLEV = ["sweep", "sobolev", "--set", "K_list=512,1024,2048", "--set", "replicates=2"]


@pytest.mark.parametrize(
    "argv", [["solve"], ["sample-noise"], ["verify", "weak"], ["sweep", "continuity"], SMALL_SOBOLEV]
)
def test_realization_over_the_atom_budget_is_refused(tmp_path, capsys, no_atom_draws, argv):
    # One realization at eps = 1e-6 would hold about 1e9 atoms, some 16 GB.
    outdir = tmp_path / "out"
    start = time.monotonic()
    assert run(argv + ["--set", "eps=1e-6", "--seed", "5", "--out", str(outdir)]) == 2
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("invalid request: eps=1e-06") and "BATCH_ATOMS=1048576" in err
    assert not outdir.exists()


def test_missing_seed_is_a_config_error(tmp_path, capsys):
    assert run(SOLVE + ["--out", str(tmp_path / "out")]) == 2
    assert "seed" in capsys.readouterr().err


def test_sweep_summary_rows_parse_to_the_header_width(tmp_path, capsys):
    # Report names such as sobolev[d=1,gamma=1.0,r=1.4] hold commas.
    outdir = tmp_path / "out"
    assert run(["sweep", "sobolev", "--set", "surrogate=true", "--seed", "5", "--out", str(outdir)]) == 0
    with open(outdir / "summary.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["name", "statistic", "threshold", "pass", "inconclusive"]
    assert len(rows) == 3 and all(len(row) == len(header) for row in rows)
    by_name = {row[0]: dict(zip(header, row)) for row in rows}
    # r = 1.4 sits just below r_max = 1.5, and the slope over every doubling still reads it convergent.
    assert by_name["sobolev[d=1,gamma=1.0,r=1.4]"]["inconclusive"] == "false"
    assert by_name["sobolev[d=1,gamma=1.0,r=1.4]"]["pass"] == "true"
    assert by_name["sobolev[d=1,gamma=1.0,r=1.0]"]["inconclusive"] == "false"


def sobolev_details(outdir: Path) -> list[dict]:
    with open(outdir / "reports.jsonl", encoding="utf-8") as fh:
        return [json.loads(line)["details"] for line in fh]


@pytest.mark.parametrize("seed", ["7", "101"])
def test_small_sobolev_sweep_passes_at_more_seeds_than_its_golden(tmp_path, capsys, seed):
    # The last-doubling bands once read r = 1.4 divergent here (relative increment 0.038 at seed 7).
    assert run(SOBOLEV + ["--seed", seed, "--out", str(tmp_path / "out")]) == 0
    assert [d["classification"] for d in sobolev_details(tmp_path / "out")] == ["convergent", "convergent", "divergent"]


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_default_sobolev_sweep_reads_every_order_on_its_side(tmp_path, capsys, seed):
    # r = 1.4, just under r_max = 1.5, was inconclusive on every seed under the last-doubling bands.
    assert run(["sweep", "sobolev", "--workers", "2", "--seed", seed, "--out", str(tmp_path / "out")]) == 0
    details = sobolev_details(tmp_path / "out")
    assert [d["classification"] for d in details] == ["convergent", "convergent", "divergent"]
    for d in details:
        lo, hi = d["interval"]
        assert lo <= 2.0 * (d["r"] - 1.5) <= hi and abs(d["r_max_hat"] - 1.5) < 0.01


def test_a_sobolev_prediction_from_a_wrong_gamma_fails(tmp_path, capsys, monkeypatch):
    # Planted defect: predicting with gamma + 0.1 moves r_max to 1.7, so r = 1.6 is predicted convergent.
    gate = diagnostics.refuse_outside_regime
    monkeypatch.setattr(diagnostics, "refuse_outside_regime", lambda d, gamma, *a: gate(d, gamma + 0.1, *a))
    assert run(["sweep", "sobolev", "--workers", "2", "--seed", "1", "--out", str(tmp_path / "out")]) == 1
    last = sobolev_details(tmp_path / "out")[-1]
    assert (last["r"], last["predicted"], last["classification"]) == (1.6, "convergent", "divergent")


def test_failed_check_exits_1(tmp_path, capsys):
    # Four modes leave a Green-kernel error of about 1.9e-2 against the 1e-3 tolerance.
    outdir = tmp_path / "out"
    assert run(["green-oracle", "--set", "K=4", "--out", str(outdir)]) == 1
    assert "tolerance 0.001" in capsys.readouterr().out
    assert (outdir / "green_oracle.csv").exists()


@pytest.mark.parametrize(
    "measure,path",
    [
        ({"kind": "alpha_stable", "alpha": 1.5, "beta": 3}, "triplet.measure.beta"),
        ({"kind": "alpha_stable", "alpha": True}, "triplet.measure.alpha"),
        ({"kind": "alpha_stable"}, "triplet.measure.alpha"),
    ],
)
def test_bad_measure_object_exits_2_at_its_path(tmp_path, capsys, measure, path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"triplet": {"measure": measure}}))
    assert run(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,path",
    [
        (["verify", "cf", "--set", 'cf.f={"kind":"constant","valu":2.0}'], "cf.f.valu"),
        (["verify", "isometry", "--set", 'isometry.f={"kind":"constant","valu":2.0}'], "isometry.f.valu"),
        (["verify", "weak", "--set", 'weak.phi={"kind":"eigenfunction","index":[1],"box":1}'], "weak.phi.box"),
    ],
)
def test_unknown_function_key_exits_2_at_its_path(tmp_path, capsys, argv, path):
    assert run(argv + ["--seed", "1", "--out", str(tmp_path / "out")]) == 2
    assert f"config error at {path}: unknown key" in capsys.readouterr().err


def test_removed_psi_quadrature_key_is_refused(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cf": {"psi_quadrature": True}}))
    assert run(CF + ["--config", str(config), "--seed", "5", "--out", str(tmp_path / "out")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_eps_alias_reaches_the_sobolev_sweep(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert run(SMALL_SOBOLEV + ["--set", "eps=0.5", "--seed", "5", "--out", str(outdir)]) in (0, 1)
    with open(outdir / "reports.jsonl", encoding="utf-8") as fh:
        assert [json.loads(line)["details"]["eps"] for line in fh] == [0.5, 0.5, 0.5]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_gaussian_only_sobolev_sweep_classifies_both_sides(tmp_path, capsys, seed):
    # White noise with sigma = 1 and no jumps; at d=1, gamma=1 the ceiling is r = 1.5.
    outdir = tmp_path / "out"
    argv = [
        "sweep", "sobolev", "--set", "measure=null", "--set", "sigma=1", "--set", "r_list=1.0,1.6",
        "--set", "K_list=4096,8192,16384", "--set", "replicates=8",
    ]
    assert run(argv + ["--seed", str(seed), "--out", str(outdir)]) == 0
    with open(outdir / "reports.jsonl", encoding="utf-8") as fh:
        details = [json.loads(line)["details"] for line in fh]
    assert [d["classification"] for d in details] == ["convergent", "divergent"]


def test_noise_without_jumps_is_predicted_continuous_where_the_solution_exists(tmp_path, capsys):
    # Gaussian noise at d=2, gamma=0.8: the solution exists (gamma > d/4) and is
    # continuous, though gamma <= d/2; the probe once predicted blowup here.
    outdir = tmp_path / "out"
    argv = [
        "sweep", "continuity", "--set", "d=2", "--set", "gamma=0.8", "--set", "sigma=1",
        "--set", "measure=null", "--set", "grid_levels=4,5,6", "--workers", "2", "--seed", "7",
    ]
    assert run(argv + ["--out", str(outdir)]) == 0
    with open(outdir / "reports.jsonl", encoding="utf-8") as fh:
        (report,) = [json.loads(line) for line in fh]
    assert report["details"]["predicted"] == report["details"]["classification"] == "continuous-consistent"


def test_cf_test_on_a_singular_integrand_runs_without_value_quadrature(tmp_path, capsys):
    # The integrability check once integrated the variance-gamma jump term of
    # x^-0.5 on the d=2 box and stalled; the verdict now needs no integral.
    # The small jumps are dropped, below an eps at which the law hardly moves:
    # gaussianized, they would give the law a Gaussian part, which refuses an
    # integrand outside L^2.
    argv = [
        "verify", "cf", "--set", "d=2", "--set", "eps=0.05", "--set", "M=1000", "--set", "measure=vgamma:1,1",
        "--set", "policy=drop", "--set", 'cf.f={"kind":"axis_power","exponent":-0.5}', "--seed", "5",
    ]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0


def test_cf_integrand_that_overflows_at_the_nodes_exits_2_in_one_line(tmp_path, capsys):
    # x^-400 passes the integrability verdict but is inf at 17 of the 64 nodes.
    argv = CF + ["--set", 'cf.f={"kind":"axis_power","exponent":-400}', "--set", "measure=vgamma:1,1", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "invalid request: integrand is not finite at 17 of the 64 Gauss nodes of the CF test; CF test undefined"
    ]


AXIS_POWER_PHI = 'weak.phi={"kind":"axis_power","axis":0,"exponent":-0.3}'


def test_variance_gamma_cf_at_a_tiny_eps_finishes(tmp_path):
    # At eps = 1e-6 the one-piece tail rejection kept about one proposal in 7e4.
    argv = ["verify", "cf", "--set", "measure=vgamma:1,1", "--set", "eps=1e-6", "--set", "M=1000", "--seed", "3"]
    start = time.monotonic()
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize(
    "argv",
    [
        # The quadrature fallback of <f, e_k> on 338^2 Gauss nodes took minutes on the dense kernel.
        ["verify", "weak", "--set", "d=2", "--set", "K=16384", "--set", AXIS_POWER_PHI, "--set", "weak.replicates=1"],
        ["verify", "weak", "--set", "d=3", "--set", "K=512", "--set", "weak.replicates=1"],
    ],
)
def test_quadrature_on_a_large_tensor_grid_finishes(tmp_path, argv):
    start = time.monotonic()
    assert run(argv + ["--seed", "3", "--out", str(tmp_path / "out")]) == 0
    assert time.monotonic() - start < 5.0


def check_payload(argv, capsys) -> dict:
    assert run(["check", *argv]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "argv",
    [["--set", "d=1", "--set", "gamma=0.2", "--set", "sigma=1"], ["--set", "d=1", "--set", "gamma=0.1"]],
)
def test_check_says_no_when_the_kernel_is_not_integrable(capsys, argv):
    payload = check_payload(argv, capsys)
    assert payload["kernel_integrability"]["verdict"] is False
    assert payload["existence"]["exists"] is False and payload["gate_stricter"] is False


def test_check_flags_where_the_gate_is_stricter(capsys):
    # Pure alpha = 1.5 jumps need |x - c|^(2 gamma - 1) in L^1.5: gamma > 1/6, below d/4.
    payload = check_payload(["--set", "d=1", "--set", "gamma=0.2"], capsys)
    assert payload["kernel_integrability"] == {"exponents": [1.5], "verdict": True}
    assert payload["existence"]["exists"] is False and payload["gate_stricter"] is True


def test_check_reports_the_truncation(capsys):
    payload = check_payload(["--set", "K=64"], capsys)
    truncation = payload["truncation"]
    assert truncation["modes"] == 64 and truncation["lambda_max"] == pytest.approx((64 * math.pi) ** 2)
    # G_1(1/2, 1/2) = 1/4 on the unit interval, inside the reported tail bound.
    assert abs(truncation["diagonal"] - 0.25) <= truncation["diagonal_tail_bound"]
    truncation = check_payload(["--set", "d=2", "--set", "K=64"], capsys)["truncation"]
    assert truncation["diagonal_tail_bound"] == math.inf


def test_check_decides_a_large_truncation_quickly(capsys):
    start = time.perf_counter()
    payload = check_payload(["--set", "d=3", "--set", "K=131072"], capsys)
    assert time.perf_counter() - start < 5.0
    assert payload["truncation"]["modes"] == 131072 and payload["kernel_integrability"]["verdict"] is True


@pytest.mark.parametrize("cutoff", ["K=4194305", "lambda_max=1e15"])
def test_a_truncation_over_the_mode_budget_exits_2_before_enumerating(capsys, monkeypatch, cutoff):
    monkeypatch.setattr(domain, "_lattice_below", lambda *a: pytest.fail("enumerated past the mode budget"))
    assert run(["check", "--set", cutoff]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid request: ") and "mode budget MAX_MODES=4194304" in err


def test_removed_mode_key_is_refused(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "laplacian-green-bound"}))
    assert run(["check", "--config", str(config)]) == 2
    assert "config error at mode: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value,path",
    [
        ('cf.f={"kind":"constant","valu":2}', "cf.f.valu"),
        ('cf.f={"kind":"axis_power","exponent":1,"axis":5}', "cf.f.axis"),
        ('cf.f={"kind":"axis_power","exponent":0.5,"offset":0.5}', "cf.f.offset"),
        ('isometry.f={"kind":"polynomial","coeffs":[1],"axis":1}', "isometry.f.axis"),
        ('isometry.f={"kind":"indicator","boxes":[[[0.5,2]]]}', "isometry.f.boxes[0]"),
        ('weak.phi={"kind":"indicator","boxes":[[[0,0.5],[0,0.5]]]}', "weak.phi.boxes[0]"),
        ('weak.phi={"kind":"nope"}', "weak.phi"),
    ],
)
def test_function_descriptors_are_checked_against_the_box_at_load(tmp_path, capsys, value, path):
    # check never uses these descriptors, so a refusal there comes from loading.
    assert run(["check", "--set", value, "--out", str(tmp_path / "out")]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "d,boxes", [(1, "[[[0.1,0.37]]]"), (2, "[[[0,0.5],[0,0.5]]]"), (2, "[[[0,0.5],[0,1]],[[0.5,1],[0,1]]]")]
)
def test_an_indicator_weak_phi_is_refused_at_load(tmp_path, capsys, monkeypatch, d, boxes):
    # The Gauss rule cannot resolve its jump: the test once failed on a correct solver.
    monkeypatch.setattr(cli, "enumerate_eigen", lambda *a, **k: pytest.fail("eigen system built"))
    outdir = tmp_path / "out"
    argv = ["verify", "weak", "--set", f"d={d}", "--set", f'weak.phi={{"kind":"indicator","boxes":{boxes}}}']
    assert run(argv + ["--seed", "1", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err == "config error at weak.phi: phi must be continuous on the box, not an indicator\n"
    assert not outdir.exists()


@pytest.mark.parametrize("measure", ["null", "twopoint:1,2"])
def test_isometry_without_jumps_on_the_band_is_one_skipped_inconclusive_row(tmp_path, measure):
    # No jump of nu lies in (eps, band_high]: the exact variance is 0 and nothing is sampled.
    outdir = tmp_path / "out"
    assert run(["verify", "isometry", "--set", f"measure={measure}", "--seed", "1", "--out", str(outdir)]) == 0
    (report,) = [json.loads(line) for line in (outdir / "reports.jsonl").read_text().splitlines()]
    assert report["name"] == "isometry_band" and report["inconclusive"] is True
    assert report["statistic"] == 0.0 and report["replicates"] == 0
    assert report["details"]["skipped"] == "zero exact variance on the band"
    with open(outdir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["inconclusive"] == "true" and float(rows[0]["statistic"]) == 0.0


def test_default_weak_phi_loads_at_every_dimension(tmp_path, capsys):
    argv = ["verify", "weak", "--set", "d=2", "--set", "eps=0.05", "--set", "K=64", "--set", "weak.replicates=2"]
    assert run(argv + ["--seed", "5", "--out", str(tmp_path / "out")]) == 0


def scipy_after(code: str) -> list[str]:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    src = str(Path(__import__("levy_elliptic").__file__).resolve().parents[1])
    code += "\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["levy_elliptic", "levy_elliptic.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_after(f"import {module}") == []


def test_default_measure_runs_load_no_scipy(tmp_path):
    runs = [
        argv + ["--seed", "5", "--out", str(tmp_path / str(i))]
        for i, argv in enumerate([SOLVE, CF, ISOMETRY, SOBOLEV])
    ]
    code = f"from levy_elliptic.cli import run\nassert [run(a) for a in {runs!r}] == [0, 0, 0, 0]"
    assert scipy_after(code) == []


def test_variance_gamma_solve_imports_scipy_special_lazily(tmp_path):
    argv = SOLVE + ["--set", "measure=vgamma:1,1", "--seed", "5", "--out", str(tmp_path / "out")]
    loaded = scipy_after(f"from levy_elliptic.cli import run\nassert run({argv!r}) == 0")
    assert "scipy.special" in loaded
    assert (tmp_path / "out" / "coefficients.csv").exists()


OWNER_TRIPLET = LevyTriplet(0.0, 0.0, AlphaStable(1.5))
# Two-point jumps of size 0.5 dropped below eps = 1 (the Sobolev sweep's own eps): nothing random.
NOTHING_RANDOM = ["--set", "measure=twopoint:5,0.5", "--set", "policy=drop"]
NOTHING_LAW = NoiseLaw(HyperBox.unit(1), LevyTriplet(0.0, 0.0, SymmetricTwoPoint(5.0, 0.5)), 1.0, "drop")


@pytest.mark.parametrize(
    "item,path,owner",
    [
        ("intervals=[[1,0]]", "box.intervals[0]", lambda: HyperBox(((1.0, 0.0),))),
        ("sigma=-1", "triplet.sigma", lambda: LevyTriplet(0.0, -1.0, AlphaStable(1.5))),
        ("gamma=-1", "gamma", lambda: existence_verdict(1, -1.0, OWNER_TRIPLET)),
        ("gamma=0", "gamma", lambda: existence_verdict(1, 0.0, OWNER_TRIPLET)),
        ("eps=1.5", "eps", lambda: NoiseLaw(HyperBox.unit(1), OWNER_TRIPLET, 1.5)),
        ("sobolev.eps=0", "sobolev.eps", lambda: NoiseLaw(HyperBox.unit(1), OWNER_TRIPLET, 0.0)),
        ("policy=gaussianise", "small_jump_policy", lambda: NoiseLaw(HyperBox.unit(1), OWNER_TRIPLET, policy="gaussianise")),
        ("K_list=[1024]", "sobolev.K_list", lambda: check_k_list([1024])),
        ("K_list=1024,1024,2048", "sobolev.K_list", lambda: check_k_list([1024, 1024, 2048])),
        ("K_list=1024,3000", "sobolev.K_list", lambda: check_k_list([1024, 3000])),
        ("K_list=1024,2048", "sobolev.K_list", lambda: check_k_list([1024, 2048])),
        ("K_list=1024,2048,3000", "sobolev.K_list", lambda: check_k_list([1024, 2048, 3000])),
        (["sweep", "sobolev", "--set", "K_list=1024,2048", "--seed", "1"], "sobolev.K_list",
         lambda: check_k_list([1024, 2048])),
        ("r_list=1.0,1.0", "sobolev.r_list", lambda: check_r_list([1.0, 1.0])),
        ("grid_levels=4,5", "continuity.grid_levels", lambda: check_grid_levels([4, 5])),
        ("grid_levels=6,4,6", "continuity.grid_levels", lambda: check_grid_levels([6, 4, 6])),
        ("t_list=[100]", "spectral_bound.t_list", lambda: check_t_list([100.0])),
        ("t_list=0,100", "spectral_bound.t_list", lambda: check_t_list([0.0, 100.0])),
        ("t_list=300,100", "spectral_bound.t_list", lambda: check_t_list([300.0, 100.0])),
        ("M=999", "cf.M", lambda: check_m(999)),
        ("isometry.M=0", "isometry.M", lambda: check_m(0)),
        (["verify", "isometry", "--set", "band_high=0.005", "--seed", "1"], "isometry.band_high",
         lambda: check_band(0.01, 0.005)),
        (
            'cf.f={"kind":"axis_power","exponent":-0.3,"offset":0.5}',
            "cf.f.offset",
            lambda: integral(AxisPower(-0.3, 0, 0.5), HyperBox.unit(1)),
        ),
        (
            'weak.phi={"kind":"indicator","boxes":[[[0,0.5]]]}',
            "weak.phi",
            lambda: check_weak_phi(Indicator((HyperBox(((0.0, 0.5),)),))),
        ),
        ("seed=-1", "seed", lambda: _rng.stream(-1, _rng.ATOM_STREAM)),
        (f"seed={2**64 + 5}", "seed", lambda: sample_noise(NoiseLaw(HyperBox.unit(1), OWNER_TRIPLET), 2**64 + 5)),
        ("K=0", "cutoff.count", lambda: check_cutoff(count=0)),
        ("lambda_max=0", "cutoff.threshold", lambda: domain.enumerate_eigen(HyperBox.unit(1), lambda_max=0.0)),
        (["solve", "--set", "d=2", "--set", "grid_points=1449", "--seed", "1"], "solve.grid_points",
         lambda: check_grid([1449, 1449])),
        (["sweep", "continuity", "--set", "d=2", "--set", "grid_levels=4,5,11", "--seed", "1"],
         "continuity.grid_levels", lambda: check_grid_levels([4, 5, 11], 2)),
        (["green-oracle", "--set", "grid_points=1449"], "green_oracle.grid_points", lambda: check_grid([1449, 1449])),
        (["sweep", "sobolev", *NOTHING_RANDOM, "--seed", "1"], "sobolev.eps", lambda: check_random_part(NOTHING_LAW)),
        (["sweep", "sobolev", "--set", "measure=null", "--seed", "1"], "sobolev.eps",
         lambda: check_random_part(NoiseLaw(HyperBox.unit(1), LevyTriplet(0.0, 0.0, NullMeasure()), 1.0))),
        (["sweep", "continuity", *NOTHING_RANDOM, "--set", "eps=1", "--set", "gamma=0.4", "--seed", "1"], "eps",
         lambda: check_random_part(NOTHING_LAW)),
    ],
)
def test_the_cli_refuses_with_the_owners_message(tmp_path, capsys, item, path, owner):
    # A string is a --set item for check, which refuses at load; a list is a whole
    # command line, for the rules that only the command that needs them checks.
    with pytest.raises(ValueError) as exc:
        owner()
    argv = ["check", "--set", item] if isinstance(item, str) else item
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error at {path}: {exc.value}\n"
    assert not (tmp_path / "out").exists()


def test_eps_1_empties_only_the_isometry_band(tmp_path, capsys):
    # The default band (eps, 1] is empty at eps = 1: verify isometry refuses it, the others run.
    assert run(["check", "--set", "eps=1"]) == 0
    assert run(["solve", "--set", "eps=1", "--seed", "1", "--out", str(tmp_path / "solve")]) == 0
    capsys.readouterr()
    assert run(["verify", "isometry", "--set", "eps=1", "--seed", "1", "--out", str(tmp_path / "iso")]) == 2
    assert capsys.readouterr().err == "config error at isometry.band_high: need 0 <= lo < hi, got lo=1.0, hi=1.0\n"
    assert not (tmp_path / "iso").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--set", "grid_points=9"],
        ["verify", "weak", "--set", "weak.replicates=1"],
        ["sweep", "continuity", "--set", "grid_levels=3,4,5", "--set", "replicates=2"],
    ],
)
def test_a_gamma_whose_powers_leave_the_doubles_runs_without_a_warning(tmp_path, argv):
    # At gamma = 300, lambda_k^gamma is inf from the second mode of the unit interval on.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--set", "gamma=300", "--seed", "1", "--out", str(tmp_path / "out")]) == 0
