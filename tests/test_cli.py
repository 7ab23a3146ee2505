"""Golden runs of the command line through ``cli.run`` on small configs."""

import csv
from pathlib import Path

import pytest

from levy_elliptic.cli import run

SOLVE = ["solve", "--set", "d=2", "--set", "eps=0.05", "--set", "K=200", "--set", "grid_points=9"]
WEAK = [
    "verify", "weak", "--set", "d=2", "--set", "eps=0.05", "--set", "K=64",
    "--set", 'weak.phi={"kind":"eigenfunction","index":[1,2]}', "--set", "weak.replicates=2",
]

CF = ["verify", "cf", "--set", "eps=0.05", "--set", "M=2000", "--set", 'cf.f={"kind":"axis_power","exponent":1.0}']
ISOMETRY = ["verify", "isometry", "--set", "eps=0.05", "--set", "M=2000"]


def outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize(
    "argv,files",
    [
        (SOLVE, {"coefficients.csv", "field.csv"}),
        (WEAK, {"reports.jsonl", "summary.csv"}),
        (CF, {"reports.jsonl", "summary.csv"}),
        (ISOMETRY, {"reports.jsonl", "summary.csv"}),
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


def test_other_seed_changes_the_solution(tmp_path, capsys):
    for seed in ("5", "6"):
        assert run(SOLVE + ["--seed", seed, "--out", str(tmp_path / seed)]) == 0
    assert outputs(tmp_path / "5") != outputs(tmp_path / "6")


def test_refused_regime_exits_2(tmp_path, capsys):
    # A mild solution exists iff gamma > d/4.
    outdir = tmp_path / "out"
    assert run(SOLVE + ["--set", "gamma=0.4", "--seed", "5", "--out", str(outdir)]) == 2
    assert "refused" in capsys.readouterr().err
    assert not outdir.exists()


def test_oversized_solve_grid_is_refused_before_solving(tmp_path, capsys):
    # 33^6 rows at the default grid_points would be about 1.3e9 CSV rows.
    outdir = tmp_path / "out"
    assert run(["solve", "--set", "d=6", "--seed", "5", "--out", str(outdir)]) == 2
    assert "solve.grid_points" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [CF, ISOMETRY])
def test_batch_over_the_atom_budget_is_refused(tmp_path, capsys, argv):
    # eps = 1e-6 gives 1e9 stable atoms a replicate, over BATCH_ATOMS = 2^20.
    outdir = tmp_path / "out"
    assert run(argv + ["--set", "eps=1e-6", "--seed", "5", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "eps=1e-06" in err and "M=2000" in err and "BATCH_ATOMS=1048576" in err
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
    # r = 1.4 sits just below r_max = 1.5: its last-doubling increment misses the band.
    assert by_name["sobolev[d=1,gamma=1.0,r=1.4]"]["inconclusive"] == "true"
    assert by_name["sobolev[d=1,gamma=1.0,r=1.4]"]["pass"] == "false"
    assert by_name["sobolev[d=1,gamma=1.0,r=1.0]"]["inconclusive"] == "false"
