"""Benchmark of the levy-elliptic CLI: time to verdict and peak memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a short list of
CLI invocations (a pass); every invocation runs in a fresh interpreter with
PYTHONPATH=src, the workload seed as ``--seed`` and one BLAS thread.  Passes
repeat while another fits in ``--seconds``; metrics are medians over passes.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics (see README.md).  Every invocation passes a
correctness gate: exit code 0, every report passed or inconclusive, the
expected files written, and outputs byte-identical to the first pass of the
session.  Workloads with a worker-count check rerun once at that count and
must match too.  Earlier lines report the environment and each pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

REPORTS = ("reports.jsonl", "summary.csv")


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = REPORTS


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    workers: int = 1
    check_workers: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_verify",
            "verify cf and verify isometry at d=1, eps=0.01, M=25000: Monte Carlo "
            "jump sampling and batches do the work, eigen_matrix is idle",
            (
                Invocation("cf", ("verify", "cf", "--set", "d=1", "--set", "eps=0.01", "--set", "M=25000")),
                Invocation("isometry", ("verify", "isometry", "--set", "d=1", "--set", "eps=0.01", "--set", "M=25000")),
            ),
        ),
        Workload(
            "field_d2",
            "solve at d=2, K=32768 and verify weak at K=1024: dense eigen_matrix on "
            "scattered atoms and Gauss nodes, large CSV writes, sampling idle",
            (
                Invocation(
                    "solve",
                    ("solve", "--set", "d=2", "--set", "eps=0.01", "--set", "K=32768"),
                    ("coefficients.csv", "field.csv"),
                ),
                Invocation(
                    "weak",
                    (
                        "verify", "weak", "--set", "d=2", "--set", "eps=0.01", "--set", "K=1024",
                        "--set", 'weak.phi={"kind":"eigenfunction","index":[1,1]}',
                        "--set", "weak.replicates=2",
                    ),
                ),
            ),
        ),
        Workload(
            "sweep_replicates",
            "sweep sobolev and sweep continuity with 2 worker threads: replicate "
            "parallelism, verdict classification, one atom against 5e5 modes",
            (
                Invocation("sobolev", ("sweep", "sobolev")),
                Invocation(
                    "continuity",
                    (
                        "sweep", "continuity", "--set", "d=2", "--set", "gamma=1.5",
                        "--set", "grid_levels=4,5,6", "--set", "continuity.replicates=20",
                    ),
                ),
            ),
            workers=2,
            check_workers=1,
        ),
    )
}

# conclusive_share is read over the whole run; the others are pass medians.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "conclusive_share": "ratio"}

# Per-layer metric names are <module>.<function>.<stat>.
LAYER_STATS = {**tracer.layer_stats(), "trace": ("overhead_s",)}

STAT_UNITS = {
    "busy_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "overhead_s": ("s", "lower"),
    "calls": ("count", "lower"),
    "cells": ("count", "lower"),
    "modes": ("count", "lower"),
    "draws": ("count", "lower"),
    "atoms": ("count", "lower"),
    "points": ("count", "lower"),
    "bytes": ("B", "lower"),
    "peak_mb": ("MB", "lower"),
    "parallel_efficiency": ("ratio", "higher"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, better) for every per-layer metric."""
    return {
        f"{layer}.{stat}": STAT_UNITS[stat]
        for layer, stats in LAYER_STATS.items()
        for stat in stats
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LEVY_ELLIPTIC_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def gate(returncode: int, reports, digests: dict, reference: dict | None, expected) -> list[str]:
    """Reasons an invocation fails; empty when it passes."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    missing = [name for name in expected if name not in digests]
    if missing:
        problems.append("missing outputs " + ", ".join(missing))
    failing = [r.get("name") for r in reports if not (r.get("pass") or r.get("inconclusive"))]
    if failing:
        problems.append("failing reports " + ", ".join(map(str, failing)))
    if reference is not None and digests != reference:
        changed = sorted(k for k in digests.keys() | reference.keys() if digests.get(k) != reference.get(k))
        problems.append("outputs differ from the first run: " + ", ".join(changed))
    return problems


def digest_dir(path: Path) -> dict[str, str]:
    if not path.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def read_reports(outdir: Path) -> list[dict]:
    path = outdir / "reports.jsonl"
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def fold_layers(summaries: list[dict]) -> dict[str, dict[str, float]]:
    """Sum per-layer figures over invocations; peaks take the maximum."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for layer, figures in summary.items():
            agg = out.setdefault(layer, {})
            for key, value in figures.items():
                agg[key] = max(agg.get(key, 0.0), value) if key == "peak_mb" else agg.get(key, 0) + value
    return out


def layer_values(layers: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metric values of one traced pass; absent layers read 0."""
    values = {}
    for layer, stats in LAYER_STATS.items():
        figures = layers.get(layer, {})
        for stat in stats:
            if stat == "parallel_efficiency":
                capacity = figures.get("capacity_s", 0.0)
                value = figures.get("worker_busy_s", 0.0) / capacity if capacity else 0.0
            else:
                value = figures.get(stat, 0)
            values[f"{layer}.{stat}"] = value
    return values


class Session:
    """One benchmark run: invocations, their gate, and per-pass figures."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.reports = 0
        self.inconclusive = 0

    @property
    def conclusive_share(self) -> float:
        """Share of written reports that reached a verdict (not inconclusive)."""
        return 1.0 - self.inconclusive / self.reports if self.reports else 1.0

    def invoke(self, inv: Invocation, workers: int, mode: str) -> dict:
        outdir = WORK / inv.label
        shutil.rmtree(outdir, ignore_errors=True)
        record = WORK / f"{inv.label}.record.json"
        log = WORK / f"{inv.label}.log"
        cmd = [
            sys.executable, str(HERE / "child.py"), mode, str(record), "--", *inv.argv,
            "--seed", str(self.seed), "--workers", str(workers), "--out", str(outdir),
        ]
        with open(log, "wb") as fh:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=fh, stderr=fh)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)

        try:
            marks = json.loads(record.read_text())
        except (OSError, ValueError):
            marks = {}
        try:
            reports = read_reports(outdir)
        except ValueError:
            reports = [{"name": "unparsable reports.jsonl"}]
        digests = digest_dir(outdir)
        problems = gate(proc.returncode, reports, digests, self.reference.get(inv.label), inv.outputs)
        self.reference.setdefault(inv.label, digests)
        self.attempted += 1
        self.reports += len(reports)
        self.inconclusive += sum(bool(r.get("inconclusive")) for r in reports)
        if problems:
            self.failed += 1
            print(f"FAILED {inv.label} (workers {workers}, {mode}): " + "; ".join(problems), file=sys.stderr)
            print(log.read_text(errors="replace")[-2000:], file=sys.stderr)
        return {
            "wall_s": end - start,
            "setup_s": marks.get("setup_end", end) - start,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "layers": marks.get("layers", {}),
        }

    def run_pass(self, mode: str, workers: int) -> dict:
        runs = [self.invoke(inv, workers, mode) for inv in self.workload.invocations]
        figures = {
            "each_s": [round(r["wall_s"], 3) for r in runs],
            "wall_s": sum(r["wall_s"] for r in runs),
            "setup_s": sum(r["setup_s"] for r in runs),
            "peak_rss_mb": max(r["rss_mb"] for r in runs),
            "layers": fold_layers([r["layers"] for r in runs]),
        }
        print(
            f"pass {mode} workers={workers}: wall {figures['wall_s']:.3f} s, "
            f"setup {figures['setup_s']:.3f} s, peak {figures['peak_rss_mb']:.0f} MB, "
            f"per invocation {figures['each_s']} s",
            flush=True,
        )
        return figures


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(session: Session, args) -> dict:
    """Machine, versions and settings; the probe also warms the caches."""
    record = WORK / "probe.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "probe", str(record)],
        env=session.env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    info = json.loads(record.read_text())
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        ram_gb=round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        git_sha=git_sha(),
        blas_threads={k: session.env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
    )
    return info


def measure(session: Session, seconds: float, trace: bool) -> dict[str, float]:
    workload = session.workload
    plain, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(session.run_pass("plain", workload.workers))
        if trace:
            traced.append(session.run_pass("trace", workload.workers))
        # Stop before a further pass would overrun the measuring window.
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    if workload.check_workers is not None:
        session.run_pass("plain", workload.check_workers)

    if not trace:
        values = {
            name: statistics.median(p[name] for p in plain) for name in ("wall_s", "setup_s", "peak_rss_mb")
        }
        values["conclusive_share"] = session.conclusive_share
        return values
    per_pass = [layer_values(p["layers"]) for p in traced]
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (SRC / "levy_elliptic" / "cli.py").is_file():
        print(f"no levy_elliptic sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        session = Session(WORKLOADS[args.workload], args.seed)
        print(json.dumps({"environment": environment(session, args)}, sort_keys=True), flush=True)
        values = measure(session, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = {n: u for n, (u, _) in per_layer_metrics().items()} if args.trace else END_TO_END
    print(
        f"gate: failed_share {session.failed / session.attempted:g}, "
        f"conclusive_share {session.conclusive_share:g}"
    )
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
