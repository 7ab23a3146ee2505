"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import tracer
from tracer import Span, Tracer, covered_length, self_times, summarize

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# --- self-time arithmetic ---------------------------------------------------

def test_covered_length_merges_overlaps():
    assert covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4
    assert covered_length([]) == 0


def test_self_time_of_nested_and_overlapping_children():
    root = Span("root", None, 0.0, 10.0)
    a = Span("a", root, 1.0, 4.0)
    inner = Span("inner", a, 2.0, 3.0)
    b = Span("b", root, 3.0, 6.0)  # overlaps a: another thread
    own = self_times([inner, a, b, root])
    assert own[id(root)] == 10.0 - 5.0
    assert own[id(a)] == 2.0
    assert own[id(b)] == 3.0
    assert own[id(inner)] == 1.0
    summary = summarize([inner, a, b, root])
    assert summary["root"] == {"calls": 1, "busy_s": 5.0, "wall_s": 10.0, "peak_mb": 0.0}


def test_threaded_replicates_are_children_of_run_replicates():
    tr = Tracer()
    leaf = tracer._wrap(tr, "leaf", lambda i: time.sleep(0.02) or i, None)

    def run_replicates(fn, n, workers=1):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(n)))

    traced = tracer._wrap_run_replicates(tr, "rr", run_replicates)
    with tr.span("caller") as caller:
        assert traced(leaf, 4, workers=2) == [0, 1, 2, 3]

    (root,) = [s for s in tr.spans if s.name == "rr"]
    leaves = [s for s in tr.spans if s.name == "leaf"]
    assert root.parent is caller
    assert len(leaves) == 4 and all(s.parent is root for s in leaves)
    own = self_times(tr.spans)
    covered = covered_length([(s.start, s.end) for s in leaves])
    assert own[id(root)] == pytest.approx((root.end - root.start) - covered)
    assert own[id(caller)] == pytest.approx((caller.end - caller.start) - (root.end - root.start))
    figures = summarize(tr.spans)["rr"]
    assert figures["workers"] == 2
    assert figures["worker_busy_s"] >= sum(s.end - s.start for s in leaves)
    assert 0.0 < figures["worker_busy_s"] / figures["capacity_s"] <= 1.0


def test_child_peak_is_folded_into_parent():
    tr = Tracer()
    tracemalloc.start()
    try:
        with tr.span("parent"):
            with tr.span("child"):
                block = bytearray(8 << 20)
                del block
    finally:
        tracemalloc.stop()
    child, parent = tr.spans
    # Span bookkeeping frees a few bytes after the starting reading.
    assert child.peak >= (8 << 20) - 1024
    assert parent.peak >= child.peak


def test_span_in_another_thread_keeps_the_peak_of_an_open_span():
    tr = Tracer()
    allocated, other_done = threading.Event(), threading.Event()

    def worker():
        with tr.span("busy"):
            block = bytearray(8 << 20)
            del block
            allocated.set()
            other_done.wait(10)

    tracemalloc.start()
    try:
        thread = threading.Thread(target=worker)
        thread.start()
        allocated.wait(10)
        with tr.span("other"):  # resets the process-wide peak
            pass
        other_done.set()
        thread.join()
    finally:
        tracemalloc.stop()
    (busy,) = [s for s in tr.spans if s.name == "busy"]
    assert busy.peak >= (8 << 20) - 1024


# --- correctness gate -------------------------------------------------------

GOOD = [{"name": "a", "pass": True, "inconclusive": False}]
DIGESTS = {"reports.jsonl": "1", "summary.csv": "2"}


def test_gate_passes_clean_and_inconclusive_runs():
    assert run.gate(0, GOOD, DIGESTS, None, run.REPORTS) == []
    unsure = [{"name": "b", "pass": False, "inconclusive": True}]
    assert run.gate(0, unsure, DIGESTS, dict(DIGESTS), run.REPORTS) == []


def test_gate_flags_exit_code():
    assert run.gate(1, GOOD, DIGESTS, None, run.REPORTS) == ["exit code 1"]


def test_gate_flags_failing_report():
    bad = GOOD + [{"name": "b", "pass": False, "inconclusive": False}]
    assert run.gate(0, bad, DIGESTS, None, run.REPORTS) == ["failing reports b"]


def test_gate_flags_digest_mismatch_and_missing_output():
    changed = dict(DIGESTS, **{"summary.csv": "3"})
    assert run.gate(0, GOOD, changed, DIGESTS, run.REPORTS) == [
        "outputs differ from the first run: summary.csv"
    ]
    problems = run.gate(0, GOOD, {"reports.jsonl": "1"}, None, run.REPORTS)
    assert problems == ["missing outputs summary.csv"]


# --- metric names and BENCHMARK.json -----------------------------------------

def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = list(run.END_TO_END) + list(run.per_layer_metrics())
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_metrics()


# --- traced child on the real package -----------------------------------------

def test_traced_child_rebinds_every_target(tmp_path: Path):
    record = tmp_path / "record.json"
    env = dict(run.child_env())
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), "trace", str(record), "--",
         "check", "--set", "K=64", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "untraced" not in proc.stderr
    marks = json.loads(record.read_text())
    assert marks["setup_end"] <= time.monotonic()
    layers = run.fold_layers([marks["layers"]])
    # check calls eigen_matrix through cli's own binding of the name.
    assert layers["domain.eigen_matrix"]["calls"] >= 1
    assert layers["domain.eigen_matrix"]["cells"] % 64 == 0
    assert layers["config.load_config"]["calls"] == 1
    # Every stat of a layer that ran is recorded, its work count included.
    for layer, figures in layers.items():
        assert set(run.LAYER_STATS[layer]) - {"parallel_efficiency"} <= set(figures), layer


def test_missing_sources_exit_nonzero_without_result(tmp_path: Path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "child.py", "tracer.py"):
        (bench / name).write_bytes((run.HERE / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
