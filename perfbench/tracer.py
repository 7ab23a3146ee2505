"""Layer spans for the levy-elliptic package, recorded from outside it.

``install`` wraps each function in ``TARGETS`` by rebinding every
module-level name in the ``levy_elliptic`` package that is bound to it, so
calls made through ``from .module import name`` aliases are traced too.
Methods are patched on their class.  Each call opens a span on a per-thread
stack; spans stay in memory and ``summarize`` folds them into per-layer
figures when the process ends.

Self time of a span is its duration minus the part of its interval that its
direct children cover.  Worker threads of ``run_replicates`` take the
enclosing ``run_replicates`` span as parent, so its self time is the wall
time no replicate span covers.  Peak memory comes from ``tracemalloc``: each
span records its peak above the traced memory it started with.  The peak
is process-wide, so before every reset it is folded into all spans open in
any thread; a child's peak thus counts in its parent's too, and with
several worker threads a span also sees its siblings' allocations.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "base", "high", "peak")

    def __init__(self, name: str, parent: "Span | None", start: float = 0.0, end: float = 0.0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts: dict[str, float] = {}
        self.base = 0
        self.high = 0
        self.peak = 0


class Tracer:
    """Per-thread span stacks over one shared, append-only span list."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._open: set[Span] = set()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _fold_peak(self) -> int:
        """Fold the peak since the last reset into every open span; reset it."""
        now, peak = tracemalloc.get_traced_memory()
        for s in self._open:
            s.high = max(s.high, peak)
        tracemalloc.reset_peak()
        return now

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        current = Span(name, stack[-1] if stack else None)
        with self._lock:
            current.base = current.high = self._fold_peak()
            self._open.add(current)
        stack.append(current)
        current.start = time.perf_counter()
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._fold_peak()
                self._open.discard(current)
            current.peak = current.high - current.base
            self.spans.append(current)

    @contextmanager
    def adopt(self, parent: Span):
        """Make ``parent`` the root of this thread's stack if it has none."""
        stack = self._stack()
        if stack:
            yield
            return
        stack.append(parent)
        try:
            yield
        finally:
            stack.clear()


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(id(s), ())
            if b > s.start and a < s.end
        ]
        out[id(s)] = (s.end - s.start) - covered_length(kids)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-layer totals: calls, busy_s (self time), wall_s, peak_mb, counts."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "wall_s": 0.0, "peak_mb": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += own[id(s)]
        agg["wall_s"] += s.end - s.start
        agg["peak_mb"] = max(agg["peak_mb"], s.peak / 2**20)
        for key, value in s.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out


# --- wrapping -------------------------------------------------------------

def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _dir_bytes(path) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except FileNotFoundError:
        return 0


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Every traced layer function: (module, attribute path) -> (stats reported,
# work counter).  A work counter is (stat, fn); fn maps the call's bound
# arguments and result to that stat's count.  emit_report counts its whole
# outdir: the benchmark gives every invocation an empty one.
TARGETS = {
    ("domain", "eigen_matrix"): (("busy_s", "calls", "peak_mb"), ("cells", lambda a, r: _size(r))),
    ("domain", "enumerate_eigen"): (("busy_s",), ("modes", lambda a, r: len(r))),
    ("_rng", "keyed_normals"): (("busy_s",), ("draws", lambda a, r: _size(r))),
    ("measures", "sample_jump_sizes"): (("busy_s",), ("draws", lambda a, r: _size(r))),
    ("measures", "sample_band_jump_sizes"): (("busy_s",), ("draws", lambda a, r: _size(r))),
    ("noise", "sample_noise"): (("busy_s",), ("atoms", lambda a, r: len(r.atoms.sizes))),
    ("noise", "pair_eigen"): (("busy_s", "calls", "peak_mb"), None),
    ("noise", "pair_with_function"): (("busy_s",), None),
    ("functions", "fourier_vector"): (("busy_s",), None),
    ("functions", "SpectralFunction.evaluate"): (("busy_s",), None),
    ("solver", "solve_mild"): (("busy_s",), None),
    ("solver", "eval_field_grid"): (("busy_s",), ("points", lambda a, r: _size(r))),
    ("solver", "dump_coeffs_csv"): (("busy_s",), ("bytes", lambda a, r: _file_bytes(a.get("path")))),
    ("solver", "dump_field_grid_csv"): (("busy_s",), ("bytes", lambda a, r: _file_bytes(a.get("path")))),
    ("diagnostics", "empirical_cf_test"): (("busy_s", "peak_mb"), None),
    ("diagnostics", "isometry_test"): (("busy_s", "peak_mb"), None),
    ("diagnostics", "weak_identity_test"): (("busy_s",), None),
    ("diagnostics", "sobolev_sweep"): (("busy_s",), None),
    ("diagnostics", "continuity_probe"): (("busy_s",), None),
    ("diagnostics", "run_replicates"): (("wall_s", "parallel_efficiency"), None),
    ("integrability", "rr_integrability"): (("busy_s",), None),
    ("integrability", "existence_verdict"): (("busy_s",), None),
    ("config", "load_config"): (("busy_s",), None),
    ("cli", "emit_report"): (("busy_s",), ("bytes", lambda a, r: _dir_bytes(a.get("outdir")))),
}


def layer_name(module: str, attr: str) -> str:
    """Metric prefix of a target; names may not start with an underscore."""
    return f"{module.lstrip('_')}.{attr}"


def layer_stats() -> dict[str, tuple[str, ...]]:
    """Stats reported for every traced layer, keyed by metric prefix."""
    return {
        layer_name(module, attr): stats + ((counter[0],) if counter else ())
        for (module, attr), (stats, counter) in TARGETS.items()
    }


def _wrap(tracer: Tracer, name: str, fn, counter):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
            if counter:
                stat, count = counter
                s.counts[stat] = count(sig.bind(*args, **kwargs).arguments, result)
            return result

    return traced


def _wrap_run_replicates(tracer: Tracer, name: str, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        work = bound.arguments["fn"]
        with tracer.span(name) as s:
            busy: list[float] = []

            def replicate(i):
                with tracer.adopt(s):
                    t0 = time.perf_counter()
                    try:
                        return work(i)
                    finally:
                        busy.append(time.perf_counter() - t0)

            bound.arguments["fn"] = replicate
            result = fn(*bound.args, **bound.kwargs)
            s.counts["worker_busy_s"] = sum(busy)
            s.counts["workers"] = int(bound.arguments["workers"])
        s.counts["capacity_s"] = (s.end - s.start) * s.counts["workers"]
        return result

    return traced


def install(tracer: Tracer, package) -> list[str]:
    """Wrap every target found in ``package``; returns the targets missing."""
    prefix = package.__name__ + "."
    modules = [m for n, m in list(sys.modules.items()) if n.startswith(prefix) and m is not None]
    missing = []
    for (module_name, attr), (_, counter) in TARGETS.items():
        module = sys.modules.get(prefix + module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, fn_name, None) if owner is not None else None
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        name = layer_name(module_name, attr)
        if fn_name == "run_replicates":
            wrapped = _wrap_run_replicates(tracer, name, fn)
        else:
            wrapped = _wrap(tracer, name, fn, counter)
        if owner_name:
            setattr(owner, fn_name, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)
    return missing
