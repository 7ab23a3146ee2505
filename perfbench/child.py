"""One benchmark invocation of the levy-elliptic CLI in a fresh interpreter.

    python3 perfbench/child.py plain RECORD -- CLI_ARGS...
    python3 perfbench/child.py trace RECORD -- CLI_ARGS...
    python3 perfbench/child.py probe RECORD

``plain`` runs ``levy_elliptic.cli.run`` as the ``levy-elliptic`` entry
point does and records, in RECORD, the monotonic time at which
``load_config`` returned: the end of set-up.  ``trace`` also wraps the
package's layer functions (see tracer.py) and records their per-layer
summary.  ``probe`` records the interpreter and library versions; run once
before timing, it also fills the bytecode and page caches.
"""

from __future__ import annotations

import json
import platform
import sys
import time
import tracemalloc


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _probe(record: str) -> int:
    import numpy
    import scipy

    import levy_elliptic.cli  # noqa: F401  (warms the import path)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    _write(
        record,
        {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
        },
    )
    return 0


def main(argv: list[str]) -> int:
    mode, record, *rest = argv
    if mode == "probe":
        return _probe(record)
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    import levy_elliptic
    from levy_elliptic import cli

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer, levy_elliptic)
        if missing:
            print("untraced (not found): " + ", ".join(missing), file=sys.stderr)

    marks: dict = {}
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        try:
            return load_config(*args, **kwargs)
        finally:
            marks.setdefault("setup_end", time.monotonic())

    cli.load_config = timed_load_config
    if tracer is not None:
        tracemalloc.start()
    try:
        return cli.run(cli_args)
    finally:
        if tracer is not None:
            tracemalloc.stop()
            marks["layers"] = tracing.summarize(tracer.spans)
        _write(record, marks)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
