"""One pass of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Three modes:

``child.py setup SRC``
    import ``perron.cli`` from SRC, build its parser, print ``ready``.
``child.py calibrate``
    time a fixed allocation-heavy pure-Python task, without importing
    perron, and print its seconds.
``child.py pass SRC``
    read ``{"argvs": [...], "trace": bool, "spans": path or null}`` from
    stdin, run every argv through ``perron.cli.run`` and print one JSON line
    with the exit codes, stdout and stderr texts, per-call seconds, peak RSS
    and, when traced, the span summary.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _setup(src: str):
    sys.path.insert(0, src)
    import perron.cli

    # an empty argv builds the parser and stops at the usage error
    perron.cli.run([], err=io.StringIO())
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _calibrate():
    # tuples, strings, a dict and a sort: allocation-heavy like perron's
    # passes, so that a busy shared machine slows it much as it slows them
    start = perf_counter()
    rows = [(i, i * 7 % 1009, str(i)) for i in range(150_000)]
    index = {}
    for row in rows:
        index[row[1], row[0] % 97] = row
    sorted(rows, key=lambda row: (row[1], row[0]))
    sys.stdout.write(f"{perf_counter() - start!r}\n")


def _pass(src: str):
    req = json.load(sys.stdin)
    sys.path.insert(0, src)
    import perron.cli

    tracer = None
    if req["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    for request, argv in enumerate(req["argvs"]):
        if tracer is not None:
            tracer.request = request
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            rc = perron.cli.run(argv, out=out, err=err)
        except Exception:  # a crash is a failed invocation, not a failed run
            err.write(traceback.format_exc())
            rc = -1
        calls.append((rc, perf_counter() - start, out.getvalue(), err.getvalue()))

    result = {
        "rc": [c[0] for c in calls],
        "seconds": [c[1] for c in calls],
        "stdout": [c[2] for c in calls],
        "stderr": [c[3] for c in calls],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(sum(result["seconds"]))
        if req.get("spans"):
            tracer.write_spans(req["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


def main():
    mode = sys.argv[1]
    if mode == "setup":
        _setup(sys.argv[2])
    elif mode == "calibrate":
        _calibrate()
    elif mode == "pass":
        _pass(sys.argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
