"""One ``qsolsim`` invocation inside a fresh interpreter, with timing marks.

Usage: python3 child.py MARKS_JSON RUN_ID TRACE(0|1) -- QSOLSIM_ARGS...

Runs ``qsolsim.cli.main(QSOLSIM_ARGS)`` exactly as the ``qsolsim`` console
script does.  It always records three ``time.monotonic`` marks (qsolsim.cli
imported, first config resolved, main returned); with TRACE=1 it also wraps
the package's public functions (see ``spans.py``) and records a span per
call.  Marks and spans go to MARKS_JSON when main returns, so nothing is
written while the program runs.  CLOCK_MONOTONIC is system-wide on Linux, so
the parent can compare these marks with its own spawn time.
"""

import json
import sys
import time


def main() -> int:
    marks_path, run_id, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py MARKS_JSON RUN_ID TRACE -- QSOLSIM_ARGS...")
    argv = sys.argv[5:]

    import qsolsim.cli as cli
    marks = {"imported": time.monotonic(), "resolved": None, "qsolsim_file": cli.__file__}

    tracer = None
    if trace:
        from spans import Tracer, install
        tracer = Tracer(run_id)
        install(tracer)

    resolve = cli.resolve_config

    def marked_resolve(cfg):
        rc = resolve(cfg)
        if marks["resolved"] is None:
            marks["resolved"] = time.monotonic()
        return rc

    cli.resolve_config = marked_resolve
    code = cli.main(argv)
    marks["returned"] = time.monotonic()
    doc = {"marks": marks, "exit": code}
    if tracer is not None:
        doc["trace"] = tracer.as_dict()
    with open(marks_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
