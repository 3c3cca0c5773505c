"""Traced stand-in for ``python -m knotcert``, used by the cli_mix traced run.

Runs knotcert.cli.dispatch exactly as knotcert.cli.main does, with the
benchmark's layer wrappers installed, and prints the same stdout and exit
code.  It writes one JSON line to stderr: the wall-clock time at which the
script began (the parent subtracts its spawn time to get interpreter
start-up), the import time of knotcert.cli, and the tracer's totals and
spans.  knotcert.cli is imported before any module of the benchmark, so
its import time covers every module it loads.

    PYTHONPATH=src python3 bench/cli_child.py ARGS...
"""

import time

STARTED = time.time()
T0 = time.perf_counter()

import knotcert.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    code, output = knotcert.cli.dispatch(sys.argv[1:])
    if output:
        print(output)
    sys.stdout.flush()
    report = {"started": STARTED, "import_s": IMPORT_S, "raw": tracer.raw(), "spans": tracer.spans}
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
