"""Run one wealthsim CLI invocation in this process and report how it went.

Usage: python3 perfbench/child.py RESULT.json TRACE -- ARGV...

``wealthsim.cli.main`` receives exactly ARGV.  RESULT.json gets the
monotonic clock just before ``main`` is called (the parent subtracts its own
reading taken before it started this process, giving set-up time), the wall
time of ``main``, its exit code, this process's peak RSS and, with TRACE=1,
the spans of the traced call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    result_path, trace = Path(sys.argv[1]), sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- ARGV...")
    argv = sys.argv[4:]
    sys.path.insert(0, str(HERE.parent / "src"))
    from wealthsim import cli

    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    setup_end_ns = time.monotonic_ns()
    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start

    result = {
        "setup_end_ns": setup_end_ns,
        "main_s": main_s,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else None,
    }
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
