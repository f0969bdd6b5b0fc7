"""One workload's queries, run in this process through ``rieszmv.cli.main``.

Usage: ``python3 child.py SRC QUERIES RESULTS [--trace SPANS] [--setup-only]``,
run with the working directory that the query paths are relative to.

Set-up time is taken first, from just before ``import rieszmv`` to the query
list being read.  The queries then run one at a time in a closed loop, each
``cli.main`` call timed alone with its stdout and stderr captured.  RESULTS
gets one JSON line per query and a last line with the set-up time and the
peak resident memory.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import rieszmv.cli  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as handle:
    QUERIES = json.load(handle)
SETUP_S = perf_counter() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_kb():
    # VmHWM belongs to this process image; getrusage's ru_maxrss would also
    # count the parent's memory, which survives fork and exec
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    results_path = sys.argv[3]
    options = sys.argv[4:]
    if "--setup-only" in options:
        with open(results_path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"setup_s": SETUP_S, "module": rieszmv.cli.__file__}) + "\n")
        return
    tracer = None
    if "--trace" in options:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    with open(results_path, "w", encoding="utf-8") as out:
        for qid, argv in enumerate(QUERIES):
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            code = None
            if tracer is not None:
                tracer.start_query(qid)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = perf_counter()
                try:
                    code = rieszmv.cli.main(argv)
                except Exception as exc:  # a crash is a failed query, not a failed run
                    error = type(exc).__name__
                elapsed = perf_counter() - start
            record = {"code": code, "error": error, "seconds": elapsed, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[:2000]}
            out.write(json.dumps(record) + "\n")
        peak_mb = peak_rss_kb() / 1024
        out.write(json.dumps({"setup_s": SETUP_S, "peak_rss_mb": peak_mb, "module": rieszmv.cli.__file__}) + "\n")
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(options[options.index("--trace") + 1]))


if __name__ == "__main__":
    main()
