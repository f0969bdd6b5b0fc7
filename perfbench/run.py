"""End-to-end benchmark of rieszmv through its CLI entry point.

    python3 perfbench/run.py --workload {eval,decide,synth,books} --seed N --seconds S --trace {0,1}

The checkout is the directory above this file's.  The seed and the run length fix the query
set; its input files are generated under ``.perfbench/``.  The queries then
run in a child process, one ``rieszmv.cli.main`` call at a time, and every
output is checked here against :mod:`ref` and answers known by construction.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the child wraps the package's layers
(see :mod:`tracing`) and the JSON holds the per-layer metrics instead.
Set-up time is the median of several fresh child interpreters, each timing
its own ``import rieszmv`` and query-list read.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 10
DEADLINE_S = 170

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def child(args, cwd, deadline):
    """Run child.py to completion, killing it if it outlives the deadline."""
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(SRC)] + [str(a) for a in args],
        cwd=cwd,
        check=True,
        timeout=timeout,
        stdin=subprocess.DEVNULL,
    )


def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def setup_samples(work, deadline):
    """set-up seconds of SETUP_SAMPLES fresh interpreters, after one warm-up
    run that leaves the byte-code caches written."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = work / "setup.jsonl"
        child(["queries.json", out.name, "--setup-only"], work, deadline)
        (record,) = read_lines(out)
        check_module(record["module"])
        if i:
            samples.append(record["setup_s"])
    return samples


def check_module(path):
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"rieszmv was imported from {path}, not from {SRC}")


def check_outputs(queries, results):
    """(number of failed queries, messages about wrong outputs and
    unexpected failures) over the query results."""
    failed = 0
    problems = []
    for i, (query, result) in enumerate(zip(queries, results)):
        if result["error"] is not None or result["code"] != 0:
            failed += 1
            if not query.may_fail:
                what = result["error"] or f"exit {result['code']}: {result['stderr'].strip()}"
                problems.append(f"query {i} ({query.kind}) failed: {what}")
            continue
        try:
            query.check(result["stdout"])
        except Exception as exc:  # a check that chokes on the output rejects it
            problems.append(f"query {i} ({query.kind}) {query.argv[:2]}: {type(exc).__name__}: {exc}")
    return failed, problems


def end_to_end(results, summary, setup):
    times = [r["seconds"] for r in results]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "query_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "queries_per_s": (len(times) / sum(times), "1/s"),
        "output_bytes": (sum(len(r["stdout"].encode()) for r in results), "bytes"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "rieszmv" / "cli.py").is_file():
        print(f"error: no rieszmv sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    queries = workloads.build(args.workload, args.seed, args.seconds, work / "inputs")
    (work / "queries.json").write_text(json.dumps([q.argv for q in queries]))

    setup = [] if args.trace else setup_samples(work, deadline)
    options = ["--trace", "spans.jsonl"] if args.trace else []
    child(["queries.json", "results.jsonl"] + options, work, deadline)
    *results, summary = read_lines(work / "results.jsonl")
    check_module(summary["module"])
    setup.append(summary["setup_s"])
    if len(results) != len(queries):
        raise SystemExit(f"child returned {len(results)} results for {len(queries)} queries")

    failed, problems = check_outputs(queries, results)
    for line in problems[:20]:
        print("CHECK " + line, file=sys.stderr)

    if args.trace:
        layer = tracing.layer_metrics(work / "spans.jsonl")
        metrics = {name: (value, tracing.unit_of(name)) for name, value in sorted(layer.items())}
        traced_total = sum(r["seconds"] for r in results)
        print(f"traced query time {traced_total:.4f} s over {len(results)} queries")
    else:
        metrics = end_to_end(results, summary, setup)

    print(f"workload {args.workload}  seed {args.seed}  attempted {len(queries)}  failed {failed}  correct {not problems}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6f} {unit}" if isinstance(value, float) else f"  {name:36s} {value:>16d} {unit}")
    shutil.rmtree(work / "inputs", ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": len(queries),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (work / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
