#!/usr/bin/env python3
"""Benchmark of the pandmort pipeline, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline_default --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

* ``pipeline_default``: one ``pandmort run-all`` process per pass on
  synthetic data of 2 countries x ages 0-90 x 1970-2019.
* ``pipeline_large``: the same on 14 countries x ages 0-110.
* ``calibration``: in-process baseline and pandemic-layer Poisson fits at the
  large size, with no text I/O (see ``calibration.py``).

Every input is generated from ``--seed`` before the first timed pass; the
program only receives the generated files or arrays.  Passes repeat until
``--seconds`` have gone.  Every pass is checked: exit code 0, no
``error.json``, an output tree byte-identical to the first pass, and
recovery of the synthetic truth.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics of the traced passes (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Single-threaded BLAS in this process and every child: the baseline the
# measurements are compared against, and steadier on a shared machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("pipeline_default", "calibration", "pipeline_large")
E2E_UNITS = {"pass_s": "s", "cells_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def tail(values):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            rank = min(n - 1, int(p / 100 * n))
            return f"p{p:g} = {sorted(values)[rank]:.4f} s over {n} passes"
    return f"n/a: {n} passes, p50 needs at least 20"


def summarize(run, trace):
    """-> (result object for the last line, report lines)."""
    import checks
    from tracing import EXACT_METRICS, LAYER_METRICS

    passes = run["passes"]
    failed = sum(1 for p in passes if p["problems"])
    correct = failed == 0 and run["setup_ok"]
    lines = []
    if not run["setup_ok"]:
        lines.append("FAILED: generated inputs differ between set-up repeats")
    for i, p in enumerate(passes):
        if p["problems"]:
            lines.append(f"pass {i} FAILED: " + "; ".join(p["problems"]))
    untraced = [p for p in passes if not p["traced"]]
    pass_s = statistics.median(p["ref_s"] for p in untraced)
    lines.append("raw wall seconds, median: pass {:.4f}, set-up {:.4f}".format(
        statistics.median(p["wall_s"] for p in untraced),
        statistics.median(wall for wall, _ in run["setup_s"])))
    scores = [p["fit_max_score"] for p in passes if p["fit_max_score"] is not None]
    lines.append(f"fit_max_score: {max(scores, default=float('nan')):.17g} score "
                 f"(lower is better; a pass fails above {checks.MAX_FIT_SCORE:g})")
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead":
                value = statistics.median(p["ref_s"] for p in traced) / pass_s
            elif name in EXACT_METRICS:
                values = {p["layers"][name] for p in traced}
                if len(values) > 1:
                    correct = False
                    lines.append(f"FAILED: {name} differs between traced passes: {values}")
                value = traced[0]["layers"][name]
            else:  # a time, in reference seconds like the pass it was taken in
                value = statistics.median(p["layers"][name] * p["ref_s"] / p["wall_s"]
                                          for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "pass_s": pass_s,
            "cells_per_s": run["cells"] / pass_s,
            "setup_s": statistics.median(ref for _, ref in run["setup_s"]),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        lines.append(f"pass_s tail: {tail([p['ref_s'] for p in untraced])}")
    lines.append(f"fail_ratio: {failed / len(passes):.4f} ratio ({failed} of {len(passes)} "
                 "passes failed; lower is better)")
    result = {"correct": correct, "attempted": len(passes), "failed": failed,
              "metrics": metrics}
    return result, lines


def conditions(args):
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": THREAD_ENV,
            "cpu_affinity": sorted(os.sched_getaffinity(0))}


def main(argv=None):
    p = argparse.ArgumentParser(description="pandmort benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pandmort", "cli.py")):
        print(f"perfbench: no pandmort sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # One CPU for this process and its children, so that the reference loop
    # measures the speed of the CPU the passes run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import workloads

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload == "calibration":
            run = workloads.run_calibration(args, work)
        else:
            run = workloads.run_pipeline(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    result, lines = summarize(run, args.trace)

    print(f"pandmort benchmark, workload {args.workload}, seed {args.seed}")
    print("conditions: " + json.dumps(conditions(args)))
    print(f"output sha256: {run['digest']}")
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        direction = "higher" if name == "cells_per_s" else "lower"
        print(f"{name} = {m['value']} {m['unit']} ({direction} is better)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
