"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They run the benchmark for about a second per invocation, so each pipeline
run makes one pass (two when traced), and check that every metric named in
BENCHMARK.json prints with its unit, that exact counters repeat across runs,
and that a corrupted output counts as a failed pass.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402

os.environ.update(run.THREAD_ENV)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, seed=3, trace=0):
    """One run of the benchmark -> (report lines, result object)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace, repeat=0):
        key = (workload, trace, repeat)
        if key not in cache:
            cache[key] = bench(workload, trace=trace)
        return cache[key]
    return get


def test_spec_lists_every_workload_and_layer_metric():
    # pipeline_large runs by name only (see README.md)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS[:2])
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS


@pytest.mark.parametrize("workload", ["pipeline_default", "calibration"])
def test_every_end_to_end_metric_prints_with_unit(runs, workload):
    lines, result = runs(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        line = f"{m['name']} = {got['value']} {m['unit']} ({m['better']} is better)"
        assert line in lines
    assert any(line.startswith("fail_ratio: 0.0000 ratio") for line in lines)
    assert any(line.startswith("conditions: ") for line in lines)


@pytest.mark.parametrize("workload", ["pipeline_default", "calibration"])
def test_exact_counters_repeat(runs, workload):
    first, second = runs(workload, 1, 0)[1], runs(workload, 1, 1)[1]
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in tracing.EXACT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    fits = "baseline.fits" if workload == "pipeline_default" else "covid_layer.fits"
    assert first["metrics"][fits]["value"] == (6 if workload == "pipeline_default" else 56)


@pytest.mark.parametrize("workload", ["pipeline_default", "calibration"])
def test_fit_max_score_repeats(runs, workload):
    def score(lines):
        [line] = [line for line in lines if line.startswith("fit_max_score: ")]
        return float(line.split()[1])
    first, second = score(runs(workload, 0, 0)[0]), score(runs(workload, 0, 1)[0])
    assert 0 < first == second


def test_corrupted_output_counts_as_failure(tmp_path):
    pipe = workloads.Pipeline("pipeline_default", 3, str(tmp_path))
    _, setup_ok = pipe.setup()
    good = pipe.run_pass(traced=False)
    assert setup_ok and good["problems"] == []

    # Replace the fitted pandemic age effect (ages 40-90) by a flat unit vector.
    path = os.path.join(pipe.out, "covid_AAA_m.csv")
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    flat = repr(1 / math.sqrt(51))
    rows = [re.sub(r"^B,(\d+),,.*$", rf"B,\1,,{flat}", row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    bad = pipe.check(rc=0)
    assert "output differs from the first pass" in bad["problems"]
    assert any(p.startswith("pandemic B AAA/m") for p in bad["problems"])

    result, lines = run.summarize({"setup_s": [[1.0, 1.0]], "setup_ok": True, "cells": 1,
                                   "passes": [good, dict(good, **bad)]}, trace=0)
    assert result["attempted"] == 2 and result["failed"] == 1 and not result["correct"]
    assert any(line.startswith("pass 1 FAILED") for line in lines)


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench_copy / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibration", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
