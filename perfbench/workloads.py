"""The pipeline workloads, and the launcher of the calibration worker.

Imported by ``run.py`` once ``src/`` is on the path and the thread limits
are in the environment, because it imports NumPy and pandmort.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calibration
import checks
import speed
import tracing
from pandmort import datastore, synthetic

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
YEARS = (1970, 2019)
# workload -> (countries, top age of the annual panel)
PIPELINES = {
    "pipeline_default": (("AAA", "BBB"), 90),
    "pipeline_large": (calibration.COUNTRIES, 110),
}

CONFIG = """\
[data]
dir = {data}

[run]
countries = {countries}
years = {y0}:{y1}
ages = 0:{top}
covid_ages = 40:90
seasonal_years = 2010:2019
hist_years = 2015:2019
method = 2
knots = 12
eta = 0.5
horizon = 30
seed = {seed}
"""


def run_child(cmd, cwd, log_path):
    """Run one child process to completion -> (exit code, peak RSS MB)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
                                stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def cells(countries, top):
    """Annual-panel cells: countries x 2 genders x ages x years."""
    return len(countries) * 2 * (top + 1) * (YEARS[1] - YEARS[0] + 1)


class Pipeline:
    """One ``run-all`` child process per pass on a generated raw dataset."""

    def __init__(self, workload, seed, work):
        self.countries, self.top = PIPELINES[workload]
        self.seed = seed
        self.work = work
        self.config = os.path.join(work, "run.ini")
        self.out = os.path.join(work, "out")
        self.verified = {}
        self.first_digest = None

    def setup(self):
        """Generate the dataset speed.SETUP_REPEATS times -> ([wall, reference] seconds
        of each, whether they repeat exactly)."""
        self.clock = speed.Clock()
        times, digests = [], set()
        for i in range(speed.SETUP_REPEATS):
            data = os.path.join(self.work, f"data{i}")
            (self.truth, self.pandemic, _), wall, ref = self.clock.time(
                synthetic.write_synthetic_dataset, data, seed=self.seed,
                countries=self.countries)
            times.append([wall, ref])
            digests.add(checks.tree_digest(data)[0])
            if i:
                shutil.rmtree(data)
        with open(self.config, "w", encoding="utf-8") as fh:
            # Relative to the pass's working directory, so that the config hash
            # stamped into every output file is the same in every checkout.
            fh.write(CONFIG.format(data="data0",
                                   countries=",".join(self.countries), y0=YEARS[0], y1=YEARS[1],
                                   top=self.top, seed=self.seed))
        return times, len(digests) == 1

    def run_pass(self, traced):
        shutil.rmtree(self.out, ignore_errors=True)
        spans_path = os.path.join(self.work, "spans.json")
        cli_args = ["run-all", "--config", self.config, "--out", self.out]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracing.py"), spans_path] + cli_args
        else:
            cmd = [sys.executable, "-m", "pandmort.cli"] + cli_args
        (rc, rss), wall, ref = self.clock.time(run_child, cmd, self.work,
                                               os.path.join(self.work, "pass.log"))
        record = {"wall_s": wall, "ref_s": ref, "rss_mb": rss, "traced": traced}
        record.update(self.check(rc))
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            os.remove(spans_path)
            layers = tracing.layer_metrics(trace["spans"], trace["counts"])
            layers["cli.import_s"] = trace["import_s"]
            layers["cli.bytes_written"] = record["bytes"]
            record["layers"] = layers
        return record

    def check(self, rc):
        """Problems with the output of the last pass, and its fit score."""
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if os.path.exists(os.path.join(self.out, "error.json")):
            problems.append("error.json written")
        digest, nbytes = checks.tree_digest(self.out)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("output differs from the first pass")
        if digest not in self.verified:
            self.verified[digest] = self.verify()
        score, found = self.verified[digest]
        return {"problems": problems + found, "fit_max_score": score, "digest": digest,
                "bytes": nbytes}

    def verify(self):
        """Check the output tree against the truth -> (max |score|, problems)."""
        out = self.out
        try:
            model = datastore.load_model(os.path.join(out, "baseline_model.csv"))
            layers = [datastore.load_model(os.path.join(out, f"covid_{c}_{g}.csv"))
                      for c in self.countries for g in datastore.GENDERS]
            panel = datastore.read_annual_panel_csv(os.path.join(out, "annual_panel.csv"))
            panel = panel.select(ages=np.arange(0, self.top + 1),
                                 years=np.arange(YEARS[0], YEARS[1] + 1))
            score, problems = checks.fit_accuracy(checks.baseline_scores(panel, model))
            return score, problems + checks.recovery_errors(model, layers, self.truth,
                                                            self.pandemic)
        except Exception as exc:  # any unreadable or inconsistent output fails the pass
            return None, [f"output check raised {type(exc).__name__}: {exc}"]


def run_pipeline(args, work):
    import pandmort.cli  # noqa: F401  byte-compiles the package before the timed passes

    pipe = Pipeline(args.workload, args.seed, work)
    setup_s, setup_ok = pipe.setup()
    passes = []
    deadline = time.perf_counter() + args.seconds
    # Start a pass only if a typical pass still ends before the deadline.
    while (len(passes) < 1 + args.trace or time.perf_counter()
           + statistics.median(p["wall_s"] for p in passes) <= deadline):
        passes.append(pipe.run_pass(traced=bool(args.trace) and len(passes) % 2 == 1))
    return {"setup_s": setup_s, "setup_ok": setup_ok, "passes": passes,
            "cells": cells(pipe.countries, pipe.top), "digest": pipe.first_digest}


def run_calibration(args, work):
    result_path = os.path.join(work, "calibration.json")
    log_path = os.path.join(work, "calibration.log")
    cmd = [sys.executable, os.path.join(HERE, "calibration.py"), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path]
    rc, rss = run_child(cmd, work, log_path)
    if rc != 0:
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read())
        raise RuntimeError(f"calibration worker exited with code {rc}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    passes = result["passes"]
    for p in passes:
        p["rss_mb"] = rss
        if p["digest"] != passes[0]["digest"]:
            p["problems"].append("fitted parameters differ from the first pass")
    return {"setup_s": result["setup_s"], "setup_ok": result["inputs_repeat"],
            "passes": passes,
            "cells": cells(calibration.COUNTRIES, int(calibration.AGES[-1])),
            "digest": passes[0]["digest"]}
