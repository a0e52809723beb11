"""The ``calibration`` workload: in-process Poisson fits with no text I/O.

Set-up samples, at the large size, an annual panel (14 countries x ages
0-110 x 1970-2019) and one weekly 2020-2021 panel per country and gender on
individual ages 40-90.  A pass fits the two-layer baseline (30 fits), then
the pandemic layer with Method 1 and with Method 2 for every country and
gender (56 fits).  Run by ``perfbench/run.py`` as a child process::

    python3 perfbench/calibration.py --seed 1 --seconds 10 --trace 0 --result out.json

It writes the set-up times, the per-pass times and check results, and, when
traced, the per-layer metrics of each traced pass to the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time

import numpy as np

import checks
import speed
import tracing
from pandmort import baseline, covid_layer, synthetic
from pandmort.datastore import GENDERS, SeasonalEffect

COUNTRIES = tuple(f"C{i:02d}" for i in range(14))
AGES = np.arange(0, 111)
YEARS = np.arange(1970, 2020)
COVID_AGES = np.arange(40, 91)


def make_inputs(seed):
    truth = synthetic.make_baseline_truth(COUNTRIES, AGES, YEARS, seed=seed)
    annual = synthetic.sample_annual_panel(truth, exposure=2e5, seed=seed + 1)
    pandemic = synthetic.make_pandemic_truth(COVID_AGES, seed=seed + 2)
    phi = synthetic.seasonal_phi(0.18)
    rows = COVID_AGES - AGES[0]
    weekly, seasonal = {}, {}
    for ci, c in enumerate(COUNTRIES):
        for gi, g in enumerate(GENDERS):
            mu = np.exp(synthetic.true_ln_mu(truth, c, g)[rows, -1])
            weekly[(c, g)] = synthetic.sample_weekly_panel(
                c, g, pandemic, np.stack([mu, mu], axis=1), phi=phi,
                seed=seed + 3 + 2 * ci + gi)
            seasonal[(c, g)] = SeasonalEffect(country=c, gender=g, knots=12, coeffs=None,
                                              phi=phi)
    return {"truth": truth, "pandemic": pandemic, "annual": annual,
            "weekly": weekly, "seasonal": seasonal}


def run_pass(inputs):
    """The timed work: every baseline and pandemic-layer fit."""
    model = baseline.calibrate_baseline(inputs["annual"])
    fits = {}
    for (c, g), panel in inputs["weekly"].items():
        mu = covid_layer.group_baseline_mu(model, c, g, panel.ages, panel.years)
        for method in (1, 2):
            seasonal = inputs["seasonal"][(c, g)] if method == 2 else None
            pred = covid_layer.predicted_deaths(panel, mu, seasonal=seasonal, method=method)
            fits[(c, g, method)] = (covid_layer.calibrate_covid(panel, pred, method), pred)
    return model, fits


def result_digest(model, fits):
    h = hashlib.sha256()
    for name in ("A", "B", "K", "alpha", "beta", "kappa"):
        table = getattr(model, name)
        for key in sorted(table):
            h.update(np.ascontiguousarray(table[key]).tobytes())
    for key in sorted(fits):
        layer = fits[key][0]
        h.update(layer.B.tobytes())
        h.update(layer.K.tobytes())
    return h.hexdigest()


def check_pass(inputs, model, fits):
    """Max |score| over all 86 fits, and the problems found against the truth."""
    scores = checks.baseline_scores(inputs["annual"], model)
    for (c, g, _), (layer, pred) in fits.items():
        scores += checks.covid_scores(inputs["weekly"][(c, g)], pred, layer)
    score, problems = checks.fit_accuracy(scores)
    return score, problems + checks.recovery_errors(model, [f[0] for f in fits.values()],
                                                    inputs["truth"], inputs["pandemic"])


def inputs_digest(inputs):
    h = hashlib.sha256(inputs["annual"].deaths.tobytes())
    for key in sorted(inputs["weekly"]):
        h.update(np.nan_to_num(inputs["weekly"][key].deaths).tobytes())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    clock = speed.Clock()
    setup_s, digests = [], set()
    for _ in range(speed.SETUP_REPEATS):
        inputs, wall, ref = clock.time(make_inputs, args.seed)
        setup_s.append([wall, ref])
        digests.add(inputs_digest(inputs))

    passes = []
    checked = {}
    deadline = time.perf_counter() + args.seconds
    while (len(passes) < 1 + args.trace or time.perf_counter()
           + statistics.median(p["wall_s"] for p in passes) <= deadline):
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracing.Tracer()
        if traced:
            tracer.install()
        try:
            (model, fits), wall, ref = clock.time(run_pass, inputs)
        finally:
            tracer.uninstall()
        digest = result_digest(model, fits)
        if digest not in checked:
            checked[digest] = check_pass(inputs, model, fits)
        score, problems = checked[digest]
        record = {"wall_s": wall, "ref_s": ref, "traced": traced, "digest": digest,
                  "fit_max_score": score, "problems": problems}
        if traced:
            record["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        passes.append(record)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "inputs_repeat": len(digests) == 1,
                   "passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
