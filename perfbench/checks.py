"""Output checks shared by the pipeline and calibration workloads.

Each check compares a fit with the synthetic truth it was sampled from, or
measures how far a fit is from a stationary point of its likelihood through
the package's public analytic scores.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from pandmort import baseline, covid_layer
from pandmort.datastore import GENDERS

# Recovery tolerances, set from the worst value seen over seeds 1-12 with a
# margin (see perfbench/README.md).  The pandemic age effect carries a bias
# of about 0.04 through the pipeline's grouped weekly input and about 0.06
# under Method 1, which leaves seasonality in the fit.
MIN_K_CORRELATION = 0.9999
MAX_B_ERROR = 0.1
# Largest |score| component allowed at a returned fit; the worst over seeds
# 1-40 of the calibration workload is 213.
MAX_FIT_SCORE = 500.0


def tree_digest(root):
    """SHA-256 over every file's relative path and bytes, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
            total += len(data)
    return h.hexdigest(), total


def baseline_scores(panel, model):
    """Score vectors of every common and country fit of a baseline model."""
    scores = []
    D, E = panel.aggregate()
    for gi, g in enumerate(GENDERS):
        scores += baseline.score_common(model.A[g], model.B[g], model.K[g], D[gi], E[gi])
        base = np.outer(model.B[g], model.K[g])
        for c in model.countries:
            Dc, Ec = panel.country(c)
            key = (c, g)
            scores += baseline.score_country(model.alpha[key], model.beta[key], model.kappa[key],
                                             base, Dc[gi], Ec[gi])
    return scores


def week_columns(panel, array):
    """(nages, nyears, 53) -> (nages, used weeks), in calibrate_covid's order."""
    return np.concatenate([array[:, j, : panel.weeks_in_year[t]]
                           for j, t in enumerate(panel.years)], axis=1)


def covid_scores(panel, pred, layer):
    """Score vectors of one pandemic-layer fit."""
    k = covid_layer.flatten_weeks(layer, layer.K)
    return list(covid_layer.score_covid(layer.B, k, week_columns(panel, panel.deaths),
                                        week_columns(panel, pred)))


def fit_accuracy(scores):
    """-> (largest |component| over the score vectors, problems): the fits
    must be this close to a stationary point of their likelihood."""
    worst = max(float(np.abs(v).max()) for v in scores)
    if worst <= MAX_FIT_SCORE:
        return worst, []
    return worst, [f"fit max |score| {worst:.6g} > {MAX_FIT_SCORE}"]


def recovery_errors(model, layers, truth, pandemic):
    """Problems found comparing fits with the synthetic truth: the common
    period effect K per gender, and the pandemic age effect B per layer
    against the truth on the layer's ages (renormalized)."""
    problems = []
    for g in GENDERS:
        r = np.corrcoef(model.K[g], truth["K"][g])[0, 1]
        if not r >= MIN_K_CORRELATION:
            problems.append(f"K[{g}] correlation with truth {r:.6f} < {MIN_K_CORRELATION}")
    true_ages = list(np.asarray(pandemic["ages"]))
    for layer in layers:
        sel = [true_ages.index(a.low) for a in layer.ages]
        b = pandemic["B"][sel] / np.linalg.norm(pandemic["B"][sel])
        err = float(np.abs(layer.B - b).max())
        if not err <= MAX_B_ERROR:
            problems.append(f"pandemic B {layer.country}/{layer.gender} method {layer.method}: "
                            f"max error {err:.4f} > {MAX_B_ERROR}")
    return problems
