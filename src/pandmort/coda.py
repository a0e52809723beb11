"""Exposure-free compositional analysis of weekly death counts.

Weekly counts are perturbed by +1 (to remove zeros), closed to per-week
compositions, transformed to centered log-ratios, centered on the average
composition and decomposed by a rank-1 SVD.
"""

from __future__ import annotations

import numpy as np

from .datastore import CodaFit
from .errors import ValidationError

DEGENERATE_TOL = 1e-12


def closure(counts):
    """Scale each row to sum to one."""
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum(axis=1, keepdims=True)


def clr(compositions):
    """Centered log-ratio per row: log c minus its row mean."""
    logs = np.log(compositions)
    return logs - logs.mean(axis=1, keepdims=True)


def inverse_clr(z):
    """Map clr coordinates back to compositions summing to one per row."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def coda_fit(deaths_xw, ages, year, gender, perturb=True):
    """Rank-1 compositional fit of one year's weekly death counts.

    ``deaths_xw`` has shape (nages, nweeks).  Steps: +1 perturbation, weekly
    closure, clr, centering on the mean clr (the clr of the geometric-mean
    composition), rank-1 SVD.  The age-effect sign is anchored so the oldest
    ages (80+) load positively; the week scores are the corresponding scaled
    left singular vector.
    """
    deaths_xw = np.asarray(deaths_xw, dtype=float)
    ages = np.asarray(ages)
    if deaths_xw.shape[0] != len(ages):
        raise ValidationError("coda_fit: deaths rows != number of ages")
    if not np.isfinite(deaths_xw).all():
        raise ValidationError("coda_fit: non-finite death counts")
    if (deaths_xw < 0).any():
        raise ValidationError("coda_fit: negative death counts")
    counts = deaths_xw.T + (1.0 if perturb else 0.0)  # rows = weeks
    if (counts <= 0).any():
        raise ValidationError("coda_fit: non-positive counts; enable the +1 perturbation")
    L = clr(closure(counts))
    alpha = L.mean(axis=0)
    M = L - alpha
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    total = (s**2).sum()
    if total < DEGENERATE_TOL:
        beta = np.zeros(len(ages))
        beta[0], beta[-1] = 1.0 / np.sqrt(2), -1.0 / np.sqrt(2)
        beta -= beta.mean()
        beta /= np.linalg.norm(beta)
        kappa, ev = np.zeros(counts.shape[0]), 0.0
    else:
        beta = Vt[0]
        kappa = s[0] * U[:, 0]
        if beta[ages >= 80].sum() < 0:
            beta, kappa = -beta, -kappa
        ev = s[0] ** 2 / total
    return CodaFit(
        year=year, gender=gender, ages=ages, alpha=alpha, beta=beta,
        kappa=kappa, explained_variance=float(ev),
    ).validate()


def reconstruct_compositions(fit):
    """Inverse-clr of the rank-1 reconstruction; rows (weeks) sum to one."""
    return inverse_clr(fit.alpha[None, :] + np.outer(fit.kappa, fit.beta))


def standardized_weekly_deaths(totals):
    """Z-scores of weekly total deaths within one year (population stdev)."""
    totals = np.asarray(totals, dtype=float)
    if len(totals) < 2:
        raise ValidationError("standardization needs at least 2 weeks")
    sd = totals.std()
    if sd == 0:
        raise ValidationError("zero variance in weekly totals")
    return (totals - totals.mean()) / sd
