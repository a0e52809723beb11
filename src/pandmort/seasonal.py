"""Estimation of the multiplicative weekly seasonal effect.

The weekly fraction of annual mortality is computed per historical year,
averaged across years, and smoothed with a periodic (cyclic) cubic spline so
that value and derivatives match across the week-52/week-1 boundary.  The
result is normalized to mean one over weeks 1..52; week 53 repeats week 52.
"""

from __future__ import annotations

import numpy as np

from .datastore import MAX_WEEKS, SeasonalEffect, week_mask
from .errors import NumericalError, ValidationError

PERIOD = 52.0


def weekly_fractions(panel):
    """Observed fraction of annual mortality per week, scaled so 1 means a
    uniform spread: f[t, w] = D[t, w] / sum_w D[t, w] * w_t.

    ``panel`` is a WeeklyPanel; deaths are summed over its age axis.  Returns
    a dict year -> fraction vector of length w_t.
    """
    if len(panel.years) < 2:
        raise ValidationError("weekly fractions need at least 2 years of data")
    used = week_mask(panel.years)
    totals = np.where(used, panel.deaths, 0.0).sum(axis=0)
    year_totals = totals.sum(axis=1)  # the zero pad adds +0.0 last: see `weekly_mean_factor`
    empty = year_totals <= 0
    if empty.any():
        raise ValidationError(f"year {panel.years[np.argmax(empty)]} has zero total deaths")
    weeks = used.sum(axis=1)
    fractions = totals / year_totals[:, None] * weeks[:, None]
    return dict(zip(panel.years, np.split(fractions[used], np.cumsum(weeks)[:-1])))


def cyclic_design_matrix(x, k):
    """Design matrix of the k-coefficient periodic cubic spline basis at x.

    The uniform cubic B-spline on knots 52/k weeks apart: a point in knot
    interval i at fraction f of it has four nonzero weights, placed in
    columns i..i+3 modulo k, which makes the curve periodic up to the
    second derivative.
    """
    u = np.mod(np.asarray(x, dtype=float), PERIOD) / (PERIOD / k)
    i = np.floor(u)
    f, g = u - i, 1.0 - (u - i)
    weights = np.stack([g**3, 3 * f**3 - 6 * f**2 + 4, 3 * g**3 - 6 * g**2 + 4, f**3], axis=1) / 6
    out = np.zeros((len(u), k))
    out[np.arange(len(u))[:, None], (i.astype(int)[:, None] + np.arange(4)) % k] = weights
    return out


def fit_seasonal_spline(fractions, country, gender, knots):
    """Least-squares periodic-spline fit to the across-year average fraction.

    ``fractions`` is the output of :func:`weekly_fractions`.  Weeks beyond 52
    (from 53-week years) are folded into the week-52 average.  The fitted
    curve must stay strictly positive; otherwise fitting fails rather than
    truncating, because the effect multiplies a force of mortality.
    """
    if not 4 <= knots <= PERIOD:  # one coefficient per knot, fitted to 52 weekly averages
        raise ValidationError(f"cyclic spline needs 4 to {PERIOD:g} knots, got {knots}")
    sums = np.zeros(52)
    counts = np.zeros(52)
    for f in fractions.values():
        n = min(len(f), 52)
        sums[:n] += f[:n]
        counts[:n] += 1
        if len(f) == 53:
            sums[51] += f[52]
            counts[51] += 1
    if (counts == 0).any():
        raise ValidationError("fractions must cover all 52 weeks")
    target = sums / counts
    weeks = np.arange(1, 53, dtype=float)
    X = cyclic_design_matrix(weeks, knots)
    coeffs, *_ = np.linalg.lstsq(X, target, rcond=None)
    phi52 = X @ coeffs

    # Positivity check on a fine grid, not just the week points.
    grid = np.linspace(0.0, PERIOD, 1041)
    if (cyclic_design_matrix(grid, knots) @ coeffs <= 0).any():
        raise NumericalError("fitted seasonal spline is non-positive")

    scale = phi52.mean()
    coeffs = coeffs / scale
    phi52 = phi52 / scale
    phi = np.empty(MAX_WEEKS)
    phi[:52] = phi52
    phi[52] = phi52[51]
    return SeasonalEffect(country=country, gender=gender, phi=phi, knots=knots, coeffs=coeffs).validate()
