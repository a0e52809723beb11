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
DEFAULT_KNOTS = 12


def weekly_fractions(panel):
    """Observed fraction of annual mortality per week, scaled so 1 means a
    uniform spread: f[t, w] = D[t, w] / sum_w D[t, w] * w_t.

    ``panel`` is a WeeklyPanel; deaths are summed over its age axis.  Returns
    a dict year -> fraction vector of length w_t.
    """
    if len(panel.years) < 2:
        raise ValidationError("weekly fractions need at least 2 years of data")
    used = week_mask(panel.years, panel.weeks_in_year)
    totals = np.where(used, panel.deaths, 0.0).sum(axis=0)
    year_totals = totals.sum(axis=1)  # the zero pad adds +0.0 last: see `weekly_mean_factor`
    empty = year_totals <= 0
    if empty.any():
        raise ValidationError(f"year {panel.years[np.argmax(empty)]} has zero total deaths")
    weeks = used.sum(axis=1)
    fractions = totals / year_totals[:, None] * weeks[:, None]
    return dict(zip(panel.years, np.split(fractions[used], np.cumsum(weeks)[:-1])))


def _basis_knots(k):
    h = PERIOD / k
    return np.arange(-3, k + 4) * h


def _bspline_basis(x, t, k):
    """Dense (len(x), len(t) - k - 1) matrix of the degree-k B-spline basis on
    knots ``t`` at the points ``x``.

    Vectorised form of de Boor's recurrence as SciPy's ``_deBoor_D`` runs it,
    in the same order of operations, so the entries equal SciPy's ``BSpline``
    ones bit for bit.  Points outside [t[k], t[-k-1]] use the end polynomial
    pieces.  The knots must be strictly increasing, as `_basis_knots` makes
    them.
    """
    n_basis = len(t) - k - 1
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n_basis - 1)
    h = np.zeros((len(x), k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            xb = t[ell + n]
            xa = t[ell + n - j]
            w = hh[:, n - 1] / (xb - xa)
            h[:, n - 1] += w * (xb - x)
            h[:, n] = w * (x - xa)
    out = np.zeros((len(x), n_basis))
    out[np.arange(len(x))[:, None], ell[:, None] + np.arange(-k, 1)] = h
    return out


def cyclic_design_matrix(x, k):
    """Design matrix of the k-coefficient periodic cubic spline basis at x.

    Built from an ordinary cubic B-spline basis on [0, 52] whose columns are
    folded modulo k, which enforces periodic continuity up to the second
    derivative.
    """
    x = np.mod(np.asarray(x, dtype=float), PERIOD)
    spl = _bspline_basis(x, _basis_knots(k), 3)
    folded = np.zeros((len(x), k))
    for j in range(spl.shape[1]):
        folded[:, j % k] += spl[:, j]
    return folded


def fit_seasonal_spline(fractions, country="", gender="", knots=DEFAULT_KNOTS):
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
