"""Calibration of the pandemic layer: an age effect and a free week effect
fitted by Poisson MLE against pre-pandemic predicted deaths.

Method 1 sets the seasonal effect to one, so seasonality ends up inside the
week effect; Method 2 applies the fitted seasonal effect to the predictions
first, so the week effect captures only the pandemic deviation.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from .baseline import baseline_mu, fit_bilinear_poisson, score
from .datastore import MAX_WEEKS, AgeIndex, CovidLayer, WeeklyPanel, week_mask
from .errors import NumericalError, ValidationError
from .exposures import disaggregate_deaths

log = logging.getLogger(__name__)


def group_baseline_mu(model, country, gender, ages, years):
    """Baseline mu per age index: individual ages directly, groups as the
    unweighted mean of their member ages inside the model's age range.
    One `baseline_mu` call covers the member ages of all groups; when every
    index is a single age inside that range, its rows are the result."""
    low, high = model.ages[0], model.ages[-1]
    if all(a.is_individual and low <= a.low <= high for a in ages):
        return baseline_mu(model, country, gender, [a.low for a in ages], years)
    members = []
    for a in ages:
        member = range(max(a.low, low), min(a.high, high) + 1)
        if not member:
            raise ValidationError(f"age index {a.label} outside baseline range")
        members.append(member)
    sub = baseline_mu(model, country, gender, [x for m in members for x in m], years)
    ends = np.cumsum([len(m) for m in members])
    return np.stack([sub[end - 1] if len(m) == 1 else sub[end - len(m):end].mean(axis=0)
                     for m, end in zip(members, ends)])


def predicted_deaths(panel, mu, seasonal, method):
    """Expected weekly deaths from the pre-pandemic model: E * mu * phi.

    ``mu`` has shape (nages, nyears) on the panel's age indices; ``seasonal``
    is the fitted SeasonalEffect, unused under Method 1, where phi is one.
    Returns an array shaped like ``panel.deaths`` (NaN-padded).
    """
    if method not in (1, 2):
        raise ValidationError("method must be 1 or 2")
    if method == 2 and seasonal is None:
        raise ValidationError("Method 2 requires a fitted seasonal effect")
    panel.validate(require_exposures=True)
    if mu.shape != (len(panel.ages), len(panel.years)):
        raise ValidationError("predicted_deaths: mu shape does not match the panel")
    phi = np.ones(MAX_WEEKS) if method == 1 else seasonal.phi
    used = week_mask(panel.years)
    return np.where(used, panel.exposures * mu[:, :, None] * phi, np.nan)


def calibrate_covid(panel, pred, method):
    """Fit the pandemic age effect B and week effect K.

    Maximizes sum(D * B K - Dpred * exp(B K)) over used cells, with ||B|| = 1
    and sum(B) >= 0; K is free per (year, week).  Returns a CovidLayer.
    """
    nages = len(panel.ages)
    used = week_mask(panel.years)
    D = np.ascontiguousarray(panel.deaths[:, used])
    P = np.ascontiguousarray(pred[:, used])
    if not np.isfinite(D).all() or not np.isfinite(P).all():
        raise ValidationError("non-finite cells in pandemic calibration")
    if (P <= 0).any():
        raise ValidationError("predicted deaths must be positive on all used cells")
    if D.sum() == 0:
        raise NumericalError("all-zero death counts; pandemic layer undefined")

    # Start from the fit's uniform age effect and week effects matching weekly totals.
    tot_d = D.sum(axis=0)
    tot_p = P.sum(axis=0)
    with np.errstate(divide="ignore"):
        k0 = np.where(tot_d > 0, np.sqrt(nages) * np.log(np.maximum(tot_d, 1e-300) / tot_p), 0.0)
    _, b, k, trace = fit_bilinear_poisson(D, P, fit_level=False, k0=k0)
    if b.sum() < 0:
        b, k = -b, -k
    log.info(
        "pandemic stage %s/%s method %d: %d iterations, lnL=%.6f",
        panel.country, panel.gender, method, trace[-1][0], trace[-1][1],
    )
    K = np.full((len(panel.years), MAX_WEEKS), np.nan)
    K[used] = k
    return CovidLayer(
        country=panel.country, gender=panel.gender, ages=panel.ages,
        years=panel.years, method=method, B=b, K=K,
    ).validate()


# `score` of the pandemic fit (no level term) -> (db, dk).
def score_covid(b, k, D, P):
    return score(D, P, np.zeros(len(b)), b, k)[1:]


def flatten_weeks(layer_or_panel, array):
    """Flatten a (nyears, 53) NaN-padded week array to the used columns."""
    return array[week_mask(layer_or_panel.years)]


# The last group of each level is open-ended; aggregation clips it to the
# panel's top age.
GRANULARITY_LEVELS = {
    2: [(lo, lo + 4) for lo in range(0, 90, 5)] + [(90, 200)],
    3: [(0, 14), (15, 64), (65, 74), (75, 84), (85, 200)],
}


def aggregate_to_groups(panel, bounds):
    """Sum an individual-age WeeklyPanel into contiguous age groups.

    ``bounds`` is a list of (low, high) pairs; groups are clipped to the
    panel's age range, and groups outside it are dropped.
    """
    if not all(a.is_individual for a in panel.ages):
        raise ValidationError("aggregation requires individual-age data")
    ages = np.array([a.low for a in panel.ages])
    bottom, top = ages.min(), ages.max()
    groups = []
    rows = []
    for lo, hi in bounds:
        lo, hi = max(lo, bottom), min(hi, top)
        if lo > top:
            break
        sel = (ages >= lo) & (ages <= hi)
        if not sel.any():
            continue
        groups.append(AgeIndex(lo, hi))
        rows.append(panel.deaths[sel].sum(axis=0))
    deaths = np.stack(rows)
    expo = None
    if panel.exposures is not None:
        expo = np.stack(
            [panel.exposures[(ages >= g.low) & (ages <= g.high)].sum(axis=0) for g in groups]
        )
    return WeeklyPanel(
        country=panel.country, gender=panel.gender, ages=tuple(groups),
        years=panel.years, deaths=deaths, exposures=expo,
    )


def run_granularity_study(panel, historical, model, seasonal, hist_years, levels=(1, 2, 3),
                          method=2):
    """Refit the pandemic layer at several data granularities.

    Level 1 uses individual-age deaths directly; levels 2 and 3 first
    aggregate them into age groups and then disaggregate back to individual
    ages by their shares in ``hist_years``, exactly as for externally grouped
    data.  Requires an individual-age ``panel`` with exposures.
    """
    if not all(a.is_individual for a in panel.ages):
        raise ValidationError("granularity study requires individual-age input data")
    panel.validate(require_exposures=True)
    results = {}
    for level in levels:
        if level == 1:
            work = panel
        else:
            grouped = aggregate_to_groups(panel, GRANULARITY_LEVELS[level])
            work = disaggregate_deaths(grouped, historical, hist_years)
            work = replace(work, exposures=panel.exposures)
        years = work.years
        mu = group_baseline_mu(model, work.country, work.gender, work.ages, years)
        pred = predicted_deaths(work, mu, seasonal=seasonal, method=method)
        results[level] = calibrate_covid(work, pred, method)
    return results
