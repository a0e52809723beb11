"""Weekly exposure reconstruction and death disaggregation.

Weekly exposures are not observed; they are rebuilt from start-of-year
population snapshots and grouped weekly death counts.  The calendar
convention treats every year as 52 weeks of 7 days (364 days: February 28
days, December 30 days); a 53rd week reuses the 52nd week's exposure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .datastore import AgeIndex, WeeklyPanel, weeks_in_iso_year
from .errors import IngestError, ValidationError

log = logging.getLogger(__name__)

# Month lengths under the 364-day convention (Feb = 28, Dec = 30).
MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 30)
YEAR_DAYS = 364
EXPOSURE_SCALE = 7.0 / 365.0

assert sum(MONTH_DAYS) == YEAR_DAYS == 52 * 7


@dataclass(frozen=True)
class PopulationSnapshot:
    """One gender's population counts per individual age on a reference date."""

    date: tuple  # (year, month, day); day is always 1
    gender: str
    ages: np.ndarray
    counts: np.ndarray

    def validate(self):
        if len(self.counts) != len(self.ages):
            raise ValidationError("PopulationSnapshot: counts length != ages length")
        if not np.isfinite(self.counts).all():
            raise ValidationError("PopulationSnapshot: non-finite population count")
        if (self.counts < 0).any():
            raise ValidationError("PopulationSnapshot: negative population count")
        return self


def disaggregate_deaths(panel, historical, hist_years):
    """Allocate grouped weekly deaths to individual ages by historical shares.

    A group's shares are its ages' deaths in ``historical`` over ``hist_years``
    (typically 2015-2019).  Group sums are preserved exactly: the per-age
    deaths are the group count times these fixed shares.  Returns a new
    WeeklyPanel on individual ages.
    """
    ci = historical.country_index(panel.country)
    gi = 0 if panel.gender == "m" else 1
    yi = np.isin(historical.years, np.asarray(hist_years))
    totals = historical.deaths[ci, gi][:, yi].sum(axis=1)
    ages, blocks = [], []
    for group, group_deaths in zip(panel.ages, panel.deaths):
        group_ages = np.fromiter(group.ages, dtype=int)
        ai = np.isin(historical.ages, group_ages)
        if ai.sum() != len(group_ages):
            missing = sorted(set(group.ages) - set(historical.ages.tolist()))
            raise IngestError(
                f"ages {missing} of group {group.label} missing from historical panel")
        denom = totals[ai].sum()
        if denom <= 0:
            raise IngestError(f"historical deaths for group {group.label} sum to zero")
        s = totals[ai] / denom
        if not np.all(np.isfinite(s)):
            raise IngestError(f"non-finite historical shares for group {group.label}")
        ages.extend(group.ages)
        blocks.append(s[:, None, None] * group_deaths)
    return WeeklyPanel(
        country=panel.country,
        gender=panel.gender,
        ages=tuple(AgeIndex(a, a) for a in ages),
        years=panel.years,
        deaths=np.concatenate(blocks),
    )


def cohort_deaths(deaths_xw):
    """Reallocate week-w deaths at current age x to the age the person would
    have had on 31 December: C[x,w] = (1 - w/w_t) D[x-1,w] + (w/w_t) D[x,w],
    where w_t is the year's week count, the number of columns of ``deaths_xw``.

    The lowest age has no younger neighbour (its D[x-1] term is 0) and the
    top age absorbs its own out-aging mass, so column totals are preserved.
    """
    deaths_xw = np.asarray(deaths_xw, dtype=float)
    w_t = deaths_xw.shape[1]
    w = np.arange(1, w_t + 1) / w_t
    shifted = np.vstack([np.zeros((1, w_t)), deaths_xw[:-1]])
    c = (1.0 - w)[None, :] * shifted + w[None, :] * deaths_xw
    c[-1] += (1.0 - w) * deaths_xw[-1]  # top age keeps people aging out
    return c


def project_population(start_pop, cohort_dxw):
    """Project week-start populations through a year from a 1 January snapshot.

    ``start_pop[x]`` is the population at the start of week 1; ``cohort_dxw``
    are the cohort deaths from :func:`cohort_deaths`, one column for each of
    the year's w_t weeks.  Returns the (nages, w_t + 1) week-start populations;
    week w_t + 1 starts the next year.  Births are assumed uniform over the
    year, so the population at age x blends the cohorts starting at x and x - 1.
    """
    start_pop = np.asarray(start_pop, dtype=float)
    if (start_pop < 0).any():
        raise ValidationError("project_population: negative start population")
    cum = np.cumsum(cohort_dxw, axis=1)  # sum_{i<=w} C[x, i]
    w_t = cum.shape[1]
    # For the lowest age the incoming cohort (births during the year) is
    # approximated by the current age-0 count; above the top age no deaths
    # are subtracted.
    below = np.concatenate([[start_pop[0]], start_pop[:-1]])
    cum_above = np.vstack([cum[1:], np.zeros((1, w_t))])
    r = np.arange(1, w_t + 1) / w_t
    p = (1.0 - r) * (start_pop[:, None] - cum_above) + r * (below[:, None] - cum)
    neg = p < 0
    if neg.any():
        log.warning("project_population: clamped %d negative week populations to 0", neg.sum())
    return np.hstack([start_pop[:, None], np.where(neg, 0.0, p)])


def weekly_exposures_from_projection(pop_xw, w_t):
    """Weekly exposures from week-start populations: mean of the bracketing
    week starts times 7/365.  Week 53, when present, copies week 52."""
    pop_xw = np.asarray(pop_xw, dtype=float)
    n_base = min(w_t, 52)
    e = 0.5 * (pop_xw[:, :n_base] + pop_xw[:, 1 : n_base + 1]) * EXPOSURE_SCALE
    if w_t == 53:
        e = np.hstack([e, e[:, -1:]])
    return e


def _month_start_days(n_months):
    """Day index (0-based from the first snapshot) of each first-of-month."""
    days = [0]
    for i in range(n_months - 1):
        days.append(days[-1] + MONTH_DAYS[i % 12])
    return np.array(days)


def weekly_exposures_monthly_interpolation(snapshots, years):
    """Weekly exposures from monthly population snapshots.

    Daily populations come from linear interpolation between consecutive
    first-of-month snapshots under the 364-day calendar; the exposure for
    week w is the average of the week-start and week-end population times
    7/365.  ``snapshots`` must be sorted, start in January of ``years[0]``
    and extend at least one month past the last needed week.
    """
    if len(snapshots) < 2:
        raise IngestError("monthly interpolation needs at least two snapshots")
    dates = [s.date for s in snapshots]
    if dates != sorted(dates):
        raise IngestError("snapshots must be sorted by date")
    y0, m0, _ = dates[0]
    if (y0, m0) != (years[0], 1):
        raise IngestError(f"first snapshot must be January {years[0]}, got {dates[0]}")
    for i, s in enumerate(snapshots):
        expect = (y0 + (m0 - 1 + i) // 12, (m0 - 1 + i) % 12 + 1, 1)
        if s.date != expect:
            raise IngestError(f"snapshot gap: expected {expect}, got {s.date}")
        if not np.array_equal(s.ages, snapshots[0].ages):
            raise IngestError("snapshots disagree on age coverage")
    pop = np.stack([s.counts for s in snapshots], axis=1)  # (nages, nmonths)
    month_days = _month_start_days(len(snapshots))
    total_days = month_days[-1]

    def pop_at_day(d):
        d = np.minimum(d, total_days)
        return np.array([np.interp(d, month_days, row) for row in pop])

    out = {}
    year_offset = 0
    for t in years:
        w_t = weeks_in_iso_year(t)
        if year_offset + YEAR_DAYS > total_days:
            raise IngestError(f"snapshots do not cover year {t}")
        starts = year_offset + 7 * np.arange(min(w_t, 52) + 1)
        p = pop_at_day(starts)
        out[t] = weekly_exposures_from_projection(p, w_t)
        year_offset += YEAR_DAYS
    return out
