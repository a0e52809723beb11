"""The array forms of four weekly-grid functions return what their per-year
and per-week loop forms in ``util`` returned, bit for bit, or raise the same
error, on random grids whose years mix 52- and 53-week ISO years and whose
age counts are not multiples of 8."""

import logging

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pandmort.annualize_forecast as af
import pandmort.covid_layer as cv
import pandmort.exposures as ex
import pandmort.seasonal as se
import util
from pandmort.datastore import (
    MAX_WEEKS, AgeIndex, CovidLayer, SeasonalEffect, WeeklyPanel, week_mask, weeks_in_iso_year,
)
from pandmort.errors import PandmortError

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
AGE_COUNTS = st.integers(1, 21).filter(lambda n: n % 8)
YEARS = st.integers(2004, 2027)  # 2004, 2009, 2015, 2020 and 2026 have 53 ISO weeks


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PandmortError as exc:
        return type(exc), str(exc)


class _Messages(logging.Handler):
    """Collects the text of every record logged while it is attached to the root."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _logged(fn, *args):
    handler = _Messages()
    logging.getLogger().addHandler(handler)
    try:
        return fn(*args), handler.messages
    finally:
        logging.getLogger().removeHandler(handler)


@st.composite
def grids(draw):
    """A seeded generator, the number of ages and increasing years, among
    them a long year such as 2015 or 2020 and a 52-week one."""
    long_year = draw(YEARS.filter(lambda t: weeks_in_iso_year(t) == 53))
    short_year = draw(YEARS.filter(lambda t: weeks_in_iso_year(t) == 52))
    years = tuple(sorted({long_year, short_year, *draw(st.lists(YEARS, max_size=3))}))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, draw(AGE_COUNTS), years


def _padded(rng, nages, years, values):
    """``values`` of shape (nages, nyears, 53), NaN outside the weeks that exist."""
    return np.where(week_mask(years), values(rng, (nages, len(years), MAX_WEEKS)), np.nan)


def _counts(rng, shape, zeros=0.2):
    """Log-uniform counts over five decades, about ``zeros`` of them 0."""
    counts = 10.0 ** rng.uniform(-1, 4, shape)
    return np.where(rng.random(shape) < zeros, 0.0, counts)


def _panel(rng, nages, years):
    return WeeklyPanel(
        country="AAA", gender="f", ages=tuple(AgeIndex(x, x) for x in range(nages)),
        years=years, deaths=_padded(rng, nages, years, _counts),
        exposures=_padded(rng, nages, years, lambda rng, shape: _counts(rng, shape, zeros=0.0)),
    )


def _phi(rng):
    return np.exp(rng.normal(0.0, 0.2, MAX_WEEKS))


@SETTINGS
@given(grids(), st.sampled_from((1, 2)))
def test_predicted_deaths_matches_loop(grid, method):
    rng, nages, years = grid
    panel = _panel(rng, nages, years)
    mu = 10.0 ** rng.uniform(-5, 0, (nages, len(years)))
    seasonal = SeasonalEffect(country="AAA", gender="f", phi=_phi(rng), knots=12)
    want = util.loop_predicted_deaths(panel, mu, seasonal=seasonal, method=method)
    assert _same_bits(cv.predicted_deaths(panel, mu, seasonal=seasonal, method=method), want)


@SETTINGS
@given(grids(), st.floats(0.1, 20.0))
def test_weekly_mean_factor_matches_loop(grid, spread):
    rng, nages, years = grid
    B = rng.normal(size=nages)
    layer = CovidLayer(
        country="AAA", gender="f", ages=tuple(AgeIndex(x, x) for x in range(nages)),
        years=years, method=2, B=B / np.linalg.norm(B),
        K=_padded(rng, 1, years, lambda rng, shape: rng.normal(0.0, spread, shape))[0],
    )
    phi = _phi(rng)
    assert _same_bits(af.weekly_mean_factor(layer, phi), util.loop_weekly_mean_factor(layer, phi))


@SETTINGS
@given(grids(), st.booleans())
def test_weekly_fractions_matches_loop(grid, empty_year):
    rng, nages, years = grid
    panel = _panel(rng, nages, years)
    if empty_year:  # a year without deaths is an error, in either form
        panel.deaths[:, rng.integers(len(years))] *= 0.0
    got, want = _outcome(se.weekly_fractions, panel), _outcome(util.loop_weekly_fractions, panel)
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got) == list(want)
    assert all(_same_bits(got[t], want[t]) for t in want)


@SETTINGS
@given(AGE_COUNTS, st.sampled_from((52, 53)), st.integers(0, 2**32 - 1), st.booleans())
def test_project_population_matches_loop(nages, w_t, seed, heavy):
    rng = np.random.default_rng(seed)
    start = np.where(rng.random(nages) < 0.1, 0.0, rng.uniform(0.0, 1e5, nages))
    # heavy: each age loses about three times the largest start population,
    # so some week populations go negative and are clamped
    scale = 6.0 * start.max() / w_t if heavy else 0.05 * start.mean() / w_t
    cohort = ex.cohort_deaths(rng.uniform(0.0, scale, (nages, w_t)))
    got, got_log = _logged(ex.project_population, start, cohort)
    want, want_log = _logged(util.loop_project_population, start, cohort, w_t)
    assert _same_bits(got, want)
    assert got_log == want_log
    if heavy and start.max() > 0:
        assert len(got_log) == 1 and "clamped" in got_log[0]
