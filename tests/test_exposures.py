import numpy as np
import pytest

import pandmort.covid_layer as cv
import pandmort.exposures as ex
import pandmort.ingest as ig
from pandmort.datastore import MAX_WEEKS, AgeIndex, WeeklyPanel
from pandmort.errors import IngestError, ValidationError
from util import daily_microsim


def _grouped(*groups):
    """A one-year weekly AAA/m panel with 100 deaths in every week of each group."""
    return WeeklyPanel(country="AAA", gender="m", ages=groups, years=(2020,),
                       deaths=np.full((len(groups), 1, MAX_WEEKS), 100.0))


def test_disaggregation_uses_historical_age_shares(annual_panel):
    back = ex.disaggregate_deaths(_grouped(AgeIndex(80, 84)), annual_panel, range(2015, 2020))
    assert back.ages == tuple(AgeIndex(x, x) for x in range(80, 85))
    s = back.deaths[:, 0, 0] / 100.0
    assert abs(s.sum() - 1.0) < 1e-12
    assert (s > 0).all()
    # mortality rises with age at constant exposure, so shares should too
    assert s[-1] > s[0]
    hist = annual_panel.deaths[0, 0, 80:85][:, np.isin(annual_panel.years, range(2015, 2020))]
    np.testing.assert_allclose(s, hist.sum(axis=1) / hist.sum(), rtol=1e-14)


def test_disaggregation_missing_historical_age(annual_panel):
    with pytest.raises(IngestError) as info:
        ex.disaggregate_deaths(_grouped(AgeIndex(80, 84), AgeIndex(88, 95)), annual_panel,
                               range(2015, 2020))
    assert str(info.value) == ("ages [91, 92, 93, 94, 95] of group 88_95 missing from "
                               "historical panel")


def test_disaggregation_preserves_group_totals(annual_panel, pandemic_truth, phi_truth):
    import pandmort.synthetic as sy

    mu = np.tile(np.exp(-5.0 + 0.05 * np.arange(91))[:, None], (1, 2))
    indiv = sy.sample_weekly_panel("AAA", "m", pandemic_truth, mu, phi=phi_truth, seed=12)
    bounds = [(lo, lo + 4) for lo in range(0, 90, 5)] + [(90, 90)]
    grouped = cv.aggregate_to_groups(indiv, bounds)
    back = ex.disaggregate_deaths(grouped, annual_panel, range(2015, 2020))
    assert all(a.is_individual for a in back.ages)
    pos = 0
    for gidx, group in enumerate(grouped.ages):
        n = len(list(group.ages))
        got = np.nansum(back.deaths[pos : pos + n], axis=0)
        want = np.where(np.isnan(grouped.deaths[gidx]), 0.0, grouped.deaths[gidx])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        pos += n


def test_cohort_deaths_mass_preserving():
    rng = np.random.default_rng(3)
    d = rng.uniform(0.0, 50.0, (10, 52))
    c = ex.cohort_deaths(d)
    np.testing.assert_allclose(c.sum(axis=0), d.sum(axis=0), rtol=1e-14)
    # week-1 deaths stay almost entirely with the younger label
    assert c[0, 0] == pytest.approx(d[0, 0] / 52.0)


@pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                          (-1.0, "negative")])
def test_population_snapshot_rejects_bad_counts(bad, message):
    snap = ex.PopulationSnapshot((2020, 1, 1), "m", np.arange(3), np.array([5.0, bad, 5.0]))
    with pytest.raises(ValidationError, match=message):
        snap.validate()


def test_project_population_monotone_no_deaths():
    start = np.linspace(1000.0, 500.0, 8)
    c = np.zeros((8, 52))
    p = ex.project_population(start, c)
    assert p.shape == (8, 53)
    np.testing.assert_allclose(p[:, 0], start)
    # pure aging: the final column equals the previous-age start population
    np.testing.assert_allclose(p[1:, -1], start[:-1])


def test_project_population_matches_daily_microsim():
    ages = np.arange(12)
    start = 1000.0 + 50.0 * ages
    annual_m = 0.01 * np.exp(0.15 * ages)
    daily_m = 1.0 - (1.0 - annual_m) ** (1.0 / 364.0)
    end_pop, deaths = daily_microsim(start, daily_m)
    c = ex.cohort_deaths(deaths)
    p = ex.project_population(start, c)
    # open top age uses a different boundary convention, compare interior
    rel = np.abs(p[:-1, -1] - end_pop[:-1]) / end_pop[:-1]
    assert rel.max() < 5e-3


def test_project_population_clamps_negative(caplog):
    start = np.array([10.0, 10.0])
    deaths = np.zeros((2, 52))
    deaths[1] = 5.0  # far more deaths than people
    c = ex.cohort_deaths(deaths)
    with caplog.at_level("WARNING"):
        p = ex.project_population(start, c)
    assert (p >= 0.0).all()
    assert any("clamped" in r.message for r in caplog.records)


def test_weekly_exposures_week53_copies_week52():
    pop = np.linspace(100.0, 90.0, 54)[None, :]
    e = ex.weekly_exposures_from_projection(pop, 53)
    assert e.shape == (1, 53)
    assert e[0, 52] == e[0, 51]
    assert e[0, 0] == pytest.approx(0.5 * (pop[0, 0] + pop[0, 1]) * 7.0 / 365.0)


def test_monthly_interpolation_constant_population():
    ages = np.arange(5)
    snaps = []
    for i in range(14):
        y, m = 2021 + i // 12, i % 12 + 1
        snaps.append(ex.PopulationSnapshot(
            date=(y, m, 1), gender="m",
            ages=ages, counts=np.full(5, 1000.0),
        ))
    out = ex.weekly_exposures_monthly_interpolation(snaps, [2021])
    assert set(out) == {2021}
    np.testing.assert_allclose(out[2021], 1000.0 * 7.0 / 365.0)


def test_monthly_interpolation_requires_coverage():
    ages = np.arange(3)
    snaps = [
        ex.PopulationSnapshot((2021, m, 1), "m", ages, np.full(3, 10.0))
        for m in (1, 2, 3)
    ]
    with pytest.raises(IngestError, match="cover"):
        ex.weekly_exposures_monthly_interpolation(snaps, [2021])


def test_monthly_interpolation_rejects_gap():
    ages = np.arange(3)
    snaps = [
        ex.PopulationSnapshot((2021, m, 1), "m", ages, np.full(3, 10.0))
        for m in (1, 3, 4)
    ]
    with pytest.raises(IngestError, match="gap"):
        ex.weekly_exposures_monthly_interpolation(snaps, [2021])
