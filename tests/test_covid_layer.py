import numpy as np
import pytest

import pandmort.covid_layer as cv
import pandmort.synthetic as sy
from pandmort.datastore import AgeIndex, SeasonalEffect
from pandmort.errors import NumericalError, ValidationError
from util import assert_covid_constraints


@pytest.fixture(scope="module")
def weekly_setup(pandemic_truth, phi_truth):
    mu = np.tile(np.exp(-5.0 + 0.055 * np.arange(91))[:, None], (1, 2))
    panel = sy.sample_weekly_panel("AAA", "m", pandemic_truth, mu,
                                   phi=phi_truth, seed=17)
    eff = SeasonalEffect(country="AAA", gender="m", knots=12, coeffs=None,
                         phi=phi_truth)
    return {"panel": panel, "mu": mu, "seasonal": eff}


def test_group_baseline_mu_individual(baseline_model):
    ages = (AgeIndex(60, 60), AgeIndex(61, 61))
    mu = cv.group_baseline_mu(baseline_model, "AAA", "m", ages, np.array([2019]))
    import pandmort.baseline as bl

    direct = bl.baseline_mu(baseline_model, "AAA", "m", np.array([60, 61]),
                            np.array([2019]))
    np.testing.assert_allclose(mu, direct)


def test_group_baseline_mu_groups_average(baseline_model):
    ages = (AgeIndex(60, 64),)
    mu = cv.group_baseline_mu(baseline_model, "AAA", "m", ages, np.array([2019]))
    import pandmort.baseline as bl

    direct = bl.baseline_mu(baseline_model, "AAA", "m", np.arange(60, 65),
                            np.array([2019]))
    np.testing.assert_allclose(mu[0], direct.mean(axis=0))


def test_group_baseline_mu_outside_range(baseline_model):
    with pytest.raises(ValidationError):
        cv.group_baseline_mu(baseline_model, "AAA", "m", (AgeIndex(95, 99),),
                             np.array([2019]))


def test_predicted_deaths_methods(weekly_setup):
    panel, mu, eff = weekly_setup["panel"], weekly_setup["mu"], weekly_setup["seasonal"]
    p1 = cv.predicted_deaths(panel, mu, method=1)
    p2 = cv.predicted_deaths(panel, mu, seasonal=eff, method=2)
    w = 0  # first week, phi > 1 in winter
    assert (p2[:, 0, w] > p1[:, 0, w]).all()
    np.testing.assert_allclose(
        p1[:, 0, 0], panel.exposures[:, 0, 0] * mu[:, 0], rtol=1e-12
    )
    with pytest.raises(ValidationError):
        cv.predicted_deaths(panel, mu, method=2)  # seasonal missing
    with pytest.raises(ValidationError):
        cv.predicted_deaths(panel, mu, method=3)


def test_calibrate_covid_recovers_truth(weekly_setup, pandemic_truth):
    panel, mu, eff = weekly_setup["panel"], weekly_setup["mu"], weekly_setup["seasonal"]
    pred = cv.predicted_deaths(panel, mu, seasonal=eff, method=2)
    layer = cv.calibrate_covid(panel, pred, method=2)
    assert_covid_constraints(layer)
    assert np.corrcoef(layer.B, pandemic_truth["B"])[0, 1] > 0.99
    used = ~np.isnan(pandemic_truth["K"])
    # K is identified up to the norm of B; both are unit-norm so directly comparable
    assert np.corrcoef(layer.K[used], pandemic_truth["K"][used])[0, 1] > 0.99


def test_calibrate_covid_all_zero_deaths(weekly_setup):
    from dataclasses import replace

    panel = weekly_setup["panel"]
    zero = replace(panel, deaths=np.where(np.isnan(panel.deaths), np.nan, 0.0))
    pred = cv.predicted_deaths(zero, weekly_setup["mu"], method=1)
    with pytest.raises(NumericalError):
        cv.calibrate_covid(zero, pred, method=1)


def test_calibrate_covid_rejects_nonpositive_pred(weekly_setup):
    panel = weekly_setup["panel"]
    pred = cv.predicted_deaths(panel, weekly_setup["mu"], method=1)
    pred[3, 0, 3] = 0.0
    with pytest.raises(ValidationError):
        cv.calibrate_covid(panel, pred, method=1)


def test_flatten_weeks(weekly_setup):
    panel = weekly_setup["panel"]
    arr = np.zeros((2, 53))
    arr[0, :53] = np.arange(53)
    arr[1, :52] = np.arange(52) + 100
    flat = cv.flatten_weeks(panel, arr)
    assert len(flat) == 105
    assert flat[0] == 0 and flat[52] == 52 and flat[53] == 100


def test_aggregate_to_groups(weekly_setup):
    panel = weekly_setup["panel"]
    grouped = cv.aggregate_to_groups(panel, cv.GRANULARITY_LEVELS[3])
    assert [a.label for a in grouped.ages] == ["0_14", "15_64", "65_74", "75_84", "85_90"]
    used = ~np.isnan(grouped.deaths[0])
    total_before = np.nansum(panel.deaths)
    total_after = np.nansum(grouped.deaths)
    assert total_after == pytest.approx(total_before, rel=1e-12)
    # exposures aggregate alongside deaths
    assert grouped.exposures is not None
    assert np.nansum(grouped.exposures) == pytest.approx(np.nansum(panel.exposures), rel=1e-12)


def test_aggregate_requires_individual_ages(weekly_setup):
    grouped = cv.aggregate_to_groups(weekly_setup["panel"], cv.GRANULARITY_LEVELS[2])
    with pytest.raises(ValidationError):
        cv.aggregate_to_groups(grouped, cv.GRANULARITY_LEVELS[3])


def test_granularity_levels_two_and_one_agree(weekly_setup, annual_panel,
                                              baseline_model):
    res = cv.run_granularity_study(
        weekly_setup["panel"], annual_panel, baseline_model,
        weekly_setup["seasonal"], levels=(1, 2), method=2,
    )
    k1 = cv.flatten_weeks(res[1], res[1].K)
    k2 = cv.flatten_weeks(res[2], res[2].K)
    assert np.abs(k2 - k1).max() < 0.1
    for layer in res.values():
        assert_covid_constraints(layer)


def test_granularity_study_on_ages_40_to_110():
    import pandmort.baseline as bl

    ages = np.arange(40, 111)
    truth = sy.make_baseline_truth(("AAA",), ages, np.arange(2000, 2020), seed=5)
    annual = sy.sample_annual_panel(truth, exposure=1e6, seed=6)
    model = bl.calibrate_baseline(annual)
    mu_last = np.exp(sy.true_ln_mu(truth, "AAA", "m")[:, -1])
    phi = sy.seasonal_phi(0.18)
    panel = sy.sample_weekly_panel("AAA", "m", sy.make_pandemic_truth(ages, seed=3),
                                   np.stack([mu_last, mu_last], axis=1), phi=phi, seed=21)
    eff = SeasonalEffect(country="AAA", gender="m", knots=12, coeffs=None, phi=phi)
    res = cv.run_granularity_study(panel, annual, model, eff, levels=(1, 2, 3))
    for level in (1, 2, 3):
        assert res[level].ages == panel.ages
        assert_covid_constraints(res[level])
