import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pandmort.baseline as bl
import pandmort.covid_layer as cv
import pandmort.synthetic as sy
from pandmort.datastore import GENDERS, AgeIndex, SeasonalEffect
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_array_mu_equals_scalar_mu(baseline_model, data):
    """`baseline_mu` over arrays of ages and years, and `group_baseline_mu`
    over groups, equal the mu computed one age and one year at a time."""
    model = baseline_model
    first, last, top = int(model.years[0]), int(model.years[-1]), int(model.ages[-1])
    country = data.draw(st.sampled_from(model.countries))
    gender = data.draw(st.sampled_from(GENDERS))
    years = data.draw(st.lists(st.integers(first, last), min_size=1, max_size=4))
    years += data.draw(st.lists(st.integers(last + 1, last + 40), min_size=1, max_size=4))
    years = np.array(data.draw(st.permutations(years)))
    ages = np.array(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=6)))

    def scalar_rows(member):
        return np.array([[bl.baseline_mu(model, country, gender, [x], [t])[0, 0] for t in years]
                         for x in member])

    np.testing.assert_array_equal(bl.baseline_mu(model, country, gender, ages, years),
                                  scalar_rows(ages))

    # 5-year groups, individual ages, and an open group clipped to the model's top age.
    groups = [AgeIndex(lo, lo + 4) for lo in data.draw(
        st.lists(st.sampled_from(range(0, top - 4, 5)), min_size=1, max_size=4))]
    groups += [AgeIndex(x, x) for x in ages[:2]] + [AgeIndex(top - 4, top + 20)]
    groups = data.draw(st.permutations(groups))
    expected = []
    for g in groups:
        rows = scalar_rows([x for x in g.ages if x <= top])
        expected.append(rows[0] if len(rows) == 1 else rows.mean(axis=0))
    np.testing.assert_array_equal(cv.group_baseline_mu(model, country, gender, groups, years),
                                  np.array(expected))


def test_group_baseline_mu_outside_range(baseline_model):
    with pytest.raises(ValidationError):
        cv.group_baseline_mu(baseline_model, "AAA", "m", (AgeIndex(95, 99),),
                             np.array([2019]))


def test_group_baseline_mu_single_ages_take_the_rows_of_the_general_path(baseline_model):
    """Single ages alone return `baseline_mu`'s rows; beside a group, which
    takes the path that averages member ages, they get the same bits."""
    years = np.array([1970, 2019, 2020, 2035])
    ages = tuple(AgeIndex(x, x) for x in (0, 47, 46, 90))
    alone = cv.group_baseline_mu(baseline_model, "BBB", "f", ages, years)
    mixed = cv.group_baseline_mu(baseline_model, "BBB", "f", ages + (AgeIndex(60, 64),), years)
    assert alone.shape == (4, 4) and alone.dtype == mixed.dtype
    assert alone.tobytes() == mixed[:-1].tobytes()
    assert alone.tobytes() == bl.baseline_mu(baseline_model, "BBB", "f", [0, 47, 46, 90],
                                             years).tobytes()
    np.testing.assert_array_equal(
        mixed[-1], bl.baseline_mu(baseline_model, "BBB", "f", np.arange(60, 65),
                                  years).mean(axis=0))


@pytest.mark.parametrize("ages, label", [
    ((AgeIndex(95, 99),), "95_99"),
    ((AgeIndex(50, 50), AgeIndex(91, 91)), "91"),
    ((AgeIndex(-1, -1), AgeIndex(40, 44)), "-1"),
])
def test_group_baseline_mu_names_the_index_outside_the_range(baseline_model, ages, label):
    with pytest.raises(ValidationError) as err:
        cv.group_baseline_mu(baseline_model, "AAA", "m", ages, np.array([2019]))
    assert str(err.value) == f"age index {label} outside baseline range"


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
    # a mu for one year is not spread over both, and one an age short is no bare ValueError
    for part in (np.s_[:, :1], np.s_[:-1]):
        with pytest.raises(ValidationError) as err:
            cv.predicted_deaths(panel, mu[part], method=1)
        assert str(err.value) == "predicted_deaths: mu shape does not match the panel"


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
        weekly_setup["seasonal"], range(2015, 2020), levels=(1, 2), method=2,
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
    res = cv.run_granularity_study(panel, annual, model, eff, range(2015, 2020),
                                   levels=(1, 2, 3))
    for level in (1, 2, 3):
        assert res[level].ages == panel.ages
        assert_covid_constraints(res[level])
