import numpy as np
import pytest

import pandmort.coda as coda_mod
import pandmort.seasonal as se
import pandmort.synthetic as sy
from pandmort.datastore import (
    AgeIndex,
    AnnualPanel,
    WeeklyPanel,
    check_age_partition,
    load_model,
    read_annual_panel_csv,
    read_weekly_panel_csv,
    save_model,
    write_annual_panel_csv,
    write_weekly_panel_csv,
)
from pandmort.errors import ParseError, ValidationError


def test_age_index_labels():
    assert AgeIndex(5, 5).label == "5"
    assert AgeIndex(0, 4).label == "0_4"
    assert AgeIndex.from_label("90_110") == AgeIndex(90, 110)
    assert AgeIndex.from_label("7") == AgeIndex(7, 7)
    assert AgeIndex(5, 5).is_individual
    assert not AgeIndex(5, 9).is_individual
    assert list(AgeIndex(3, 5).ages) == [3, 4, 5]


def test_age_index_rejects_inverted_bounds():
    with pytest.raises(ValidationError):
        AgeIndex(10, 5)


def test_age_partition_check():
    check_age_partition([AgeIndex(0, 4), AgeIndex(5, 9), AgeIndex(10, 10)])
    with pytest.raises(ValidationError):
        check_age_partition([AgeIndex(0, 4), AgeIndex(6, 9)])
    with pytest.raises(ValidationError):
        check_age_partition([AgeIndex(0, 4), AgeIndex(4, 9)])


def test_annual_panel_select_and_aggregate(annual_panel):
    sub = annual_panel.select(ages=np.arange(60, 71), years=np.arange(2000, 2010))
    assert sub.deaths.shape == (2, 2, 11, 10)
    assert list(sub.ages) == list(range(60, 71))
    D, E = annual_panel.aggregate()
    assert D.shape == (2, len(annual_panel.ages), len(annual_panel.years))
    np.testing.assert_allclose(D, annual_panel.deaths.sum(axis=0))


def test_annual_panel_merge_mismatch(annual_panel):
    a = annual_panel.select(years=np.arange(1970, 2020))
    b = annual_panel.select(years=np.arange(1980, 2020))
    with pytest.raises(ValidationError):
        AnnualPanel.merge([a, b])


def test_annual_panel_rejects_negative_deaths(annual_panel):
    bad = annual_panel.deaths.copy()
    bad[0, 0, 0, 0] = -1.0
    from dataclasses import replace

    with pytest.raises(ValidationError):
        replace(annual_panel, deaths=bad).validate()


def _weekly(pandemic_truth, phi_truth):
    mu = np.tile(np.exp(-5.0 + 0.05 * np.arange(91))[:, None], (1, 2))
    return sy.sample_weekly_panel("AAA", "m", pandemic_truth, mu, phi=phi_truth, seed=8)


def test_weekly_panel_select(pandemic_truth, phi_truth):
    wp = _weekly(pandemic_truth, phi_truth)
    sub = wp.select_ages(40, 60)
    assert len(sub.ages) == 21
    assert sub.ages[0] == AgeIndex(40, 40)
    only2021 = wp.select_years([2021])
    assert only2021.years == (2021,)
    assert np.isnan(only2021.deaths[:, 0, 52]).all()  # 2021 has 52 weeks


def test_weekly_panel_validate_requires_exposures(pandemic_truth, phi_truth):
    from dataclasses import replace

    wp = replace(_weekly(pandemic_truth, phi_truth), exposures=None)
    wp.validate()
    with pytest.raises(ValidationError):
        wp.validate(require_exposures=True)


def test_baseline_model_roundtrip(baseline_model, tmp_path):
    path = tmp_path / "model.csv"
    save_model(baseline_model, str(path))
    back = load_model(str(path))
    for g in ("m", "f"):
        np.testing.assert_array_equal(back.K[g], baseline_model.K[g])
        np.testing.assert_array_equal(back.B[g], baseline_model.B[g])
        np.testing.assert_array_equal(back.A[g], baseline_model.A[g])
    for key in baseline_model.alpha:
        np.testing.assert_array_equal(back.alpha[key], baseline_model.alpha[key])
        np.testing.assert_array_equal(back.beta[key], baseline_model.beta[key])
        np.testing.assert_array_equal(back.kappa[key], baseline_model.kappa[key])
    np.testing.assert_array_equal(back.sigma, baseline_model.sigma)
    assert back.theta == baseline_model.theta
    assert first_line(path) == "#schema:BaselineModel v1"


def first_line(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readline().strip()


def test_seasonal_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    phi = sy.seasonal_phi(0.2)
    fractions = {}
    for t in range(2010, 2018):
        wt = 52 if t != 2015 else 53
        f = phi[:wt] / phi[:wt].sum() * (1.0 + rng.normal(0, 0.01, wt))
        fractions[t] = f / f.sum()
    eff = se.fit_seasonal_spline(fractions, country="AAA", gender="m")
    path = tmp_path / "seasonal.csv"
    save_model(eff, str(path))
    back = load_model(str(path))
    np.testing.assert_array_equal(back.phi, eff.phi)
    np.testing.assert_array_equal(back.coeffs, eff.coeffs)
    assert back.knots == eff.knots


def test_covid_layer_roundtrip(pandemic_truth, phi_truth, tmp_path):
    import pandmort.covid_layer as cv

    wp = _weekly(pandemic_truth, phi_truth)
    mu = np.tile(np.exp(-5.0 + 0.05 * np.arange(91))[:, None], (1, 2))
    pred = cv.predicted_deaths(wp, mu, method=1)
    layer = cv.calibrate_covid(wp, pred, method=1)
    path = tmp_path / "covid.csv"
    save_model(layer, str(path))
    back = load_model(str(path))
    np.testing.assert_array_equal(back.B, layer.B)
    np.testing.assert_array_equal(back.K[~np.isnan(layer.K)], layer.K[~np.isnan(layer.K)])
    assert back.method == layer.method
    assert back.ages == layer.ages
    assert back.weeks_in_year == layer.weeks_in_year


def test_coda_roundtrip(pandemic_truth, phi_truth, tmp_path):
    wp = _weekly(pandemic_truth, phi_truth)
    d, _ = wp.cells(2020)
    fit = coda_mod.coda_fit(d, np.arange(91), 2020, "m")
    path = tmp_path / "coda.csv"
    save_model(fit, str(path))
    back = load_model(str(path))
    np.testing.assert_array_equal(back.beta, fit.beta)
    np.testing.assert_array_equal(back.kappa, fit.kappa)
    np.testing.assert_array_equal(back.alpha, fit.alpha)
    assert back.explained_variance == fit.explained_variance


def test_load_model_tolerates_comment_lines(baseline_model, tmp_path):
    path = tmp_path / "model.csv"
    save_model(baseline_model, str(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("#confighash:deadbeef\n")
    back = load_model(str(path))
    np.testing.assert_array_equal(back.K["m"], baseline_model.K["m"])


def test_load_model_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#schema:BaselineModel v1\n")
        fh.write("garbage line without commas\n")
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert "line 2" in str(err.value)


def test_load_model_unknown_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("#schema:Mystery v1\n")
    with pytest.raises(ParseError):
        load_model(str(path))


def test_annual_panel_csv_roundtrip(annual_panel, tmp_path):
    path = tmp_path / "panel.csv"
    sub = annual_panel.select(ages=np.arange(50, 61), years=np.arange(2010, 2020))
    write_annual_panel_csv(sub, str(path))
    back = read_annual_panel_csv(str(path))
    assert back.countries == sub.countries
    np.testing.assert_array_equal(back.deaths, sub.deaths)
    np.testing.assert_array_equal(back.exposures, sub.exposures)


def test_weekly_panel_csv_roundtrip(pandemic_truth, phi_truth, tmp_path):
    wp = _weekly(pandemic_truth, phi_truth)
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(wp, str(path))
    back = read_weekly_panel_csv(str(path), "AAA", "m")
    assert back.weeks_in_year == wp.weeks_in_year
    used = ~np.isnan(wp.deaths)
    np.testing.assert_array_equal(back.deaths[used], wp.deaths[used])
    np.testing.assert_array_equal(back.exposures[used], wp.exposures[used])


# ---------------------------------------------------------------------------
# panel CSV reader contract


def _small_annual():
    rng = np.random.default_rng(4)
    shape = (2, 2, 3, 4)
    return AnnualPanel(
        countries=("BBB", "AAA"), ages=np.arange(60, 63), years=np.arange(2000, 2004),
        deaths=rng.integers(0, 50, shape).astype(float),
        exposures=rng.uniform(1e3, 1e4, shape),
    )


def _small_weekly(with_exposures=True):
    rng = np.random.default_rng(5)
    ages = (AgeIndex(90, 110), AgeIndex(5, 9), AgeIndex(10, 10))
    years = (2020, 2021)
    deaths = np.full((3, 2, 53), np.nan)
    deaths[:, 0, :53] = rng.integers(0, 30, (3, 53))
    deaths[:, 1, :52] = rng.integers(0, 30, (3, 52))
    expos = None
    if with_exposures:
        expos = np.where(np.isnan(deaths), np.nan, rng.uniform(100.0, 200.0, deaths.shape))
    return WeeklyPanel(country="AAA", gender="f", ages=ages, years=years,
                       weeks_in_year={2020: 53, 2021: 52}, deaths=deaths, exposures=expos)


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _assert_weekly_equal(a, b):
    assert (a.country, a.gender, a.ages, a.years) == (b.country, b.gender, b.ages, b.years)
    assert a.weeks_in_year == b.weeks_in_year
    np.testing.assert_array_equal(a.deaths, b.deaths)
    if a.exposures is None:
        assert b.exposures is None
    else:
        np.testing.assert_array_equal(a.exposures, b.exposures)


def _shuffle_keeping_first_seen(lines, key):
    """Shuffle data rows, keeping the first row of each key value in front and
    in file order, so that first-appearance orders survive the shuffle."""
    header, body = lines[0], lines[1:]
    firsts, seen, rest = [], set(), []
    for line in body:
        k = key(line)
        (rest if k in seen else firsts).append(line)
        seen.add(k)
    np.random.default_rng(9).shuffle(rest)
    return [header] + firsts + rest


def test_annual_panel_csv_contract_header(tmp_path):
    path = tmp_path / "panel.csv"
    write_annual_panel_csv(_small_annual(), str(path))
    _rewrite(path, lambda ls: ["country,gender,age,year,deaths,exposures"] + ls[1:])
    with pytest.raises(ParseError, match="line 1"):
        read_annual_panel_csv(str(path))


def test_annual_panel_csv_contract_field_count(tmp_path):
    path = tmp_path / "panel.csv"
    write_annual_panel_csv(_small_annual(), str(path))
    # line 5 of the file loses its exposure field; a comment and a blank
    # line before it must still count towards the line number
    _rewrite(path, lambda ls: ls[:2] + ["# note", ""] + [ls[2].rsplit(",", 1)[0]] + ls[3:])
    with pytest.raises(ParseError, match="line 5: expected 6 fields"):
        read_annual_panel_csv(str(path))


def test_annual_panel_csv_contract_missing_cell(tmp_path):
    path = tmp_path / "panel.csv"
    write_annual_panel_csv(_small_annual(), str(path))
    _rewrite(path, lambda ls: ls[:7] + ls[8:])
    with pytest.raises(ParseError, match="missing cell"):
        read_annual_panel_csv(str(path))


def test_annual_panel_csv_contract_blank_and_comment_lines(tmp_path):
    panel = _small_annual()
    path = tmp_path / "panel.csv"
    write_annual_panel_csv(panel, str(path))
    _rewrite(path, lambda ls: ls[:1] + ["", "#x,y", "   "] + ls[1:9] + ["# mid"] + ls[9:]
             + ["#confighash:0123"])
    back = read_annual_panel_csv(str(path))
    assert back.countries == panel.countries
    np.testing.assert_array_equal(back.ages, panel.ages)
    np.testing.assert_array_equal(back.years, panel.years)
    np.testing.assert_array_equal(back.deaths, panel.deaths)
    np.testing.assert_array_equal(back.exposures, panel.exposures)


def test_annual_panel_csv_contract_shuffled_rows(tmp_path):
    panel = _small_annual()
    path = tmp_path / "panel.csv"
    write_annual_panel_csv(panel, str(path))
    _rewrite(path, lambda ls: _shuffle_keeping_first_seen(ls, lambda line: line.split(",")[0]))
    back = read_annual_panel_csv(str(path))
    assert back.countries == ("BBB", "AAA")  # first appearance, not sorted
    np.testing.assert_array_equal(back.ages, panel.ages)
    np.testing.assert_array_equal(back.years, panel.years)
    np.testing.assert_array_equal(back.deaths, panel.deaths)
    np.testing.assert_array_equal(back.exposures, panel.exposures)


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls[:3] + [ls[3].replace(",60,", ",sixty,")] + ls[4:], "line 4: bad number"),
    (lambda ls: ls[:3] + [ls[3].replace(",m,", ",x,")] + ls[4:], "line 4: unknown gender"),
    (lambda ls: ls + [ls[3]], "duplicate cell"),
])
def test_annual_panel_csv_contract_malformed_rows(tmp_path, edit, message):
    path = tmp_path / "panel.csv"
    write_annual_panel_csv(_small_annual(), str(path))
    _rewrite(path, edit)
    with pytest.raises(ParseError, match=message):
        read_annual_panel_csv(str(path))


@pytest.mark.parametrize("with_exposures", [True, False])
def test_weekly_panel_csv_contract_roundtrip(tmp_path, with_exposures):
    panel = _small_weekly(with_exposures)
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(panel, str(path))
    if not with_exposures:
        assert path.read_text(encoding="utf-8").splitlines()[1].endswith(",")
    _assert_weekly_equal(read_weekly_panel_csv(str(path), "AAA", "f"), panel)


def test_weekly_panel_csv_contract_header_and_field_count(tmp_path):
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(_small_weekly(), str(path))
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("age,year,week", "age,year,wk", 1), encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        read_weekly_panel_csv(str(path), "AAA", "f")
    path.write_text(text, encoding="utf-8")
    _rewrite(path, lambda ls: ls[:1] + ["#", ""] + ls[1:4] + [ls[4] + ",1"] + ls[5:])
    with pytest.raises(ParseError, match="line 7: expected 5 fields"):
        read_weekly_panel_csv(str(path), "AAA", "f")


def test_weekly_panel_csv_contract_missing_cell(tmp_path):
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(_small_weekly(), str(path))
    _rewrite(path, lambda ls: [line for line in ls if not line.startswith("5_9,2021,17,")])
    with pytest.raises(ParseError, match="missing cell age 5_9, year 2021, week 17"):
        read_weekly_panel_csv(str(path), "AAA", "f")


def test_weekly_panel_csv_contract_blank_comment_and_shuffled_rows(tmp_path):
    panel = _small_weekly()
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(panel, str(path))
    _rewrite(path, lambda ls: _shuffle_keeping_first_seen(ls, lambda line: line.split(",")[0])
             + ["", "#confighash:0123"])
    back = read_weekly_panel_csv(str(path), "AAA", "f")
    assert back.ages == panel.ages  # first appearance, not sorted
    _assert_weekly_equal(back, panel)


@pytest.mark.parametrize("week", ["0", "54", "x"])
def test_weekly_panel_csv_contract_malformed_week(tmp_path, week):
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(_small_weekly(), str(path))
    _rewrite(path, lambda ls: ls + [f"10,2021,{week},1,150"])
    with pytest.raises(ParseError):
        read_weekly_panel_csv(str(path), "AAA", "f")


def test_weekly_panel_csv_contract_exposure_on_some_rows_only(tmp_path):
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(_small_weekly(), str(path))
    _rewrite(path, lambda ls: ls[:5] + [ls[5].rsplit(",", 1)[0] + ","] + ls[6:])
    with pytest.raises(ParseError, match="line 6: exposure given on some rows only"):
        read_weekly_panel_csv(str(path), "AAA", "f")
