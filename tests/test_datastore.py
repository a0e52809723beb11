import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pandmort.coda as coda_mod
import pandmort.seasonal as se
import pandmort.synthetic as sy
from pandmort.datastore import (
    GENDERS,
    MAX_WEEKS,
    AgeIndex,
    AnnualEffects,
    AnnualPanel,
    BaselineModel,
    CodaFit,
    CovidLayer,
    SeasonalEffect,
    WeeklyPanel,
    check_age_partition,
    format_rows,
    load_model,
    read_annual_panel_csv,
    read_weekly_panel_csv,
    save_model,
    week_mask,
    weeks_in_iso_year,
    write_annual_panel_csv,
    write_table,
    write_weekly_panel_csv,
)
from pandmort.errors import ParseError, ValidationError


def test_age_index_labels():
    assert AgeIndex(5, 5).label == "5"
    assert AgeIndex(0, 4).label == "0_4"
    assert AgeIndex.from_label("90_110") == AgeIndex(90, 110)
    assert AgeIndex.from_label("7") == AgeIndex(7, 7)
    with pytest.raises(ValueError):
        AgeIndex.from_label("1_2_3")
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


def _valid_weekly_panel():
    """Two ages over 2019 (52 weeks), 2020 (53) and 2021 (52), with exposures,
    and a negative death count in the week that 2019 does not have."""
    years = (2019, 2020, 2021)
    used = np.broadcast_to(week_mask(years), (2, 3, MAX_WEEKS))
    deaths = np.where(used, 5.0, np.nan)
    deaths[0, 0, 52] = -1.0
    return WeeklyPanel(country="AAA", gender="m", ages=(AgeIndex(40, 40), AgeIndex(41, 41)),
                       years=years, deaths=deaths,
                       exposures=np.where(used, 1e3, np.nan))


def _with_cell(name, value):
    def corrupt(panel, j):
        array = getattr(panel, name).copy()
        array[1, j, 3] = value
        return dataclasses.replace(panel, **{name: array})
    return corrupt


# Each way a year can fail `WeeklyPanel.validate`, in the order it checks them.
VALIDATE_FAILURES = {
    "non-finite deaths": (_with_cell("deaths", np.nan), "non-finite deaths in year {}"),
    "negative deaths": (_with_cell("deaths", -1.0), "negative deaths in year {}"),
    "non-finite exposures": (_with_cell("exposures", np.inf), "non-finite exposures in year {}"),
    "non-positive exposures": (_with_cell("exposures", 0.0), "non-positive exposure in year {}"),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_FAILURES))
def test_weekly_panel_validate_names_the_first_failing_year(case):
    """One failing year is named with its failure; when a later year fails too,
    in any way, the message is still that of the first."""
    panel = _valid_weekly_panel().validate(require_exposures=True)
    corrupt, message = VALIDATE_FAILURES[case]
    broken = corrupt(panel, 1)
    for later in [None] + sorted(VALIDATE_FAILURES):
        worse = broken if later is None else VALIDATE_FAILURES[later][0](broken, 2)
        with pytest.raises(ValidationError) as err:
            worse.validate()
        assert str(err.value) == "WeeklyPanel: " + message.format(2020)


@pytest.mark.parametrize("extra", [(1, 0, 0), (0, 0, 60 - MAX_WEEKS)], ids=["age row", "60 weeks"])
def test_weekly_panel_validate_checks_the_exposures_shape(extra):
    """Exposures off the deaths' grid, by an extra age row or by 60 weeks, are
    a ValidationError, not a broadcasting error in the fit that follows."""
    panel = _valid_weekly_panel()
    exposures = np.full(np.add(panel.deaths.shape, extra), 1e3)
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(panel, exposures=exposures).validate(require_exposures=True)
    assert str(err.value) == f"WeeklyPanel: exposures shape != {panel.deaths.shape}"


def test_weekly_panel_validate_checks_cells_before_missing_exposures():
    panel = dataclasses.replace(_valid_weekly_panel(), exposures=None).validate()
    with pytest.raises(ValidationError) as err:
        panel.validate(require_exposures=True)
    assert str(err.value) == "WeeklyPanel: exposures required but missing"
    with pytest.raises(ValidationError) as err:
        _with_cell("deaths", -2.0)(panel, 2).validate(require_exposures=True)
    assert str(err.value) == "WeeklyPanel: negative deaths in year 2021"


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
    assert first_line(path) == "#schema:BaselineModel v3"


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


@pytest.mark.parametrize("coeffs, message", [
    (np.arange(6.0), "SeasonalEffect: coeffs length != knots"),
    (None, "SeasonalEffect: spline coefficients missing; cannot save"),
], ids=["six-coeffs-four-knots", "no-coeffs"])
def test_save_model_refuses_a_seasonal_effect_it_cannot_write_whole(tmp_path, coeffs, message):
    eff = SeasonalEffect(country="AAA", gender="m", phi=np.ones(MAX_WEEKS), knots=4, coeffs=coeffs)
    path = tmp_path / "seasonal.csv"
    with pytest.raises(ValidationError, match=re.escape(message)):
        save_model(eff, str(path))
    assert not path.exists()


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
    assert back.years == layer.years


def test_coda_roundtrip(pandemic_truth, phi_truth, tmp_path):
    wp = _weekly(pandemic_truth, phi_truth)
    d = wp.deaths[:, wp.years.index(2020), :weeks_in_iso_year(2020)]
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
        fh.write("#schema:BaselineModel v3\n")
        fh.write("garbage line without commas\n")
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert "line 2" in str(err.value)


def test_load_model_unknown_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("#schema:Mystery v3\n")
    with pytest.raises(ParseError):
        load_model(str(path))


def test_write_table_formats_rows_from_the_row_string(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, "stage,value", format_rows("%s,%s\n"))  # no rows: the header only
    assert path.read_text() == "stage,value\n"
    values = [0.1, np.inf, np.nan]
    write_table(path, "name,short,digits", format_rows("%s,%s,%.17g\n", ("a", "b", "c"),
                                                       values, np.array(values)))
    assert path.read_text() == ("name,short,digits\n"
                                "a,0.1,0.10000000000000001\nb,inf,inf\nc,nan,nan\n")
    # a two-dimensional column is read in C order; the header may span lines
    write_table(path, "# preamble\nyear,count", format_rows(
        "%d,%.2f\n", [[2020, 2020], [2021, 2021]], np.array([[1.0, 2.5], [3.0, 4.125]])))
    assert path.read_text() == ("# preamble\nyear,count\n"
                                "2020,1.00\n2020,2.50\n2021,3.00\n2021,4.12\n")
    # several row texts are written one after the other
    write_table(path, "year,count", format_rows("%d,%d\n", [2020], [1]), "",
                format_rows("%d,%d\n", [2021, 2022], [2, 3]))
    assert path.read_text() == "year,count\n2020,1\n2021,2\n2022,3\n"


def test_annual_panel_csv_roundtrip(annual_panel, tmp_path):
    path = tmp_path / "panel.csv"
    sub = annual_panel.select(ages=np.arange(50, 61), years=np.arange(2010, 2020))
    write_annual_panel_csv(sub, str(path))
    back = read_annual_panel_csv(str(path))
    assert back.countries == sub.countries
    np.testing.assert_array_equal(back.deaths, sub.deaths)
    np.testing.assert_array_equal(back.exposures, sub.exposures)


def test_weekly_panel_csv_roundtrip(pandemic_truth, phi_truth, tmp_path):
    wp = dataclasses.replace(_weekly(pandemic_truth, phi_truth), exposures=None)
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(wp, str(path))
    back = read_weekly_panel_csv(str(path), "AAA", "m")
    assert back.years == wp.years
    used = ~np.isnan(wp.deaths)
    np.testing.assert_array_equal(back.deaths[used], wp.deaths[used])
    assert back.exposures is None


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


def _small_weekly():
    rng = np.random.default_rng(5)
    ages = (AgeIndex(90, 110), AgeIndex(5, 9), AgeIndex(10, 10))
    years = (2020, 2021)
    deaths = np.full((3, 2, 53), np.nan)
    deaths[:, 0, :53] = rng.integers(0, 30, (3, 53))
    deaths[:, 1, :52] = rng.integers(0, 30, (3, 52))
    return WeeklyPanel(country="AAA", gender="f", ages=ages, years=years, deaths=deaths)


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _assert_weekly_equal(a, b):
    assert (a.country, a.gender, a.ages, a.years) == (b.country, b.gender, b.ages, b.years)
    np.testing.assert_array_equal(a.deaths, b.deaths)
    assert a.exposures is None and b.exposures is None


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


def test_weekly_panel_csv_contract_roundtrip(tmp_path):
    panel = _small_weekly()
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(panel, str(path))
    header, row = path.read_text(encoding="utf-8").splitlines()[:2]
    assert header == "age,year,week,deaths" and row.count(",") == 3
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
    with pytest.raises(ParseError, match="line 7: expected 4 fields"):
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


@pytest.mark.parametrize("week", ["0", "54", "x", "53"])
def test_weekly_panel_csv_contract_malformed_week(tmp_path, week):
    """A week that is not a number, or not one of the ISO weeks of its year
    (2021 has 52), is an error naming its line."""
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(_small_weekly(), str(path))
    lineno = len(path.read_text(encoding="utf-8").splitlines()) + 1
    _rewrite(path, lambda ls: ls + [f"10,2021,{week},1"])
    message = ("bad number" if week == "x"
               else f"week {week} outside 1..52, the weeks of ISO year 2021")
    with pytest.raises(ParseError, match=re.escape(f"{path}: line {lineno}: {message}")):
        read_weekly_panel_csv(str(path), "AAA", "f")


@pytest.mark.parametrize("label", ["5x", "1_2_3"])
def test_weekly_panel_csv_contract_malformed_age_label(tmp_path, label):
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(_small_weekly(), str(path))
    _rewrite(path, lambda ls: ls[:4] + [f"{label},2021,1,1"] + ls[4:])
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 5: bad age label '{label}'")):
        read_weekly_panel_csv(str(path), "AAA", "f")


def test_weekly_panel_csv_contract_refuses_an_exposure(tmp_path):
    """A weekly panel stores no exposure field: the pandemic years'
    exposures are rebuilt from the population snapshots."""
    path = tmp_path / "weekly.csv"
    write_weekly_panel_csv(_small_weekly(), str(path))
    _rewrite(path, lambda ls: ls[:5] + [ls[5] + ",150.5"] + ls[6:])
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 6: expected 4 fields")):
        read_weekly_panel_csv(str(path), "AAA", "f")
    _rewrite(path, lambda ls: ["age,year,week,deaths,exposure"] + ls[1:])
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 1: unexpected header")):
        read_weekly_panel_csv(str(path), "AAA", "f")


# ---------------------------------------------------------------------------
# model file format


def _tiny_models():
    """One small model per type and variant.  No format has an optional
    group: the ``absent`` variant of ``coda`` is the degenerate fit, whose
    explained variance is 0, and that of ``covid`` the method-1 fit, with no
    seasonal effect applied.  The other types have only the ``present``
    variant."""
    ages, years = np.arange(60, 62), np.arange(2017, 2020)
    layers = dict(
        countries=("AAA",), ages=ages, years=years,
        A={"m": np.array([-4.5, -4.25]), "f": np.array([-5.0, -4.75])},
        B={"m": np.array([0.6, 0.8]), "f": np.array([0.8, 0.6])},
        K={"m": np.array([1.0, 0.0, -1.0]), "f": np.array([0.5, 0.0, -0.5])},
        alpha={("AAA", "m"): np.array([0.25, -0.25]), ("AAA", "f"): np.array([0.125, 0.0])},
        beta={("AAA", "m"): np.array([0.6, -0.8]), ("AAA", "f"): np.array([1.0, 0.0])},
        kappa={("AAA", "m"): np.array([0.1, 0.2, -0.3]),
               ("AAA", "f"): np.array([-0.0, 0.0, 0.0])},
    )
    sigma = np.diag([0.25, 0.5, 1e-300, 2.0])
    sigma[0, 1] = sigma[1, 0] = 0.125
    phi = np.ones(MAX_WEEKS)
    phi[0], phi[51], phi[52] = 1.25, 0.75, 0.75
    K = np.where(week_mask((2020, 2021)), 0.0, np.nan)
    K[0, :2] = [0.5, -0.5]
    K[1, :3] = [1.0, 2.0, 5e-324]
    owner = dict(country="BBB", gender="m", ages=(AgeIndex(40, 64), AgeIndex(65, 65)),
                 years=(2020, 2021))
    coda = dict(year=2021, gender="f", ages=np.arange(40, 42), alpha=np.array([0.5, 0.25]),
                beta=np.array([2 ** -0.5, -(2 ** -0.5)]), kappa=np.array([1.0, -1.0, 0.0]),
                explained_variance=0.875)
    return {
        ("baseline", "present"): BaselineModel(
            **layers, theta={"m": -1.0, "f": -0.5},
            delta={("AAA", "m"): -0.2, ("AAA", "f"): 0.0},
            delta_tstat={("AAA", "m"): -1.5, ("AAA", "f"): np.inf},
            sigma=sigma),
        ("seasonal", "present"): SeasonalEffect(country="AAA", gender="f", phi=phi, knots=4,
                                                coeffs=np.array([1.5, 0.5, 1.0, 1.0 / 3])),
        ("covid", "absent"): CovidLayer(**owner, method=1, B=np.array([0.6, 0.8]), K=K),
        ("covid", "present"): CovidLayer(**owner, method=2, B=np.array([0.6, 0.8]), K=K),
        ("annual", "present"): AnnualEffects(**owner, V=np.array([0.8, 0.6]),
                                             X=np.array([0.3, -0.1])),
        ("coda", "absent"): CodaFit(**{**coda, "explained_variance": 0.0}),
        ("coda", "present"): CodaFit(**coda),
    }


# The text save_model writes for each of _tiny_models(), pinned: these are
# the bytes of version 3 of the model file format.  A change of them is a
# new format version.
BASELINE_PRESENT = """\
#schema:BaselineModel v3
key,index1,index2,value
ages,,,60;61
years,,,2017;2019
country,0,,AAA
A,m,60,-4.5
B,m,60,0.59999999999999998
A,m,61,-4.25
B,m,61,0.80000000000000004
K,m,2017,1
K,m,2018,0
K,m,2019,-1
theta,m,,-1
A,f,60,-5
B,f,60,0.80000000000000004
A,f,61,-4.75
B,f,61,0.59999999999999998
K,f,2017,0.5
K,f,2018,0
K,f,2019,-0.5
theta,f,,-0.5
alpha,AAA|m,60,0.25
beta,AAA|m,60,0.59999999999999998
alpha,AAA|m,61,-0.25
beta,AAA|m,61,-0.80000000000000004
kappa,AAA|m,2017,0.10000000000000001
kappa,AAA|m,2018,0.20000000000000001
kappa,AAA|m,2019,-0.29999999999999999
delta,AAA|m,,-0.20000000000000001
delta_tstat,AAA|m,,-1.5
alpha,AAA|f,60,0.125
beta,AAA|f,60,1
alpha,AAA|f,61,0
beta,AAA|f,61,0
kappa,AAA|f,2017,-0
kappa,AAA|f,2018,0
kappa,AAA|f,2019,0
delta,AAA|f,,0
delta_tstat,AAA|f,,inf
sigma,0,0,0.25
sigma,0,1,0.125
sigma,0,2,0
sigma,0,3,0
sigma,1,0,0.125
sigma,1,1,0.5
sigma,1,2,0
sigma,1,3,0
sigma,2,0,0
sigma,2,1,0
sigma,2,2,1e-300
sigma,2,3,0
sigma,3,0,0
sigma,3,1,0
sigma,3,2,0
sigma,3,3,2
"""

SEASONAL_PRESENT = """\
#schema:SeasonalEffect v3
key,index1,index2,value
country,,,AAA
gender,,,f
knots,,,4
phi,1,,1.25
""" + "".join(f"phi,{w},,1\n" for w in range(2, 52)) + """\
phi,52,,0.75
phi,53,,0.75
coef,0,,1.5
coef,1,,0.5
coef,2,,1
coef,3,,0.33333333333333331
"""

COVID_PRESENT = """\
#schema:CovidLayer v3
key,index1,index2,value
country,,,BBB
gender,,,m
age,0,,40_64
B,0,,0.59999999999999998
age,1,,65
B,1,,0.80000000000000004
method,,,2
K,2020,1,0.5
K,2020,2,-0.5
""" + "".join(f"K,2020,{w},0\n" for w in range(3, 54)) + """\
K,2021,1,1
K,2021,2,2
K,2021,3,4.9406564584124654e-324
""" + "".join(f"K,2021,{w},0\n" for w in range(4, 53))

COVID_ABSENT = COVID_PRESENT.replace("method,,,2", "method,,,1")

ANNUAL_PRESENT = """\
#schema:AnnualEffects v3
key,index1,index2,value
country,,,BBB
gender,,,m
age,0,,40_64
V,0,,0.80000000000000004
age,1,,65
V,1,,0.59999999999999998
X,2020,,0.29999999999999999
X,2021,,-0.10000000000000001
"""

CODA_ABSENT = """\
#schema:CodaFit v3
key,index1,index2,value
year,,,2021
gender,,,f
explained_variance,,,0
ages,,,40;41
alpha,40,,0.5
beta,40,,0.70710678118654757
alpha,41,,0.25
beta,41,,-0.70710678118654757
kappa,1,,1
kappa,2,,-1
kappa,3,,0
"""

CODA_PRESENT = CODA_ABSENT.replace("explained_variance,,,0", "explained_variance,,,0.875")

MODEL_TEXT = {
    ("baseline", "present"): BASELINE_PRESENT,
    ("seasonal", "present"): SEASONAL_PRESENT,
    ("covid", "absent"): COVID_ABSENT, ("covid", "present"): COVID_PRESENT,
    ("annual", "present"): ANNUAL_PRESENT,
    ("coda", "absent"): CODA_ABSENT, ("coda", "present"): CODA_PRESENT,
}


def _assert_same_model(a, b):
    """Field-by-field equality; arrays must match in dtype, shape, value and
    NaN positions."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys(), f.name
            for k in x:
                np.testing.assert_array_equal(x[k], y[k], err_msg=f"{f.name}[{k!r}]", strict=True)
        elif isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=f.name, strict=True)
        else:
            assert type(x) is type(y) and x == y, f.name


@pytest.mark.parametrize("kind, variant", sorted(MODEL_TEXT))
def test_model_format_is_pinned(tmp_path, kind, variant):
    model = _tiny_models()[(kind, variant)]
    path = tmp_path / "model.csv"
    save_model(model, str(path))
    assert path.read_text(encoding="utf-8") == MODEL_TEXT[(kind, variant)]
    _assert_same_model(load_model(str(path)), model)


# (model, fields replaced, text the ValidationError must hold); each field
# set is one that `save_model` would write wrongly or not at all
UNWRITABLE = {
    "baseline sigma None": (("baseline", "present"), dict(sigma=None),
                            "BaselineModel: sigma shape != (4, 4)"),
    "baseline sigma 3x3": (("baseline", "present"), dict(sigma=np.eye(3)),
                           "BaselineModel: sigma shape != (4, 4)"),
    "baseline theta empty": (("baseline", "present"), dict(theta={}),
                             "BaselineModel: theta not keyed by each of its series"),
    "baseline A has an extra key": (
        ("baseline", "present"), dict(A={**_tiny_models()["baseline", "present"].A, "x": np.ones(2)}),
        "BaselineModel: A not keyed by each of its series"),
    "baseline alpha lacks a series": (
        ("baseline", "present"), dict(alpha={("AAA", "m"): np.array([0.25, -0.25])}),
        "BaselineModel: alpha not keyed by each of its series"),
    "baseline alpha too long": (
        ("baseline", "present"),
        dict(alpha={("AAA", "m"): np.zeros(3), ("AAA", "f"): np.array([0.125, 0.0])}),
        "BaselineModel: alpha[('AAA', 'm')] length != 2"),
    "baseline delta lacks a series": (
        ("baseline", "present"), dict(delta={("AAA", "m"): -0.2}),
        "BaselineModel: delta not keyed by each of its series"),
    "baseline delta_tstat lacks a series": (
        ("baseline", "present"), dict(delta_tstat={("AAA", "f"): np.inf}),
        "BaselineModel: delta_tstat not keyed by each of its series"),
    "covid K after the last week": (  # week 53 of 2021, a year of 52 ISO weeks
        ("covid", "present"),
        dict(K=np.where(np.arange(MAX_WEEKS) == 52, 0.5, _tiny_models()["covid", "present"].K)),
        "CovidLayer: K not NaN after a year's last week"),
    # a model file lists the years in increasing order, so these would load back reordered
    "covid years decreasing": (("covid", "present"), dict(years=(2021, 2020)),
                               "CovidLayer: years not strictly increasing"),
    "annual years decreasing": (("annual", "present"), dict(years=(2021, 2020)),
                                "AnnualEffects: years not strictly increasing"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_save_model_refuses_a_model_it_cannot_write_whole(tmp_path, case):
    kind, changes, message = UNWRITABLE[case]
    path = tmp_path / "model.csv"
    with pytest.raises(ValidationError, match=re.escape(message)):
        save_model(dataclasses.replace(_tiny_models()[kind], **changes), str(path))
    assert not path.exists()


@pytest.mark.parametrize("name, key, message", [
    ("B", "m", "norm constraint violated for B[m]"),
    ("K", "f", "sum constraint violated for K[f]"),
    ("beta", ("AAA", "m"), "norm constraint violated for beta[('AAA', 'm')]"),
    ("kappa", ("AAA", "f"), "sum constraint violated for kappa[('AAA', 'f')]"),
])
def test_baseline_model_validate_names_the_broken_constraint(name, key, message):
    """The identification constraints, unit-norm age effects and zero-sum
    period effects, hold for the common and every country series."""
    model = _tiny_models()["baseline", "present"]
    field = getattr(model, name)
    broken = dataclasses.replace(model, **{name: {**field, key: field[key] + 0.01}})
    with pytest.raises(ValidationError) as err:
        broken.validate()
    assert str(err.value) == f"BaselineModel: {message}"


def _edited(text, old, new):
    assert text.count(old) == 1, old
    return text.replace(old, new)


# (model, edit of its pinned text, text the ParseError must name)
CORRUPTIONS = {
    "baseline missing delta_tstat": (
        BASELINE_PRESENT, ("delta_tstat,AAA|f,,inf\n", ""), "missing row delta_tstat,AAA|f,"),
    "baseline missing sigma": (BASELINE_PRESENT, ("sigma,2,3,0\n", ""), "missing row sigma,2,3"),
    "baseline missing theta": (BASELINE_PRESENT, ("theta,f,,-0.5\n", ""), "missing row theta,f,"),
    "baseline missing A": (BASELINE_PRESENT, ("A,f,61,-4.75\n", ""), "missing row A,f,61"),
    "baseline bad float": (BASELINE_PRESENT, ("A,m,61,-4.25", "A,m,61,-4.2.5"), "row A,m,61"),
    "baseline bad age span": (BASELINE_PRESENT, ("ages,,,60;61", "ages,,,60"), "row ages,,"),
    "baseline bad country index": (BASELINE_PRESENT, ("country,0,", "country,x,"),
                                   "missing row country,0,"),
    "baseline v1 header": (BASELINE_PRESENT, ("BaselineModel v3\n", "BaselineModel v1\n"),
                           "line 1: unknown schema 'BaselineModel v1'"),
    # the series labels are those of `period_series`, so no file stores them
    "baseline series label": (BASELINE_PRESENT, ("sigma,0,0,", "series,0,,K|m\nsigma,0,0,"),
                              "unexpected row series,0,"),
    "baseline series of another country": (
        BASELINE_PRESENT, ("sigma,0,0,", "series,3,,kappa|BBB|f\nsigma,0,0,"),
        "unexpected row series,3,"),
    "covid missing K": (COVID_PRESENT, ("K,2021,2,2\n", ""), "missing row K,2021,2"),
    "covid V row": (COVID_PRESENT, ("method,", "V,0,,0.80000000000000004\nmethod,"),
                    "unexpected row V,0,"),
    "covid bad method": (COVID_PRESENT, ("method,,,2", "method,,,two"), "row method,,"),
    "covid bad age label": (COVID_PRESENT, ("age,1,,65", "age,1,,6x5"), "row age,1,"),
    "covid inverted age group": (COVID_PRESENT, ("age,0,,40_64", "age,0,,64_40"), "row age,0,"),
    "covid three-part age label": (COVID_PRESENT, ("age,0,,40_64", "age,0,,40_64_70"),
                                   "row age,0,"),
    # K holds each of a year's ISO weeks, 53 in 2020 and 52 in 2021
    "covid too many weeks": (COVID_PRESENT, ("K,2021,52,0\n", "K,2021,52,0\nK,2021,53,0\n"),
                             "unexpected row K,2021,53"),
    # a file that holds 52 weeks of 2020 whole, as the reader once accepted
    "covid 2020 without week 53": (COVID_PRESENT, ("K,2020,53,0\n", ""), "missing row K,2020,53"),
    "covid bad year": (COVID_PRESENT, ("K,2020,1,", "K,20x0,1,"), "row K,20x0"),
    "covid year datetime lacks": (COVID_PRESENT, ("K,2021,1,", "K,10000,1,"),
                                  "row K,10000,: bad value 10000",
                                  *((f"K,2021,{w},", f"K,10000,{w},") for w in range(2, 53))),
    # the week counts follow from the years, so a version 2 weeks row is refused
    "covid weeks row": (COVID_PRESENT, ("K,2020,1,", "weeks,2020,,53\nK,2020,1,"),
                        "unexpected row weeks,2020,"),
    "annual missing V": (ANNUAL_PRESENT, ("V,0,,0.80000000000000004\n", ""), "missing row V,0,"),
    # a degenerate fit is one whose X is 0 in every year, so no row flags it
    "annual degenerate row": (ANNUAL_PRESENT, ("X,2020,", "degenerate,,,0\nX,2020,"),
                              "unexpected row degenerate,,"),
    "seasonal missing coef": (SEASONAL_PRESENT, ("coef,2,,1\n", ""), "missing row coef,2,"),
    "seasonal missing last coef": (SEASONAL_PRESENT, ("coef,3,,0.33333333333333331\n", ""),
                                   "missing row coef,3,"),
    "seasonal missing phi": (SEASONAL_PRESENT, ("phi,17,,1\n", ""), "missing row phi,17,"),
    "seasonal bad knots": (SEASONAL_PRESENT, ("knots,,,4", "knots,,,4.5"), "row knots,,"),
    "seasonal missing country": (SEASONAL_PRESENT, ("country,,,AAA\n", ""),
                                 "missing row country,,"),
    "coda missing kappa": (CODA_ABSENT, ("kappa,1,,1\n", ""), "missing row kappa,1,"),
    "coda bad year": (CODA_ABSENT, ("year,,,2021", "year,,,"), "row year,,"),
    "coda unexpected row": (CODA_ABSENT, ("kappa,3,,0\n", "kappa,3,,0\nkappa_x,1,,0\n"),
                            "unexpected row kappa_x,1,"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_malformed_model_file_is_a_parse_error(tmp_path, case):
    text, (old, new), names, *more = CORRUPTIONS[case]
    for old_row, new_row in more:
        text = _edited(text, old_row, new_row)
    path = tmp_path / "model.csv"
    path.write_text(_edited(text, old, new), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_model(str(path))
    assert str(err.value).startswith(f"{path}: ")
    assert names in str(err.value)


# ---------------------------------------------------------------------------
# save -> load -> save round trip of random models

AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1)
# Free fields take any double; sums of constrained ones must not overflow.
ANY_FLOAT = st.one_of(st.sampled_from(AWKWARD), st.floats())
FINITE = st.one_of(st.sampled_from(AWKWARD), st.floats(-1e300, 1e300))
LABEL = st.text(alphabet='AB|, "x', max_size=4)


def _floats(draw, n, elements=ANY_FLOAT):
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)


def _unit(draw, n, nonnegative_sum=False):
    """A unit vector, some of its entries -0.0 or subnormal."""
    v = _floats(draw, n, st.one_of(st.floats(-1, 1), st.sampled_from((-0.0, 5e-324, -5e-324))))
    if np.linalg.norm(v) < 0.1:
        v[0] += 1.0
    v = v / np.linalg.norm(v)
    return -v if nonnegative_sum and v.sum() < 0 else v


def _zero_sum(draw, n, elements=FINITE):
    """Adjacent pairs (x, -x), which NumPy's pairwise sum adds up to exactly
    zero; an odd length ends in a signed zero."""
    v = [y for x in draw(st.lists(elements, min_size=n // 2, max_size=n // 2)) for y in (x, -x)]
    return np.array(v + [draw(st.sampled_from((0.0, -0.0)))] * (n % 2))


@st.composite
def baseline_models(draw):
    nx, nt = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ages = np.arange(nx) + draw(st.integers(0, 100))
    years = np.arange(nt) + draw(st.integers(1900, 2100))
    countries = tuple(draw(st.lists(LABEL, min_size=1, max_size=2, unique=True)))
    cgs = [(c, g) for c in countries for g in GENDERS]
    fields = dict(
        countries=countries, ages=ages, years=years,
        A={g: _floats(draw, nx) for g in GENDERS}, B={g: _unit(draw, nx) for g in GENDERS},
        K={g: _zero_sum(draw, nt) for g in GENDERS},
        alpha={cg: _floats(draw, nx) for cg in cgs}, beta={cg: _unit(draw, nx) for cg in cgs},
        kappa={cg: _zero_sum(draw, nt) for cg in cgs},
    )
    fields["theta"] = {g: draw(ANY_FLOAT) for g in GENDERS}
    fields["delta"] = {cg: draw(ANY_FLOAT) for cg in cgs}
    fields["delta_tstat"] = {cg: draw(ANY_FLOAT) for cg in cgs}
    n = len(GENDERS) * (1 + len(countries))  # one series per K and per kappa
    u = _floats(draw, n, st.floats(-1, 1))
    d = _floats(draw, n, st.one_of(st.sampled_from((0.0, 5e-324, 1e300)), st.floats(0, 10)))
    fields["sigma"] = np.outer(u, u) + np.diag(d)
    return BaselineModel(**fields)


@st.composite
def seasonal_models(draw):
    phi = _floats(draw, MAX_WEEKS, st.floats(0.5, 2.0))
    phi[:52] /= phi[:52].mean()
    phi[52] = draw(st.sampled_from((5e-324, 1e300, phi[51])))
    knots = draw(st.integers(0, 12))
    return SeasonalEffect(country=draw(LABEL), gender=draw(LABEL), phi=phi, knots=knots,
                          coeffs=_floats(draw, knots))


def _owner(draw):
    """The fields that a CovidLayer and its AnnualEffects share."""
    lows = np.cumsum([draw(st.integers(0, 90))] + draw(st.lists(st.integers(1, 5), max_size=3)))
    ages = tuple(AgeIndex(int(lo), int(hi) - 1) for lo, hi in zip(lows, lows[1:]))
    ages += (AgeIndex(int(lows[-1]), int(lows[-1]) + draw(st.integers(0, 30))),)
    years = tuple(sorted(draw(st.sets(st.integers(2015, 2025), min_size=1, max_size=3))))
    return dict(country=draw(LABEL), gender=draw(LABEL), ages=ages, years=years)


@st.composite
def covid_layers(draw):
    owner = _owner(draw)
    K = np.full((len(owner["years"]), MAX_WEEKS), np.nan)
    for j, t in enumerate(owner["years"]):
        K[j, :weeks_in_iso_year(t)] = _floats(draw, weeks_in_iso_year(t))
    return CovidLayer(**owner, method=draw(st.sampled_from((1, 2))),
                      B=_unit(draw, len(owner["ages"]), True), K=K)


@st.composite
def annual_effects(draw):
    owner = _owner(draw)
    return AnnualEffects(**owner, V=_unit(draw, len(owner["ages"])),
                         X=_floats(draw, len(owner["years"])))


@st.composite
def coda_fits(draw):
    nx = draw(st.integers(2, 5))
    beta = _zero_sum(draw, nx, st.floats(-1, 1))
    if np.linalg.norm(beta) < 0.1:
        beta[:2] = 1.0, -1.0
    return CodaFit(
        year=draw(st.integers(1900, 2100)), gender=draw(LABEL),
        ages=np.arange(nx) + draw(st.integers(0, 100)), alpha=_floats(draw, nx),
        beta=beta / np.linalg.norm(beta), kappa=_zero_sum(draw, draw(st.integers(0, 53))),
        explained_variance=draw(st.sampled_from((0.0, -0.0, 5e-324, 1.0)) | st.floats(0, 1)),
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(baseline_models(), seasonal_models(), covid_layers(), annual_effects(),
                 coda_fits()))
def test_model_save_load_save_round_trip(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("roundtrip") / "model.csv"
    save_model(model, str(path))
    text = path.read_text(encoding="utf-8")
    back = load_model(str(path))
    _assert_same_model(back, model)
    save_model(back, str(path))
    assert path.read_text(encoding="utf-8") == text
