import re

import numpy as np
import pytest

import pandmort.ingest as ig
from pandmort.datastore import AgeIndex
from pandmort.errors import IngestError


def test_weeks_in_iso_year():
    # 53-week ISO years in the modern era include 2004, 2009, 2015, 2020
    assert ig.weeks_in_iso_year(2015) == 53
    assert ig.weeks_in_iso_year(2020) == 53
    assert ig.weeks_in_iso_year(2019) == 52
    assert ig.weeks_in_iso_year(2021) == 52


def test_parse_hmd_annual_roundtrip(synthetic_dataset):
    d = synthetic_dataset["dir"]
    panel = ig.parse_hmd_annual(
        str(d / "AAA_deaths.txt"), str(d / "AAA_exposures.txt"),
        "AAA", range(1970, 2020), range(0, 111),
    )
    assert panel.countries == ("AAA",)
    assert panel.deaths.shape == (1, 2, 111, 50)
    # file stores two decimals, sampled deaths are integers, so exact
    truth = synthetic_dataset["truth"]
    assert panel.deaths.min() >= 0
    assert (panel.exposures > 0).all()
    # gender order: index 0 is male, index 1 is female
    import pandmort.synthetic as sy

    lam_m = panel.exposures[0, 0] * np.exp(sy.true_ln_mu(truth, "AAA", "m"))
    lam_f = panel.exposures[0, 1] * np.exp(sy.true_ln_mu(truth, "AAA", "f"))
    err_m = np.abs(panel.deaths[0, 0] - lam_m) / np.sqrt(lam_m + 1.0)
    err_f = np.abs(panel.deaths[0, 1] - lam_f) / np.sqrt(lam_f + 1.0)
    # Poisson z-scores: mismatched gender mapping would blow these up
    assert np.median(err_m) < 2.0
    assert np.median(err_f) < 2.0


def test_parse_hmd_missing_year(synthetic_dataset):
    d = synthetic_dataset["dir"]
    with pytest.raises(IngestError, match="missing"):
        ig.parse_hmd_annual(
            str(d / "AAA_deaths.txt"), str(d / "AAA_exposures.txt"),
            "AAA", range(1960, 2020), range(0, 111),
        )


def test_parse_hmd_rejects_missing_marker(tmp_path):
    path = tmp_path / "deaths.txt"
    path.write_text(
        "stub\n\n  Year          Age             Female            Male           Total\n"
        "  2000   0   .   5.00   5.00\n"
    )
    expo = tmp_path / "expo.txt"
    expo.write_text(
        "stub\n\n  Year          Age             Female            Male           Total\n"
        "  2000   0   100.00   100.00   200.00\n"
    )
    with pytest.raises(IngestError, match="missing-value"):
        ig.parse_hmd_annual(str(path), str(expo), "AAA", [2000], [0])


def test_parse_stmf(synthetic_dataset):
    d = synthetic_dataset["dir"]
    panels = ig.parse_stmf(str(d / "weekly_deaths.csv"), "AAA")
    assert set(panels) == {"m", "f"}
    wp = panels["m"]
    assert wp.ages[0] == AgeIndex(0, 4)
    assert wp.ages[-1] == AgeIndex(90, 110)
    assert wp.years == tuple(range(2010, 2022))
    # 2015 and 2020 are long ISO years, so only 2021's week 53 is padding
    week53 = wp.deaths[:, [wp.years.index(t) for t in (2015, 2020, 2021)], 52]
    assert not np.isnan(week53[:, :2]).any() and np.isnan(week53[:, 2]).all()
    used = ~np.isnan(wp.deaths)
    assert (wp.deaths[used] >= 0).all()


def test_parse_stmf_unknown_country(synthetic_dataset):
    d = synthetic_dataset["dir"]
    with pytest.raises(IngestError, match="no usable rows"):
        ig.parse_stmf(str(d / "weekly_deaths.csv"), "ZZZ")


def test_parse_stmf_countries_matches_single_country_parses(synthetic_dataset):
    path = str(synthetic_dataset["dir"] / "weekly_deaths.csv")
    both = ig.parse_stmf_countries(path, ("BBB", "AAA"))
    assert list(both) == ["BBB", "AAA"]
    for c in ("AAA", "BBB"):
        single = ig.parse_stmf(path, c)
        for g in ("m", "f"):
            assert both[c][g].country == c
            assert both[c][g].years == single[g].years
            np.testing.assert_array_equal(both[c][g].deaths, single[g].deaths)


def test_parse_stmf_skips_other_countries_unchecked(tmp_path):
    lines = ["CountryCode,Year,Week,Sex,D0_4\n", "YYY,bad,row\n"]
    for w in range(1, 53):
        lines += [f"XXX,2018,{w},m,10\n", f"XXX,2018,{w},f,10\n"]
    path = tmp_path / "stmf.csv"
    path.write_text("".join(lines))
    panels = ig.parse_stmf_countries(str(path), ("XXX",))
    assert panels["XXX"]["m"].deaths[0, 0, 51] == 10.0
    with pytest.raises(IngestError, match="no usable rows for country ZZZ"):
        ig.parse_stmf_countries(str(path), ("XXX", "ZZZ"))


def test_parse_stmf_flag_columns_warn_once(tmp_path, caplog):
    lines = ["CountryCode,Year,Week,Sex,D0_4,Forecast\n"]
    for c in ("XXX", "YYY"):
        for w in range(1, 53):
            flag = "1" if w > 50 else "0"
            lines += [f"{c},2018,{w},m,10,{flag}\n", f"{c},2018,{w},f,10,{flag}\n"]
    path = tmp_path / "stmf.csv"
    path.write_text("".join(lines))
    with caplog.at_level("WARNING"):
        panels = ig.parse_stmf_countries(str(path), ("XXX", "YYY"))
    assert panels["YYY"]["f"].deaths[0, 0, 51] == 10.0
    warnings = [r.getMessage() for r in caplog.records if "Split/Forecast" in r.getMessage()]
    assert len(warnings) == 1 and ": 8 rows carry" in warnings[0]


def test_parse_stmf_week_zero_merged(tmp_path):
    cols = "CountryCode,Year,Week,Sex,D0_4\n"
    lines = [cols]
    for w in range(1, 53):
        lines.append(f"XXX,2018,{w},m,10\n")
        lines.append(f"XXX,2018,{w},f,10\n")
    lines.append("XXX,2019,0,m,7\n")  # partial New Year week, belongs to 2018 w52
    lines.append("XXX,2019,0,f,3\n")
    path = tmp_path / "stmf.csv"
    path.write_text("".join(lines))
    panels = ig.parse_stmf(str(path), "XXX")
    assert panels["m"].deaths[0, 0, 51] == 17.0
    assert panels["f"].deaths[0, 0, 51] == 13.0


def test_parse_stmf_duplicate_row(tmp_path):
    path = tmp_path / "stmf.csv"
    path.write_text(
        "CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,10\nXXX,2018,1,m,11\n"
    )
    with pytest.raises(IngestError, match="duplicate"):
        ig.parse_stmf(str(path), "XXX")


def test_parse_stmf_bad_group_column(tmp_path):
    path = tmp_path / "stmf.csv"
    path.write_text("CountryCode,Year,Week,Sex,Dfoo\nXXX,2018,1,m,10\n")
    with pytest.raises(IngestError, match="column"):
        ig.parse_stmf(str(path), "XXX")


def test_parse_population(synthetic_dataset):
    d = synthetic_dataset["dir"]
    snaps = ig.parse_population(str(d / "AAA_population.csv"), "eurostat_annual")
    assert len(snaps) == 2  # one snapshot date, two genders
    genders = {s.gender for s in snaps}
    assert genders == {"m", "f"}
    for s in snaps:
        assert s.date == (2020, 1, 1)
        assert s.ages[0] == 0 and s.ages[-1] == 110
        assert (s.counts >= 0).all()


def test_parse_population_age_gap(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(
        "date,age,sex,count\n2020-01-01,0,m,100\n2020-01-01,2,m,100\n"
    )
    with pytest.raises(IngestError, match="missing ages"):
        ig.parse_population(str(path), "eurostat_annual")


def test_parse_population_bad_layout(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("date,age,sex,count\n")
    with pytest.raises(IngestError, match="layout"):
        ig.parse_population(str(path), "annual")


HMD_HEADER = "stub\n\n  Year          Age             Female            Male           Total\n"


@pytest.mark.parametrize("bad_row, which", [
    ("  20x0   0   5.00   5.00   10.00", "deaths"),
    ("  2000   0x   5.00   5.00   10.00", "deaths"),
    ("  2000   0   12x4   5.00   17.00", "deaths"),
    ("  2000   0   100.00   1e2.5   200.00", "exposures"),
    ("  2000   0   1_0   5.00   15.00", "deaths"),
], ids=["year", "age", "count", "exposure", "separator"])
def test_parse_hmd_malformed_number(tmp_path, bad_row, which):
    good = {"deaths": "  2000   0   5.00   5.00   10.00",
            "exposures": "  2000   0   100.00   100.00   200.00"}
    paths = {}
    for kind, row in good.items():
        paths[kind] = tmp_path / f"{kind}.txt"
        paths[kind].write_text(HMD_HEADER + (bad_row if kind == which else row) + "\n")
    with pytest.raises(IngestError, match=re.escape(f"{paths[which]}: line 4: bad number")):
        ig.parse_hmd_annual(str(paths["deaths"]), str(paths["exposures"]), "AAA", [2000], [0])


def test_parse_hmd_duplicate_row(tmp_path):
    path = tmp_path / "deaths.txt"
    path.write_text(HMD_HEADER + "  2000   0   5.00   5.00   10.00\n"
                    + "  2000   1   4.00   4.00   8.00\n" + "  2000   0   6.00   6.00   12.00\n")
    with pytest.raises(IngestError, match=re.escape(
            f"{path}: line 6: duplicate row for year 2000, age 0")):
        ig.parse_hmd_annual(str(path), str(path), "AAA", [2000], [0, 1])


@pytest.mark.parametrize("row", ["XXX,2x18,1,m,10", "XXX,2018,1w,m,10", "XXX,2018,1,m,8z",
                                 "XXX,2018,1,m,1_0"],
                         ids=["year", "week", "count", "separator"])
def test_parse_stmf_malformed_number(tmp_path, row):
    path = tmp_path / "stmf.csv"
    path.write_text(f"CountryCode,Year,Week,Sex,D0_4\nXXX,2018,2,m,10\n{row}\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 3: bad number")):
        ig.parse_stmf(str(path), "XXX")


def test_parse_stmf_short_row(tmp_path):
    path = tmp_path / "stmf.csv"
    path.write_text("CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,10\nXXX,2018\n")
    with pytest.raises(IngestError, match=re.escape(
            f"{path}: line 3: expected at least 4 fields, got 2")):
        ig.parse_stmf(str(path), "XXX")


@pytest.mark.parametrize("column", ["D5x_9", "D9xp", "D_4", "D0_4_5", "D9_0p"])
def test_parse_stmf_malformed_group_column(tmp_path, column):
    path = tmp_path / "stmf.csv"
    path.write_text(f"CountryCode,Year,Week,Sex,{column}\nXXX,2018,1,m,10\n")
    _raises_exactly(f"{path}: unexpected weekly-deaths column {column!r}", ig.parse_stmf,
                    str(path), "XXX")


@pytest.mark.parametrize("row", ["2020-01-01,1x,m,100", "2020-01-01,1,m,2e5x",
                                 "2020-01-01,1,m,1_0", "2020-01-01,1,m,nan",
                                 "2020-01-01,1,m,inf"],
                         ids=["age", "count", "separator", "nan", "inf"])
def test_parse_population_malformed_number(tmp_path, row):
    path = tmp_path / "pop.csv"
    path.write_text(f"date,age,sex,count\n2020-01-01,0,m,100\n{row}\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 3: bad number")):
        ig.parse_population(str(path), "eurostat_annual")


def _raises_exactly(message, parse, *args):
    with pytest.raises(IngestError) as info:
        parse(*args)
    assert str(info.value) == message


def _hmd_pair(tmp_path, deaths_rows, expo_rows=None, header=HMD_HEADER):
    """Deaths and exposure files for 2000 x ages 0-1; rows default to good ones."""
    good = {"deaths": ["  2000   0   5.00   5.00   10.00", "  2000   1   4.00   4.00   8.00"],
            "exposures": ["  2000   0   100.00   100.00   200.00",
                          "  2000   1   90.00   90.00   180.00"]}
    paths = {}
    for kind, rows in (("deaths", deaths_rows), ("exposures", expo_rows)):
        paths[kind] = tmp_path / f"{kind}.txt"
        text = header if kind == "deaths" else HMD_HEADER
        paths[kind].write_text(text + "".join(r + "\n" for r in (rows or good[kind])))
    return str(paths["deaths"]), str(paths["exposures"])


@pytest.mark.parametrize("header, rows, message", [
    ("stub\n\n", None, "no 'Year Age Female Male Total' header found"),
    ("stub\n\n  Year   Age   Male   Female   Total\n", None, "line 3: unexpected column header"),
    (HMD_HEADER, ["  2000   0   5.00   5.00   10.00", "  2000   1   4.00   4.00"],
     "line 5: expected 5 columns, got 4"),
    (HMD_HEADER, ["  2000   0   5.00   5.00   10.00"], "missing death cell for year 2000, age 1"),
    (HMD_HEADER, ["  2000   0   5.00   5.00   10.00", "  2000   1   4.00   -4.00   0.00"],
     "negative death at year 2000, age 1"),
    (HMD_HEADER, ["  2000   0   5.00   .   10.00", "  2000   1   4.00   4.00   8.00"],
     "missing-value marker at year 2000, age 0"),
], ids=["no-header", "wrong-header", "four-fields", "missing-cell", "negative", "marker"])
def test_parse_hmd_errors_name_file_and_line(tmp_path, header, rows, message):
    deaths, expo = _hmd_pair(tmp_path, rows, header=header)
    _raises_exactly(f"{deaths}: {message}", ig.parse_hmd_annual, deaths, expo, "AAA", [2000],
                    [0, 1])


@pytest.mark.parametrize("rows, message", [
    (["  2000   0   100.00   100.00   200.00"], "missing exposure cell for year 2000, age 1"),
    (["  2000   0   -1.00   100.00   99.00", "  2000   1   90.00   90.00   180.00"],
     "negative exposure at year 2000, age 0"),
], ids=["missing-cell", "negative"])
def test_parse_hmd_exposure_errors(tmp_path, rows, message):
    deaths, expo = _hmd_pair(tmp_path, None, rows)
    _raises_exactly(f"{expo}: {message}", ig.parse_hmd_annual, deaths, expo, "AAA", [2000], [0, 1])


def test_parse_hmd_values_outside_request_are_not_read(tmp_path):
    deaths, expo = _hmd_pair(tmp_path, [
        "  2000   0   5.00   5.00   10.00", "  2000   1   .   -3   8.00",
        "  2001   0   12x4   .   .", "  2001   1   4.00   4.00   8.00"])
    panel = ig.parse_hmd_annual(deaths, expo, "AAA", [2000], [0])
    assert panel.deaths[0, :, 0, 0].tolist() == [5.0, 5.0]
    # years and ages are still checked on every row
    deaths, expo = _hmd_pair(tmp_path, [
        "  2000   0   5.00   5.00   10.00", "  2000   1   4.00   4.00   8.00",
        "  2001   1x   4.00   4.00   8.00"])
    with pytest.raises(IngestError, match=re.escape(f"{deaths}: line 6: bad number")):
        ig.parse_hmd_annual(deaths, expo, "AAA", [2000], [0])


def _stmf_year(country="XXX", year=2018, weeks=52, sexes="mf", skip=()):
    return [f"{country},{year},{w},{s},10\n" for w in range(1, weeks + 1) for s in sexes
            if (w, s) not in skip]


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("Country,Year,Week,Sex,D0_4\nXXX,2018,1,m,10\n",
     "expected columns CountryCode,Year,Week,Sex,..."),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,10\nXXX,2018,1,x,10\n",
     "line 3: unknown sex code 'x'"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,10\nXXX,2018,54,m,10\n",
     "line 3: week 54 out of range"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,10\nXXX,2018,2,m,10,11\n",
     "line 3: expected 1 group values"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,10\nXXX,2018,2,m,-1\n",
     "line 3: negative death count"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,10\nXXX,2018,1,m,11\n",
     "duplicate row for year 2018, week 1, sex m"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,1x\nXXX,2018,1,m,11\n",
     "line 2: bad number: could not convert string to float: '1x'"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,2018,1,m,11\nXXX,2018,1,m,1x\n",
     "duplicate row for year 2018, week 1, sex m"),
    ("CountryCode,Year,Week,Sex,D0_4\n" + "".join(_stmf_year(skip={(7, "f")})),
     "missing row for year 2018, week 7, sex f"),
    ("CountryCode,Year,Week,Sex,D0_4\n" + "".join(_stmf_year(year=2020)),
     "missing row for year 2020, week 53, sex m"),
    ("CountryCode,Year,Week,Sex,D0_4\n" + "".join(_stmf_year(year=2021)) + "XXX,2021,53,f,10\n",
     "line 106: week 53 outside 1..52, the weeks of ISO year 2021"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,10000,1,m,1\n", "line 2: year 10000 outside 1..9999"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,1,0,m,1\nXXX,1,0,f,1\n",
     "line 2: week 0 of year 1 falls in year 0, outside 1..9999"),
    ("CountryCode,Year,Week,Sex,D0_4\nXXX,10001,1,m,1\nXXX,10001,0,f,1\n",
     "line 3: week 0 of year 10001 falls in year 10000, outside 1..9999"),
    ("CountryCode,Year,Week,Sex,D0_1,D4_2\nXXX,2018,1,m,1,1\n", "AgeIndex: low 4 > high 2"),
    ("CountryCode,Year,Week,Sex,D0_1,D3_4\nXXX,2018,1,m,1,1\n",
     "age groups 0_1 and 3_4 do not tile contiguously"),
    ("CountryCode,Year,Week,Sex,D0_110,D111p\nXXX,2018,1,m,1,1\n",
     "AgeIndex: low 111 > high 110"),
], ids=["empty", "wrong-header", "sex", "week-54", "value-count", "negative", "duplicate",
        "bad-value-before-duplicate", "duplicate-before-bad-value", "missing-week",
        "2020-without-week-53", "week-53-of-2021", "year-10000",
        "week-0-of-year-1", "week-0-of-year-10001", "reversed-group", "group-gap",
        "open-group-above-top-age"])
def test_parse_stmf_errors_name_file_and_line(tmp_path, text, message):
    path = tmp_path / "stmf.csv"
    path.write_text(text)
    _raises_exactly(f"{path}: {message}", ig.parse_stmf, str(path), "XXX")


def test_parse_stmf_drops_both_sexes_rows_unread(tmp_path):
    path = tmp_path / "stmf.csv"
    path.write_text("CountryCode,Year,Week,Sex,D0_4\n" + "".join(_stmf_year())
                    + "XXX,2018,1,b,oops\nXXX,2018,2,b,-5,extra\n")
    panels = ig.parse_stmf(str(path), "XXX")
    assert np.nansum(panels["m"].deaths) == 520.0
    assert np.nansum(panels["f"].deaths) == 520.0


@pytest.mark.parametrize("row, message", [
    ("2020-01-01,1,m", "line 3: expected 4 fields"),
    ("2020-1x-01,1,m,100", "line 3: bad date '2020-1x-01'"),
    ("2020-01-02,1,m,100", "line 3: snapshot date must be a first-of-period"),
    ("2020-02-01,1,m,100", "line 3: snapshot date must be a first-of-period"),
    ("2020-01-01,1,x,100", "line 3: unknown sex code 'x'"),
    ("2020-01-01,1,m,-100", "line 3: negative population count"),
    ("2020-01-01,0,m,99", "line 3: duplicate row for date 2020-01-01, sex m, age 0"),
    ("   \n2020-01-01,1,x,100", "line 4: unknown sex code 'x'"),  # a blank line is skipped
], ids=["three-fields", "bad-date", "not-first-of-month", "not-january", "sex", "negative",
        "duplicate", "after-whitespace-line"])
def test_parse_population_errors_name_file_and_line(tmp_path, row, message):
    path = tmp_path / "pop.csv"
    path.write_text(f"date,age,sex,count\n2020-01-01,0,m,100\n{row}\n")
    _raises_exactly(f"{path}: {message}", ig.parse_population, str(path), "eurostat_annual")


@pytest.mark.parametrize("which", ["deaths", "exposures"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
def test_parse_hmd_rejects_non_finite(tmp_path, which, text):
    good = {"deaths": "  2000   0   5.00   5.00   10.00",
            "exposures": "  2000   0   100.00   100.00   200.00"}
    paths = {}
    for kind, row in good.items():
        if kind == which:
            row = row.replace("5.00", text, 1).replace("100.00", text, 1)
        paths[kind] = tmp_path / f"{kind}.txt"
        paths[kind].write_text(HMD_HEADER + row + "\n")
    _raises_exactly(f"{paths[which]}: line 4: bad number: non-finite value {text!r}",
                    ig.parse_hmd_annual, str(paths["deaths"]), str(paths["exposures"]), "AAA",
                    [2000], [0])


def test_parse_hmd_skips_comment_lines(tmp_path):
    deaths, expo = _hmd_pair(tmp_path, [
        "# comment line", "  2000   0   5.00   5.00   10.00", "#", "",
        "  2000   1   4.00   4.00   8.00", "# trailing comment"])
    panel = ig.parse_hmd_annual(deaths, expo, "AAA", [2000], [0, 1])
    assert panel.deaths[0, 0, :, 0].tolist() == [5.0, 4.0]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_parse_stmf_rejects_non_finite(tmp_path, text):
    path = tmp_path / "stmf.csv"
    path.write_text(f"CountryCode,Year,Week,Sex,D0_4\nXXX,2018,2,m,10\nXXX,2018,1,m,{text}\n")
    _raises_exactly(f"{path}: line 3: bad number: non-finite value {text!r}",
                    ig.parse_stmf, str(path), "XXX")
