"""The column-wise raw parsers return what the row-wise ones they replaced
returned (``rowwise_ingest``), or raise the same error, on generated HMD and
STMF files with at most one corrupted line."""

import os
import random
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pandmort.ingest as ig
import rowwise_ingest as ref
from pandmort.errors import PandmortError

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
HMD_HEADER = ["stub line", "", "  Year          Age             Female            Male"
              "           Total"]


def _outcome(parse, *args):
    try:
        return parse(*args)
    except PandmortError as exc:
        return type(exc), str(exc)


def _corrupt(draw, lines, data, edits):
    """Apply at most one edit from ``edits`` to one of the ``data`` line indices."""
    if not data or draw(st.integers(0, 3)) == 0:
        return lines
    k = draw(st.sampled_from(data))
    fields = lines[k].split(",") if "," in lines[k] else lines[k].split()
    edit = draw(st.sampled_from(edits))
    if edit == "delete":
        return lines[:k] + lines[k + 1:]
    if edit == "no-header":
        return lines[:1]
    if edit == "repeat":
        return lines[:k + 1] + lines[k:]
    if edit == "drop-field":
        fields = fields[:-1]
    elif edit == "truncate":
        fields = fields[:2]
    elif edit == "add-field":
        fields = fields + ["7"]
    else:
        f, text = edit
        fields[min(f, len(fields) - 1)] = text
    sep = "," if "," in lines[k] else "   "
    return lines[:k] + [sep.join(fields)] + lines[k + 1:]


@st.composite
def hmd_files(draw):
    years = list(range(1999, 1999 + draw(st.integers(1, 3))))
    ages = list(range(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        ages.append(110)
    value = st.integers(1, 99999).map(lambda v: f"{v / 100:.2f}")
    files = []
    for _ in range(2):
        rows = [f"  {t}   {'110+' if x == 110 else x}   {draw(value)}   {draw(value)}   0.00"
                for t in years for x in ages]
        rows = draw(st.permutations(rows))
        blanks = draw(st.lists(st.integers(0, len(rows)), max_size=2))
        for b in sorted(blanks, reverse=True):
            rows.insert(b, "")
        files.append(HMD_HEADER + rows)
    which = draw(st.integers(0, 1))
    data = [k for k, line in enumerate(files[which]) if k >= len(HMD_HEADER) and line]
    edits = ["delete", "repeat", "drop-field", "add-field", "truncate", "no-header",
             (0, "20x0"), (0, "1_999"), (0, str(years[-1] + 1)), (0, str(years[0])),
             (1, "0x"), (1, "0"), (1, "110+"), (1, "111"),
             (2, "."), (2, "-1"), (2, "12x4"), (3, "."), (3, "-0.5"), (3, "1e2.5"),
             (3, "1_0"), (4, "."), (4, "junk")]
    files[which] = _corrupt(draw, files[which], data, edits)
    want_years = years[draw(st.integers(0, len(years) - 1)):]
    if draw(st.sampled_from([False, False, False, True])):
        want_years.append(2005)
    want_ages = ages[:draw(st.integers(1, len(ages)))]
    return files, want_years, want_ages


@SETTINGS
@given(hmd_files())
def test_parse_hmd_annual_matches_rowwise(case):
    files, years, ages = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("deaths.txt", "exposures.txt")]
        for path, lines in zip(paths, files):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        got = _outcome(ig.parse_hmd_annual, *paths, "AAA", years, ages)
        want = _outcome(ref.parse_hmd_annual, *paths, "AAA", years, ages)
    if isinstance(want, tuple):
        assert got == want
    else:
        for name in ("countries", "ages", "years", "deaths", "exposures"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@st.composite
def stmf_files(draw):
    groups = draw(st.sampled_from([["D0_4"], ["D0_4", "D5p"], ["D0_9", "D10_49", "D50p"]]))
    flags = draw(st.sampled_from([[], ["Forecast"], ["Split", "Forecast"]]))
    header = ["CountryCode", "Year", "Week", "Sex"] + groups + flags
    countries = draw(st.lists(st.sampled_from(["XXX", "GBR_SCO", "YYY"]), min_size=1,
                              max_size=2, unique=True))
    first = draw(st.sampled_from([2014, 2015, 2019, 2020]))
    years = list(range(first, first + draw(st.integers(1, 2))))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    rows = []
    for c in countries + ["ZZZ"]:
        for t in years:
            weeks = list(range(1, ig.weeks_in_iso_year(t) + 1))
            if t > first and rnd.random() < 0.5:
                weeks.append(0)
            for w in weeks:
                for sx in ["m", "f"] + (["b"] if rnd.random() < 0.1 else []):
                    vals = [rnd.choice([str(rnd.randrange(500)), "3.25"]) for _ in groups]
                    vals += [rnd.choice(["", "0", "1"]) for _ in flags]
                    if sx == "b" and rnd.random() < 0.5:
                        vals = ["junk"]
                    rows.append(",".join([c, str(t), str(w), sx] + vals))
    rows.append("ZZZ,bad,row")
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    blanks = draw(st.lists(st.integers(0, len(rows)), max_size=2))
    for b in sorted(blanks, reverse=True):
        rows.insert(b, "")
    lines = [",".join(header)] + rows
    data = [k for k, line in enumerate(lines)
            if k and line and line.split(",")[0] in countries]
    edits = ["delete", "repeat", "drop-field", "add-field", "truncate",
             (1, "2x18"), (1, "1_999"), (1, str(first - 1)), (2, "1w"), (2, "54"),
             (2, "-1"), (2, "0"), (2, "53"), (2, "1"), (3, "x"), (3, "b"), (3, "m"),
             (4, "8z"), (4, "-1"), (4, "1_0"), (4, ""), (5, "."), (len(header) - 1, "1")]
    week53 = [k for k in data if lines[k].split(",")[2] == "53"]
    if week53 and draw(st.integers(0, 5)) == 0:  # one sex without the 53rd week
        k = draw(st.sampled_from(week53))
        return lines[:k] + lines[k + 1:], countries
    return _corrupt(draw, lines, data, edits), countries


@SETTINGS
@given(stmf_files())
def test_parse_stmf_countries_matches_rowwise(case):
    lines, countries = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weekly.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        got = _outcome(ig.parse_stmf_countries, path, countries)
        want = _outcome(ref.parse_stmf_countries, path, countries)
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got) == list(want)
    for c in want:
        assert list(got[c]) == list(want[c])
        for g, panel in want[c].items():
            mine = got[c][g]
            assert (mine.country, mine.gender, mine.ages, mine.years) == (
                panel.country, panel.gender, panel.ages, panel.years)
            np.testing.assert_array_equal(mine.deaths, panel.deaths)
            assert mine.exposures is None and panel.exposures is None
