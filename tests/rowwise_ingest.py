"""The row-wise HMD and STMF parsers that `pandmort.ingest` replaced with
column-wise ones, kept as the reference the equivalence tests in
``test_ingest_equivalence.py`` compare against.  They accept ``nan``/``inf``
counts and fail on ``#`` lines after the HMD header, where `pandmort.ingest`
now rejects and skips them.  Their one change since is the ISO rule: a
year's weeks are its ISO weeks, not the ones its rows hold, so a week past
them is an error naming its line, and a missing week 53 a missing row."""

import csv
import logging

import numpy as np

from pandmort.datastore import (
    MAX_WEEKS, AgeIndex, AnnualPanel, WeeklyPanel, check_age_partition, weeks_in_iso_year,
)
from pandmort.errors import IngestError
from pandmort.ingest import _parse_group_columns

log = logging.getLogger(__name__)


def _number(convert, text, path, lineno):
    """``convert(text)``, or an IngestError naming the file and line."""
    try:
        return convert(text)
    except ValueError as exc:
        raise IngestError(f"{path}: line {lineno}: bad number: {exc}") from None


def _no_separators(fields, path, lineno):
    """IngestError when a field holds a ``_``, which `int` and `float` read as
    a digit separator (``1_0`` is 10); one scan per line, not per number."""
    if "_" in "".join(fields):
        bad = next(v for v in fields if "_" in v)
        raise IngestError(f"{path}: line {lineno}: bad number: digit separator in {bad!r}")


def _read_hmd_file(path):
    """Read one 1x1 file -> {(year, age): (female, male, line number)}."""
    cells = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    started = False
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if not started:
            if parts[0] == "Year":
                if parts[:5] != ["Year", "Age", "Female", "Male", "Total"]:
                    raise IngestError(f"{path}: line {lineno}: unexpected column header")
                started = True
            continue
        if len(parts) != 5:
            raise IngestError(f"{path}: line {lineno}: expected 5 columns, got {len(parts)}")
        _no_separators(parts, path, lineno)
        year = _number(int, parts[0], path, lineno)
        age = 110 if parts[1] == "110+" else _number(int, parts[1], path, lineno)
        if (year, age) in cells:
            raise IngestError(f"{path}: line {lineno}: duplicate row for year {year}, age {age}")
        cells[(year, age)] = (parts[2], parts[3], lineno)
    if not started:
        raise IngestError(f"{path}: no 'Year Age Female Male Total' header found")
    return cells


def _fill_panel(cells, path, years, ages, out, kind):
    for j, t in enumerate(years):
        for i, x in enumerate(ages):
            if (t, x) not in cells:
                raise IngestError(f"{path}: missing {kind} cell for year {t}, age {x}")
            f_raw, m_raw, lineno = cells[(t, x)]
            for gi, raw in ((0, m_raw), (1, f_raw)):
                if raw == ".":
                    raise IngestError(f"{path}: missing-value marker at year {t}, age {x}")
                val = _number(float, raw, path, lineno)
                if val < 0:
                    raise IngestError(f"{path}: negative {kind} at year {t}, age {x}")
                out[gi, i, j] = val


def parse_hmd_annual(deaths_path, exposures_path, country, years, ages):
    """Parse a deaths/exposures file pair into a single-country AnnualPanel."""
    years = np.asarray(list(years))
    ages = np.asarray(list(ages))
    deaths = np.empty((1, 2, len(ages), len(years)))
    expos = np.empty((1, 2, len(ages), len(years)))
    _fill_panel(_read_hmd_file(deaths_path), deaths_path, years, ages, deaths[0], "death")
    _fill_panel(_read_hmd_file(exposures_path), exposures_path, years, ages, expos[0], "exposure")
    panel = AnnualPanel(countries=(country,), ages=ages, years=years, deaths=deaths, exposures=expos)
    return panel.validate()


def parse_stmf_countries(path, countries, open_group_high=110):
    """Parse a multi-country weekly grouped-deaths file once into
    {country: {gender: WeeklyPanel}} for each of ``countries``.

    Rows of other countries are skipped unchecked.  Week-0 rows of year t are
    merged into week w_{t-1} of year t-1 (the two partial calendar weeks
    around New Year are one ISO week); sex 'b' rows are dropped.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if header[:4] != ["CountryCode", "Year", "Week", "Sex"]:
        raise IngestError(f"{path}: expected columns CountryCode,Year,Week,Sex,...")
    flag_cols = [i for i, n in enumerate(header) if n in ("Split", "Forecast")]
    group_names = [n for i, n in enumerate(header[4:], start=4) if i not in flag_cols]
    specs = _parse_group_columns(group_names)
    ages = []
    for s in specs:
        if s[0] == "open":
            ages.append(AgeIndex(s[1], open_group_high))
        else:
            ages.append(AgeIndex(s[1], s[2]))
    check_age_partition(ages)
    ages = tuple(ages)
    ncols = len(group_names)

    by_country = {c: {} for c in countries}  # country -> (year, week, sex) -> counts
    flagged = 0
    for lineno, row in enumerate(rows, start=2):
        if not row or row[0] not in by_country:
            continue
        if len(row) < 4:
            raise IngestError(f"{path}: line {lineno}: expected at least 4 fields, got {len(row)}")
        _no_separators(row[1:3] + row[4:], path, lineno)  # codes such as GBR_SCO hold a "_"
        data = by_country[row[0]]
        year, week = _number(int, row[1], path, lineno), _number(int, row[2], path, lineno)
        sex = row[3]
        if sex == "b":
            continue
        if sex not in ("m", "f"):
            raise IngestError(f"{path}: line {lineno}: unknown sex code {sex!r}")
        if not (0 <= week <= MAX_WEEKS):
            raise IngestError(f"{path}: line {lineno}: week {week} out of range")
        if week and not (0 < year < 10000):
            raise IngestError(f"{path}: line {lineno}: year {year} outside 1..9999")
        if week > weeks_in_iso_year(year):
            raise IngestError(f"{path}: line {lineno}: week {week} outside "
                              f"1..{weeks_in_iso_year(year)}, the weeks of ISO year {year}")
        if (year, week, sex) in data:
            raise IngestError(f"{path}: duplicate row for year {year}, week {week}, sex {sex}")
        vals = [v for i, v in enumerate(row[4:], start=4) if i not in flag_cols]
        if len(vals) != ncols:
            raise IngestError(f"{path}: line {lineno}: expected {ncols} group values")
        if any(i in flag_cols and row[i] not in ("", "0") for i in range(len(row))):
            flagged += 1
        counts = np.array([_number(float, v, path, lineno) for v in vals])
        if (counts < 0).any():
            raise IngestError(f"{path}: line {lineno}: negative death count")
        data[(year, week, sex)] = counts
    if flagged:
        log.warning("%s: %d rows carry Split/Forecast flags; counts used as-is", path, flagged)
    return {c: _weekly_panels(path, c, ages, data) for c, data in by_country.items()}


def _weekly_panels(path, country, ages, data):
    """One country's parsed rows {(year, week, sex): counts} -> {gender: WeeklyPanel}."""
    # Merge week 0 of year t into the final week of year t-1.
    for (year, week, sex) in sorted(k for k in data if k[1] == 0):
        counts = data.pop((year, week, sex))
        prev_wt = weeks_in_iso_year(year - 1)
        key = (year - 1, prev_wt, sex)
        if key in data:
            data[key] = data[key] + counts
        else:
            data[key] = counts

    years = tuple(sorted({y for (y, _, _) in data}))
    if not years:
        raise IngestError(f"{path}: no usable rows for country {country}")
    panels = {}
    for sex in ("m", "f"):
        deaths = np.full((len(ages), len(years), MAX_WEEKS), np.nan)
        for j, t in enumerate(years):
            for w in range(1, weeks_in_iso_year(t) + 1):
                key = (t, w, sex)
                if key not in data:
                    raise IngestError(f"{path}: missing row for year {t}, week {w}, sex {sex}")
                deaths[:, j, w - 1] = data[key]
        panels[sex] = WeeklyPanel(
            country=country, gender=sex, ages=ages, years=years, deaths=deaths,
        ).validate()
    return panels
