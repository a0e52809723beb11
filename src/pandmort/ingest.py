"""Strict parsers for the annual, weekly and population input files.

Layouts (documented, no column-reordering tolerance):

* annual 1x1 files: a header line, then whitespace-separated columns
  ``Year Age Female Male Total``; age ``110+`` maps to 110; a ``.`` marker
  inside the requested range is an error, never a zero.
* weekly files: comma-separated ``CountryCode,Year,Week,Sex,<groups...>``
  with group columns named ``D<low>_<high>`` and ``D<low>p`` for the open
  final group, which ends at 110; optional trailing ``Split``/``Forecast``
  flag columns are ignored with a warning.
* population files: ``date(YYYY-MM-DD),age,sex,count``.

Which rows get which checks:

* annual files: every data row's field count, digit separators, year and
  age are checked, and no (year, age) may repeat; the values are read only
  for the requested years and ages, where a missing cell, a ``.``, or a
  bad, non-finite or negative number is an error.  Total is never read.
* weekly files: rows of other countries get no check.  Rows of the
  requested countries get their field count, separators, year and week
  checked; sex ``b`` rows are then dropped, and every other row gets the
  sex, week range, duplicate, group-count and value checks; after the week-0
  merge, a year's rows must be its ISO weeks, a long year's week 53 too.
* population files: every row gets every check, and no (date, sex, age)
  may repeat.

Blank lines and lines starting with ``#`` are skipped.  A number is bad if
Python's ``int`` or ``float`` rejects it, if it holds a ``_`` digit
separator, or if it is ``nan`` or infinite.  The annual and weekly parsers
check a whole column at a time, so in a file with several faults the first
fault reported may not be on the first bad line.
"""

from __future__ import annotations

import csv
import io
import logging
import os

import numpy as np

from .datastore import (
    MAX_WEEKS, AgeIndex, AnnualPanel, WeeklyPanel, _check_cells, _check_weeks, _data_lines,
    _finite, _levels, _numbers, check_age_partition, read_text, week_mask, weeks_in_iso_year,
)
from .errors import IngestError, ValidationError
from .exposures import PopulationSnapshot

log = logging.getLogger(__name__)

TOP_AGE = 110  # the raw data's top age: HMD's open ``110+`` and the weekly open group's end

# The files of a raw dataset directory, by kind; ``{c}`` is the country code.
RAW_FILES = {
    "deaths": "{c}_deaths.txt",
    "exposures": "{c}_exposures.txt",
    "weekly": "weekly_deaths.csv",
    "population": "{c}_population.csv",
}


def raw_path(data_dir, kind, c=None):
    """The path of the raw ``kind`` file of country ``c`` in ``data_dir``."""
    return os.path.join(data_dir, RAW_FILES[kind].format(c=c))


def _number(convert, text, path, lineno):
    """``convert(text)``, or an IngestError naming the file and line."""
    try:
        return _finite(convert, text)
    except ValueError as exc:
        raise IngestError(f"{path}: line {lineno}: bad number: {exc}") from None


def _no_separators(fields, path, lineno):
    """IngestError when a field holds a ``_``, which `int` and `float` read as
    a digit separator (``1_0`` is 10)."""
    if "_" in "".join(fields):
        bad = next(v for v in fields if "_" in v)
        raise IngestError(f"{path}: line {lineno}: bad number: digit separator in {bad!r}")


def _hmd_age(text):
    """An annual file's age: an integer, or ``110+`` for the open age group."""
    return TOP_AGE if text == f"{TOP_AGE}+" else int(text)


def _lookup(levels, values):
    """Index of each value among the sorted ``levels``, or -1 where absent."""
    i = np.searchsorted(levels, values)
    hit = i < len(levels)
    hit[hit] = levels[i[hit]] == values[hit]
    return np.where(hit, i, -1)


def _csv_rows(path):
    """The first row of the CSV file ``path`` (None if it has none) and the
    list of the rows after it; a malformed row is an IngestError naming its line."""
    reader = csv.reader(io.StringIO(read_text(path, IngestError)))
    try:
        return next(reader, None), list(reader)
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_hmd_file(path, years, ages, kind):
    """One 1x1 file's (male, female) values on the ages x years grid, shape
    (2, len(ages), len(years)).

    Every data row's field count, separators, year and age are checked;
    values are read only for the requested cells.
    """
    lines = read_text(path, IngestError).splitlines()
    for start, line in enumerate(lines, start=1):
        parts = line.split()
        if parts and parts[0] == "Year":
            if parts[:5] != ["Year", "Age", "Female", "Male", "Total"]:
                raise IngestError(f"{path}: line {start}: unexpected column header")
            break
    else:
        raise IngestError(f"{path}: no 'Year Age Female Male Total' header found")
    rows, lineno = _data_lines(lines, start)
    cols = [[], [], [], []]  # year, age, female, male
    for b in range(0, len(rows), 1024):  # a block of rows at a time bounds the token lists
        block = rows[b:b + 1024]
        parts = list(map(str.split, block))
        fields = list(map(len, parts))
        if fields.count(5) != len(fields):
            k = next(k for k, n in enumerate(fields) if n != 5)
            raise IngestError(f"{path}: line {lineno(b + k)}: expected 5 columns, got {fields[k]}")
        if "_" in "".join(block):
            k = next(k for k, line in enumerate(block) if "_" in line)
            _no_separators(parts[k], path, lineno(b + k))
        for col, values in zip(cols, zip(*parts)):
            col += values
    year_col, age_col, female, male = cols
    del rows, cols
    file_years, yi = _levels(path, year_col, lineno, int, IngestError)
    file_ages, ai = _levels(path, age_col, lineno, _hmd_age, IngestError)
    del year_col, age_col
    flat = yi * len(file_ages) + ai
    if len(flat) and np.bincount(flat).max() > 1:
        repeat = np.ones(len(flat), dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        k = int(np.argmax(repeat))
        raise IngestError(f"{path}: line {lineno(k)}: duplicate row for year "
                          f"{file_years[yi[k]]}, age {file_ages[ai[k]]}")
    # file row of each (year, age); the extra row and column of -1 serve the
    # requested years and ages the file lacks, which _lookup maps to -1
    row_of = np.full((len(file_years) + 1, len(file_ages) + 1), -1)
    row_of[yi, ai] = np.arange(len(flat))
    row_of = row_of[np.ix_(_lookup(file_years, years), _lookup(file_ages, ages))]
    cells = row_of.T.ravel().tolist()  # age-major, the panel's layout
    out = None
    if min(cells, default=0) >= 0:
        try:
            out = np.array([np.fromiter(map(float, map(col.__getitem__, cells)), float, len(cells))
                            for col in (male, female)])
        except ValueError:
            pass
    if out is None or not (np.isfinite(out).all() and (out >= 0).all()):
        for (j, i), k in np.ndenumerate(row_of):  # the first bad cell, year-major
            t, x = years[j], ages[i]
            if k < 0:
                raise IngestError(f"{path}: missing {kind} cell for year {t}, age {x}")
            for raw in (male[k], female[k]):
                if raw == ".":
                    raise IngestError(f"{path}: missing-value marker at year {t}, age {x}")
                if _number(float, raw, path, lineno(k)) < 0:
                    raise IngestError(f"{path}: negative {kind} at year {t}, age {x}")
    return out.reshape(2, len(ages), len(years))


def parse_hmd_annual(deaths_path, exposures_path, country, years, ages):
    """Parse a deaths/exposures file pair into a single-country AnnualPanel."""
    years = np.asarray(list(years))
    ages = np.asarray(list(ages))
    deaths = _read_hmd_file(deaths_path, years, ages, "death")[None]
    expos = _read_hmd_file(exposures_path, years, ages, "exposure")[None]
    panel = AnnualPanel(countries=(country,), ages=ages, years=years, deaths=deaths, exposures=expos)
    return panel.validate()


def _parse_group_columns(names):
    groups = []
    for name in names:
        if not name.startswith("D"):
            raise IngestError(f"unexpected weekly-deaths column {name!r}")
        body = name[1:]
        # the one "_" allowed separates a closed group's bounds: int("4_5") is 45
        if body.count("_") != (0 if body.endswith("p") else 1):
            raise IngestError(f"unexpected weekly-deaths column {name!r}")
        try:
            if body.endswith("p"):
                groups.append(("open", int(body[:-1])))
            else:
                lo, _, hi = body.partition("_")
                groups.append(("closed", int(lo), int(hi)))
        except ValueError:
            raise IngestError(f"unexpected weekly-deaths column {name!r}") from None
    return groups


def parse_stmf(path, country):
    """Parse a weekly grouped-deaths file into one WeeklyPanel per gender;
    `parse_stmf_countries` for a single country."""
    return parse_stmf_countries(path, (country,))[country]


def parse_stmf_countries(path, countries):
    """Parse a multi-country weekly grouped-deaths file once into
    {country: {gender: WeeklyPanel}} for each of ``countries``.

    Rows of other countries are skipped unchecked.  Week-0 rows of year t are
    merged into week w_{t-1} of year t-1 (the two partial calendar weeks
    around New Year are one ISO week); sex 'b' rows are dropped.
    """
    header, rows = _csv_rows(path)
    if header is None:
        raise IngestError(f"{path}: empty file")
    if header[:4] != ["CountryCode", "Year", "Week", "Sex"]:
        raise IngestError(f"{path}: expected columns CountryCode,Year,Week,Sex,...")
    flag_cols = [i for i, n in enumerate(header) if n in ("Split", "Forecast")]
    value_cols = [i for i in range(4, len(header)) if i not in flag_cols]
    try:  # a malformed age-group header names the file, as every other fault does
        ages = tuple(AgeIndex(s[1], TOP_AGE if s[0] == "open" else s[2])
                     for s in _parse_group_columns([header[i] for i in value_cols]))
        check_age_partition(ages)
    except (IngestError, ValidationError) as exc:
        raise IngestError(f"{path}: {exc}") from None

    code = {c: i for i, c in enumerate(dict.fromkeys(countries))}
    picked = [k for k, row in enumerate(rows) if row and row[0] in code]
    rows = list(map(rows.__getitem__, picked))
    line = np.array(picked, dtype=np.intp) + 2
    del picked

    def lineno(k):  # reads ``line`` as it is when called: sex-b rows get dropped below
        return line[k]

    length = np.fromiter(map(len, rows), np.intp, len(rows))
    if (length < 4).any():
        k = int(np.argmax(length < 4))
        raise IngestError(f"{path}: line {lineno(k)}: expected at least 4 fields, got {length[k]}")
    # pad rows without the trailing flag columns, so that the columns line up
    width = max(len(header), length.max(initial=0))
    if (length < width).any():
        rows = [row + [""] * (width - len(row)) for row in rows]
    cols = list(zip(*rows)) or [()] * width
    del rows
    checked = [cols[1], cols[2], *cols[4:]]  # codes such as GBR_SCO hold a "_"
    if any("_" in "".join(col) for col in checked):
        k = next(k for k, fields in enumerate(zip(*checked)) if "_" in "".join(fields))
        _no_separators([col[k] for col in checked], path, lineno(k))
    del checked
    country = np.fromiter(map(code.__getitem__, cols[0]), np.intp, len(line))
    years, yi = _levels(path, cols[1], lineno, int, IngestError)
    week_levels, wi = _levels(path, cols[2], lineno, int, IngestError)
    week = week_levels[wi]
    sexes, si = _levels(path, cols[3], lineno)
    # 0 and 1 index the panels' genders, 2 marks the both-sexes rows, 3 is unknown
    sex = np.array([{"m": 0, "f": 1, "b": 2}.get(sx, 3) for sx in sexes], dtype=np.intp)[si]
    if (sex == 3).any():
        k = int(np.argmax(sex == 3))
        raise IngestError(f"{path}: line {lineno(k)}: unknown sex code {cols[3][k]!r}")
    bad = (sex < 2) & ((week < 0) | (week > MAX_WEEKS))
    if bad.any():
        k = int(np.argmax(bad))
        raise IngestError(f"{path}: line {lineno(k)}: week {week[k]} out of range")
    keep = sex < 2
    if not keep.all():
        kept = np.flatnonzero(keep).tolist()
        cols = [list(map(col.__getitem__, kept)) for col in cols]
        country, yi, week, sex, length, line = (
            v[keep] for v in (country, yi, week, sex, length, line))
    shape = (len(code), 2, len(years), MAX_WEEKS + 1)
    cell = np.ravel_multi_index((country, sex, yi, week), shape)
    # a row's value errors are reported before a later row's duplicate key, so
    # the value checks below look only at the n rows before the first repeat
    n = len(cell)
    if n and np.bincount(cell).max() > 1:
        repeat = np.ones(n, dtype=bool)
        repeat[np.unique(cell, return_index=True)[1]] = False
        n = int(np.argmax(repeat))
    ncols = len(value_cols)
    bad = length[:n] - 4 - np.searchsorted(flag_cols, length[:n]) != ncols
    if bad.any():
        raise IngestError(f"{path}: line {lineno(int(np.argmax(bad)))}: "
                          f"expected {ncols} group values")
    counts = np.array([_numbers(path, cols[i][:n], float, lineno, IngestError)
                       for i in value_cols])
    counts = counts.reshape(ncols, n)  # one row per age group
    bad = (counts < 0).any(axis=0)
    if bad.any():
        raise IngestError(f"{path}: line {lineno(int(np.argmax(bad)))}: negative death count")
    if n < len(cell):
        raise IngestError(f"{path}: duplicate row for year {years[yi[n]]}, week {week[n]}, "
                          f"sex {'mf'[sex[n]]}")
    flagged = np.zeros(len(line), dtype=bool)
    for f in flag_cols:
        flagged |= ~np.fromiter(map(("", "0").__contains__, cols[f]), bool, len(line))
    if flagged.any():
        log.warning("%s: %d rows carry Split/Forecast flags; counts used as-is",
                    path, flagged.sum())
    del cols

    # Week 0 of year t is the final week of year t-1.
    year = years[yi]
    merged = week == 0
    if merged.any():
        last = np.zeros(len(years), dtype=week.dtype)
        for j in np.unique(yi[merged]).tolist():
            prior = int(years[j]) - 1
            if not 0 < prior < 10000:  # the years `datetime` knows
                k = int(np.argmax(merged & (yi == j)))
                raise IngestError(f"{path}: line {lineno(k)}: week 0 of year {years[j]} "
                                  f"falls in year {prior}, outside 1..9999")
            last[j] = weeks_in_iso_year(prior)
        week = np.where(merged, last[yi], week)
        year = year - merged
    _check_weeks(path, year, week, lineno, IngestError)
    panels = {}
    for c, name in enumerate(code):
        mine = country == c
        if not mine.any():
            raise IngestError(f"{path}: no usable rows for country {name}")
        panels[name] = _weekly_panels(path, name, ages, sex[mine], year[mine], week[mine],
                                      merged[mine], counts[:, mine])
    return panels


def _weekly_panels(path, country, ages, sex, year, week, merged, counts):
    """One country's rows -> {gender: WeeklyPanel}.  ``week`` is each row's
    ISO week after the week-0 merge, and ``merged`` marks the rows that came
    from week 0: each one's counts are added to those of the row it joins,
    if there is one."""
    years = sorted(set(year.tolist()))
    yj, wk = np.searchsorted(years, year), week - 1
    have = np.zeros((2, len(years), MAX_WEEKS), dtype=bool)
    have[sex[~merged], yj[~merged], wk[~merged]] = True
    joins = merged.copy()
    joins[merged] = have[sex[merged], yj[merged], wk[merged]]
    have[sex, yj, wk] = True
    _check_cells(path, np.flatnonzero(have), np.broadcast_to(week_mask(years), have.shape),
                 lambda g, j, w: f"row for year {years[j]}, week {w + 1}, sex {'mf'[g]}",
                 IngestError)
    panels = {}
    for g, gender in enumerate(("m", "f")):
        deaths = np.full((len(ages), len(years), MAX_WEEKS), np.nan)
        plain, joined = (sex == g) & ~joins, (sex == g) & joins
        deaths[:, yj[plain], wk[plain]] = counts[:, plain]
        deaths[:, yj[joined], wk[joined]] += counts[:, joined]
        panels[gender] = WeeklyPanel(
            country=country, gender=gender, ages=ages, years=tuple(years), deaths=deaths,
        ).validate()
    return panels


def parse_population(path, layout="eurostat_annual"):
    """Parse a population file into PopulationSnapshot objects.

    ``layout`` is 'eurostat_annual' (the default; one snapshot per
    1 January) or 'nl_monthly' (one per first-of-month); both share the CSV
    layout ``date,age,sex,count``.  Returns a list sorted by date.
    """
    if layout not in ("eurostat_annual", "nl_monthly"):
        raise IngestError(f"unknown population layout {layout!r}")
    header, rows = _csv_rows(path)
    if header != ["date", "age", "sex", "count"]:
        raise IngestError(f"{path}: expected columns date,age,sex,count")
    by_key = {}
    for lineno, row in enumerate(rows, start=2):
        if (len(row) < 2 and not "".join(row).strip()) or row[0].startswith("#"):
            continue  # a blank line, or a comment
        if len(row) != 4:
            raise IngestError(f"{path}: line {lineno}: expected 4 fields")
        _no_separators(row[:2] + row[3:], path, lineno)
        try:
            y, m, d = (int(v) for v in row[0].split("-"))
        except ValueError:
            raise IngestError(f"{path}: line {lineno}: bad date {row[0]!r}") from None
        if d != 1 or (layout == "eurostat_annual" and m != 1):
            raise IngestError(f"{path}: line {lineno}: snapshot date must be a first-of-period")
        sex = row[2]
        if sex not in ("m", "f"):
            raise IngestError(f"{path}: line {lineno}: unknown sex code {sex!r}")
        age, count = _number(int, row[1], path, lineno), _number(float, row[3], path, lineno)
        if count < 0:
            raise IngestError(f"{path}: line {lineno}: negative population count")
        per_age = by_key.setdefault(((y, m, d), sex), {})
        if age in per_age:
            raise IngestError(f"{path}: line {lineno}: duplicate row for date {row[0]}, "
                              f"sex {sex}, age {age}")
        per_age[age] = count
    snapshots = []
    for (date, sex), per_age in sorted(by_key.items()):
        ages = np.array(sorted(per_age))
        if len(ages) != ages[-1] - ages[0] + 1:
            missing = sorted(set(range(ages[0], ages[-1] + 1)) - set(per_age))
            raise IngestError(f"{path}: snapshot {date} sex {sex}: missing ages {missing}")
        counts = np.array([per_age[a] for a in ages])
        snapshots.append(
            PopulationSnapshot(date=date, gender=sex, ages=ages, counts=counts).validate()
        )
    if not snapshots:
        raise IngestError(f"{path}: no snapshots found")
    return snapshots
