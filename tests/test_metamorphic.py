"""Metamorphic tests of the whole pipeline: ``run-all`` on ``synth --seed
1234`` data under ``method = 2``, against ``run-all`` on a transformed copy
of its raw files or of its config, whose outputs are known from the
original run's.

Every output file ends with the ``#confighash`` stamp of the config text,
which differs between the runs by design, so the files are compared
without it.
"""

import os
import re

import pytest

import pandmort.cli as cli

CONFIG = "[data]\ndir = {datadir}\n\n[run]\ncountries = AAA,BBB\n"

# The same run with its sections in the other order and comment lines of
# both kinds.
REORDERED = """\
# the raw files are doubled nowhere
[run]
; the two synthetic countries
countries = AAA,BBB
#method = 1

[data]
; from `pandmort synth`
dir = {datadir}
"""

# The columns that hold counts, or sums of them, in the files whose other
# columns are unchanged when the raw counts double.
COUNT_COLUMNS = {
    "annual_panel.csv": ("deaths", "exposure"),
    "weekly_": ("deaths",),
    "population_": ("count",),
    "covid_fit_": ("observed", "predicted", "fitted"),
    "baseline_iterations.csv": ("lnl",),
}
# The CoDa fit adds 1 to every weekly count before it takes logs, which is
# not scale-free, so its files change with the counts (ROADMAP item 5).
NOT_SCALE_FREE = "coda_"


def _run_all(root, config):
    """``run-all`` under ``config`` into ``root/out``; the file texts
    without their stamp line, by name."""
    root.mkdir(exist_ok=True)
    (root / "run.ini").write_text(config)
    out = root / "out"
    assert cli.main(["run-all", "--config", str(root / "run.ini"), "--out", str(out)]) == 0
    texts = {}
    for name in sorted(os.listdir(out)):
        body, stamp = (out / name).read_text(encoding="utf-8").rsplit("#confighash:", 1)
        assert re.fullmatch(r"[0-9a-f]{16}\n", stamp), name
        texts[name] = body
    return texts


def _double_hmd(line):  # year, age, female, male, total
    year, age, *counts = line.split()
    return "  %s   %5s   %.2f   %.2f   %.2f\n" % (year, age, *(2 * float(x) for x in counts))


def _double_stmf(line):  # country, year, week, sex, then one count per age group
    fields = line.rstrip("\n").split(",")
    return ",".join(fields[:4] + [str(2 * int(x)) for x in fields[4:]]) + "\n"


def _double_population(line):  # date, age, sex, count
    date, age, sex, count = line.rstrip("\n").split(",")
    return "%s,%s,%s,%.2f\n" % (date, age, sex, 2 * float(count))


# Each raw file of `synth`, by the end of its name: its header lines, and its
# row with the counts doubled, in the format `synth` writes.
DOUBLED_ROWS = {"_deaths.txt": (3, _double_hmd), "_exposures.txt": (3, _double_hmd),
                "weekly_deaths.csv": (1, _double_stmf),
                "_population.csv": (1, _double_population)}


def _double_raw_counts(datadir):
    """Double every count of the raw files of ``synth`` in ``datadir``."""
    for path in sorted(datadir.iterdir()):
        [(skip, double)] = [v for end, v in DOUBLED_ROWS.items() if path.name.endswith(end)]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:skip] + [double(line) for line in lines[skip:]]),
                        encoding="utf-8")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    data, doubled = root / "data", root / "doubled_data"
    for d in (data, doubled):
        assert cli.main(["synth", "--out", str(d), "--seed", "1234"]) == 0
    _double_raw_counts(doubled)
    return {"original": _run_all(root / "original", CONFIG.format(datadir=data)),
            "doubled": _run_all(root / "doubled", CONFIG.format(datadir=doubled)),
            "reordered": _run_all(root / "reordered", REORDERED.format(datadir=data))}


def _assert_doubled(name, original, doubled, columns):
    """The ``columns`` of table ``doubled`` hold exactly twice the numbers
    of ``original``'s, and every other field is the same text."""
    rows, rows2 = original.splitlines(), doubled.splitlines()
    assert rows[0] == rows2[0] and len(rows) == len(rows2), name
    scaled = [f in columns for f in rows[0].split(",")]
    assert sum(scaled) == len(columns), name
    for lineno, (row, row2) in enumerate(zip(rows[1:], rows2[1:]), 2):
        for x, y, s in zip(row.split(","), row2.split(","), scaled, strict=True):
            assert float(y) == 2 * float(x) if s else x == y, f"{name}: line {lineno}"


def test_doubled_counts_leave_every_fitted_value_unchanged(runs):
    """Doubling every death, exposure and population count of the raw files
    leaves every model, forecast, life-expectancy and report file as it was,
    and exactly doubles the counts in the others: the Poisson fits and the
    age shares depend only on rates."""
    original, doubled = runs["original"], runs["doubled"]
    assert sorted(original) == sorted(doubled)
    same = scaled = 0
    for name, text in original.items():
        if name.startswith(NOT_SCALE_FREE):
            continue
        columns = [c for prefix, c in COUNT_COLUMNS.items() if name.startswith(prefix)]
        if columns:
            _assert_doubled(name, text, doubled[name], columns[0])
            scaled += 1
        else:
            assert doubled[name] == text, name
            same += 1
    assert (same, scaled) == (62, 12)


def test_config_order_and_comments_leave_the_outputs_unchanged(runs):
    assert runs["reordered"] == runs["original"]
    assert len(runs["original"]) == 78
