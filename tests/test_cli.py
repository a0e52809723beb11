import configparser
import dataclasses
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pandmort.annualize_forecast as af
import pandmort.baseline as bl
import pandmort.cli as cli
import pandmort.datastore as ds
import pandmort.ingest as ig
from pandmort.errors import ConfigError, ParseError, ValidationError
from util import per_scenario_forecast_rows

CONFIG = """\
[data]
dir = {datadir}

[run]
countries = AAA,BBB
years = 1970:2019
ages = 0:90
covid_ages = 40:90
seasonal_years = 2010:2019
hist_years = 2015:2019
method = 2
knots = 12
eta = 0.5
horizon = 10
seed = 1234
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    datadir = root / "data"
    assert cli.main(["synth", "--out", str(datadir), "--seed", "1234"]) == 0
    cfg_path = root / "run.ini"
    cfg_path.write_text(CONFIG.format(datadir=datadir))
    out = root / "out"
    assert cli.main(["run-all", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {"root": root, "config": cfg_path, "out": out, "data": datadir}


def test_runconfig_parses(pipeline):
    cfg = cli.RunConfig(str(pipeline["config"]))
    assert cfg.countries == ("AAA", "BBB")
    assert cfg.years == (1970, 2019)
    assert cfg.covid_ages == (40, 90)
    assert cfg.method == 2
    assert len(cfg.hash) == 16


def test_runconfig_rejects_bad_values(tmp_path, pipeline):
    base = CONFIG.format(datadir=pipeline["data"])
    for old, new, msg in [
        ("method = 2", "method = 2", None),  # control: must parse
        ("method = 2", "method = 3", "method"),
        ("eta = 0.5", "eta = 1.5", "eta"),
        ("covid_ages = 40:90", "covid_ages = 40:95", "covid_ages"),
        ("\nages = 0:90", "\nages = 20:90", "ages must start at 0, got 20"),
        ("\nages = 0:90", "\nages = 0:110", None),  # the top raw age
        ("\nages = 0:90", "\nages = 0:120", "ages must end at 110 or below, got 120"),
        ("\nages = 0:90\ncovid_ages = 40:90", "\nages = 0:60\ncovid_ages = 40:60",
         r"ages must end above 80, got 60: the forecast extrapolates ln\(mu\) to older ages "
         "from the ages 80:90"),
        ("\nages = 0:90\ncovid_ages = 40:90", "\nages = 0:80\ncovid_ages = 40:80",
         "ages must end above 80, got 80"),
        ("\nages = 0:90\ncovid_ages = 40:90", "\nages = 0:81\ncovid_ages = 40:81", None),
        ("horizon = 10", "horizon = 0", "horizon must be at least 1, got 0"),
        ("horizon = 10", "horizon = -5", "horizon must be at least 1, got -5"),
        ("years = 1970:2019", "years = 2019:1970", "years must run from low to high, got 2019:1970"),
        ("years = 1970:2019", "years = 2017:2019", None),  # the shortest range
        ("years = 1970:2019", "years = 2018:2019", "years must span at least 3 years, got 2018:2019"),
        # two faulty keys: the first in CONFIG_KEYS order is named
        ("years = 1970:2019\nages = 0:90", "years = 2018:2019\nages = 0:120",
         "years must span at least 3 years, got 2018:2019"),
        ("seasonal_years = 2010:2019", "seasonal_years = 2019:2010",
         "seasonal_years must run from low to high, got 2019:2010"),
        ("hist_years = 2015:2019", "hist_years = 2019:2015",
         "hist_years must run from low to high, got 2019:2015"),
        ("hist_years = 2015:2019", "hist_years = 1900:1910",
         "hist_years 1900:1910 shares no year with years 1970:2019"),
        ("hist_years = 2015:2019", "hist_years = 2019:2030", None),  # overlap suffices
        ("knots = 12", "knots = 3", "knots must be at least 4, got 3"),
        ("countries = AAA,BBB", "countries = AAA,AAA",
         "countries must be distinct non-empty codes, got 'AAA,AAA'"),
        ("countries = AAA,BBB", "countries = AAA,",
         "countries must be distinct non-empty codes, got 'AAA,'"),
        ("[data]\n", "", "File contains no section headers"),
        ("eta = 0.5", "eta = 0.5\neta = 0.7", "option 'eta' in section 'run' already exists"),
        ("method = 2", "methd = 1", r"unknown key 'methd' in \[run\]"),
        ("[data]\n", "[data]\nformat = stmf\n", r"unknown key 'format' in \[data\]"),
        ("seasonal_years = 2010:2019", "seasonal_years = 2015:2021",
         "seasonal_years 2015:2021 overlaps the pandemic years 2020:2021"),
        ("seasonal_years = 2010:2019", "seasonal_years = 2010:2019", None),  # pre-pandemic
        ("seed = 1234\n", "seed = 1234\n[Run]\nmethod = 1\n", r"unknown section \[Run\]"),
        ("knots = 12", "knots = 53", "knots must be at most 52, got 53"),
        ("knots = 12", "knots = 52", None),  # one coefficient per weekly average
        # values are read literally: no '%' interpolation
        (f"dir = {pipeline['data']}", "dir = raw/50%data", {"data_dir": "raw/50%data"}),
        ("knots = 12", "knots = %(horizon)s",
         re.escape("invalid literal for int() with base 10: '%(horizon)s'")),
    ]:
        assert old in base
        p = tmp_path / "cfg.ini"
        p.write_text(base.replace(old, new))
        if msg is None or isinstance(msg, dict):  # accepted, with these values
            cfg = cli.RunConfig(str(p))
            for key, value in (msg or {}).items():
                assert getattr(cfg, key) == value
        else:
            with pytest.raises(ConfigError, match=msg):
                cli.RunConfig(str(p))


def _readme():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        return fh.read()


def test_readme_lists_the_config_keys(tmp_path):
    """The README's INI example holds exactly the keys of `cli.CONFIG_KEYS`,
    each in its section, and `cli.RunConfig` reads it as written, each key
    at its default where it has one."""
    block = _readme().split("### Configuration (INI)\n\n```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    assert parser.sections() == list(cli.CONFIG_KEYS)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    cfg = cli.RunConfig(str(path))
    for name, keys in cli.CONFIG_KEYS.items():
        assert list(parser[name]) == list(keys)
        for key, (default, parse, *_) in keys.items():
            if default is not None:
                attr = key if name == "run" else f"{name}_{key}"
                assert getattr(cfg, attr) == parse(default), key


def test_readme_lists_the_output_files():
    """The README's "Output files" table names each file pattern of
    `cli.FILES` once, its fields written as <C>, <G>, <T> and <S>, in the row
    of the stage that writes it."""
    table = _readme().split("### Output files\n", 1)[1].split("\n### ", 1)[0]
    listed = [(name, stage.strip(" `"))
              for files, stage in (line.split("|")[1:3] for line in table.splitlines()
                                   if line.startswith("| `"))
              for name in re.findall(r"`([^`]+)`", files)]
    marks = {"{c}": "<C>", "{g}": "<G>", "{t}": "<T>", "{name}": "<S>"}
    for kind, (pattern, stage, _) in cli.FILES.items():
        for field, mark in marks.items():
            pattern = pattern.replace(field, mark)
        assert [by for name, by in listed if name == pattern] == [stage], kind
    assert len(listed) == len(cli.FILES)


def test_missing_config_exits_2(tmp_path):
    rc = cli.main(["ingest", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    rec = json.loads((tmp_path / "o" / "error.json").read_text())
    assert rec["stage"] == "ingest"
    assert rec["error"] == "ConfigError"


def test_stage_order_enforced(pipeline, tmp_path):
    out = tmp_path / "fresh"
    rc = cli.main(["calibrate-baseline", "--config", str(pipeline["config"]),
                   "--out", str(out)])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert "run ingest first" in rec["message"]


def test_forecast_requires_annualize(pipeline, tmp_path):
    out = tmp_path / "partial"
    for stage in ["ingest", "calibrate-baseline", "fit-seasonal", "calibrate-covid"]:
        assert cli.main([stage, "--config", str(pipeline["config"]),
                         "--out", str(out)]) == 0
    rc = cli.main(["forecast", "--config", str(pipeline["config"]), "--out", str(out)])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert "annualize" in rec["message"]


def test_outputs_carry_config_hash(pipeline):
    cfg = cli.RunConfig(str(pipeline["config"]))
    for name in ["annual_panel.csv", "baseline_model.csv", "covid_AAA_m.csv",
                 "annual_effects_AAA_m.csv", "report.csv"]:
        text = (pipeline["out"] / name).read_text()
        assert f"#confighash:{cfg.hash}" in text


def test_weekly_panel_files_hold_no_exposures(pipeline):
    # the exposures of the pandemic years are rebuilt from population snapshots
    paths = sorted(pipeline["out"].glob("weekly_*.csv"))
    assert [p.name for p in paths] == [f"weekly_{c}_{g}.csv" for c in ("AAA", "BBB")
                                       for g in ("f", "m")]
    for path in paths:
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rows = [line for line in rows if not line.startswith("#")]
        assert header == "age,year,week,deaths" and rows
        assert all(line.count(",") == 3 for line in rows)


def test_baseline_model_loadable(pipeline):
    model = ds.load_model(str(pipeline["out"] / "baseline_model.csv"))
    assert set(model.A) == {"m", "f"}
    assert model.countries == ("AAA", "BBB")
    assert len(model.K["m"]) == 50


def test_covid_layers_have_annual_effects(pipeline):
    for c in ("AAA", "BBB"):
        for g in ("m", "f"):
            layer = ds.load_model(str(pipeline["out"] / f"covid_{c}_{g}.csv"))
            eff = ds.load_model(str(pipeline["out"] / f"annual_effects_{c}_{g}.csv"))
            assert (eff.country, eff.gender, eff.ages, eff.years) == (c, g, layer.ages,
                                                                      layer.years)
            assert eff.X.shape == (2,)
            assert abs(np.linalg.norm(eff.V) - 1.0) < 1e-10
            # a real pandemic was injected into 2020/2021
            assert eff.X.max() > 0.1


def test_report_contents(pipeline):
    lines = [l for l in (pipeline["out"] / "report.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    assert header[:4] == ["country", "gender", "X_2020", "X_2021"]
    assert len(lines) == 1 + 4  # two countries x two genders
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["dLE_completely_incidental"]) == 0.0
    # a structural pandemic must cost life expectancy
    assert float(row["dLE_completely_structural"]) < 0.0


def test_forecast_files_well_formed(pipeline):
    path = pipeline["out"] / "forecast_new_normal_AAA_m.csv"
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "age,year,mu,q"
    ages = {int(l.split(",")[0]) for l in lines[1:]}
    assert min(ages) == 0 and max(ages) == 120
    first = lines[1].split(",")
    mu, q = float(first[2]), float(first[3])
    assert q == pytest.approx(1.0 - np.exp(-mu), rel=1e-12)


def test_cli_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, pandmort.cli; "
            "print(','.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == ""


def test_halving_failure_exits_4(pipeline, tmp_path, monkeypatch):
    out = tmp_path / "halving"
    out.mkdir()
    shutil.copy(pipeline["out"] / "annual_panel.csv", out)
    calls = itertools.count(1)
    evaluate = bl._evaluate
    monkeypatch.setattr(bl, "_evaluate",
                        lambda *args: (-float(next(calls)), evaluate(*args)[1]))
    rc = cli.main(["calibrate-baseline", "--config", str(pipeline["config"]),
                   "--out", str(out)])
    assert rc == 4
    rec = json.loads((out / "error.json").read_text())
    assert rec["error"] == "NumericalError"
    assert "halving" in rec["message"]


def test_malformed_model_file_exits_3(pipeline, tmp_path):
    out = tmp_path / "malformed"
    shutil.copytree(pipeline["out"], out)
    path = out / "baseline_model.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("delta_tstat,BBB|f,")),
                    encoding="utf-8")
    rc = cli.main(["annualize", "--config", str(pipeline["config"]), "--out", str(out)])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == ("annualize", "ParseError")
    assert rec["message"] == f"{path}: missing row delta_tstat,BBB|f,"


def test_baseline_without_drift_rows_exits_3(pipeline, tmp_path):
    """The forecast projects K at its drift theta, so a baseline file without
    its theta rows is malformed, not a model to project without a drift."""
    out = tmp_path / "no_theta"
    shutil.copytree(pipeline["out"], out)
    path = out / "baseline_model.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("theta,")),
                    encoding="utf-8")
    rc = cli.main(["calibrate-covid", "--config", str(pipeline["config"]), "--out", str(out)])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == ("calibrate-covid", "ParseError")
    assert rec["message"] == f"{path}: missing row theta,m,"


def test_model_file_of_an_older_format_exits_3(pipeline, tmp_path):
    out = tmp_path / "v2"
    shutil.copytree(pipeline["out"], out)
    path = out / "baseline_model.csv"
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#schema:BaselineModel v3\n")
    path.write_text(text.replace(" v3\n", " v2\n", 1), encoding="utf-8")
    rc = cli.main(["forecast", "--config", str(pipeline["config"]), "--out", str(out)])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == ("forecast", "ParseError")
    assert rec["message"] == f"{path}: line 1: unknown schema 'BaselineModel v2'"


def test_forecast_after_calibrate_covid_rerun(pipeline, tmp_path):
    """The annual effects have files of their own, so running
    ``calibrate-covid`` again after ``run-all`` leaves ``forecast`` the
    inputs it had, and every file as it was."""
    out = tmp_path / "rerun"
    shutil.copytree(pipeline["out"], out)
    for stage in ("calibrate-covid", "forecast"):
        assert cli.main([stage, "--config", str(pipeline["config"]), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(pipeline["out"]))
    for name in os.listdir(out):
        assert (out / name).read_bytes() == (pipeline["out"] / name).read_bytes(), name


def test_annualize_takes_the_method_of_the_covid_layer(pipeline, tmp_path):
    """``annualize`` applies phi exactly when the covid layer was fitted under
    Method 2, so on a Method 2 run a config that now says ``method = 1``
    gives the same annual effects, bit for bit."""
    out = tmp_path / "method1"
    shutil.copytree(pipeline["out"], out)
    config = tmp_path / "method1.ini"
    config.write_text(pipeline["config"].read_text().replace("method = 2", "method = 1"))
    assert cli.main(["annualize", "--config", str(config), "--out", str(out)]) == 0
    for c in ("AAA", "BBB"):
        for g in ds.GENDERS:
            name = f"annual_effects_{c}_{g}.csv"
            new, old = (ds.load_model(str(d / name)) for d in (out, pipeline["out"]))
            for f in dataclasses.fields(old):
                a, b = getattr(new, f.name), getattr(old, f.name)
                if isinstance(b, np.ndarray):
                    assert a.tobytes() == b.tobytes(), (name, f.name)
                else:
                    assert a == b, (name, f.name)


@pytest.mark.parametrize("name, lineno, field, text", [
    ("AAA_deaths.txt", 5, 2, "12x4"),
    ("weekly_deaths.csv", 3, 4, "8z"),
    ("AAA_population.csv", 3, 3, "2e5x"),
    ("AAA_deaths.txt", 5, 2, "1_0"),
    ("weekly_deaths.csv", 3, 4, "1_0"),
    ("AAA_population.csv", 3, 3, "1_0"),
    ("AAA_deaths.txt", 5, 3, "nan"),
    ("weekly_deaths.csv", 3, 4, "inf"),
    ("AAA_population.csv", 3, 3, "nan"),
])
def test_malformed_raw_number_exits_3(pipeline, tmp_path, name, lineno, field, text):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / name
    sep = "," if name.endswith(".csv") else None
    lines = path.read_text(encoding="utf-8").splitlines()
    parts = lines[lineno - 1].split(sep)
    parts[field] = text
    lines[lineno - 1] = (sep or " ").join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=data))
    out = tmp_path / "out"
    rc = cli.main(["ingest", "--config", str(config), "--out", str(out)])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == ("ingest", "IngestError")
    assert rec["message"].startswith(f"{path}: line {lineno}: bad number")
    assert repr(text) in rec["message"]


def test_short_weekly_row_exits_3(pipeline, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "weekly_deaths.csv"
    lineno = len(path.read_text(encoding="utf-8").splitlines()) + 1
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("AAA,2018\n")
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=data))
    out = tmp_path / "out"
    rc = cli.main(["run-all", "--config", str(config), "--out", str(out)])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert rec["stage"] == "ingest"
    assert rec["error"] == "IngestError"
    assert rec["message"] == f"{path}: line {lineno}: expected at least 4 fields, got 2"


UNDECODABLE = "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position "
# (command, the file it fails on, under a copy of the run's data, output and
# config, the bytes appended to that file, exit code, error, message start)
READ_FAULTS = {
    "config": ("ingest", "run.ini", b"\xff", 2, "ConfigError", UNDECODABLE),
    "hmd deaths": ("ingest", "data/AAA_deaths.txt", b"\xff", 3, "IngestError", UNDECODABLE),
    "stmf": ("ingest", "data/weekly_deaths.csv", b"\xff", 3, "IngestError", UNDECODABLE),
    "population": ("ingest", "data/AAA_population.csv", b"\xff", 3, "IngestError", UNDECODABLE),
    "annual panel": ("calibrate-baseline", "out/annual_panel.csv", b"\xff", 3, "ParseError",
                     UNDECODABLE),
    "weekly panel": ("fit-seasonal", "out/weekly_AAA_m.csv", b"\xff", 3, "ParseError",
                     UNDECODABLE),
    "model": ("calibrate-covid", "out/baseline_model.csv", b"\xff", 3, "ParseError", UNDECODABLE),
    "stmf oversized field": ("ingest", "data/weekly_deaths.csv",
                             b"AAA,2018,1,m," + b"9" * 200_000 + b"\n", 3, "IngestError",
                             "{path}: line {lineno}: field larger than field limit (131072)"),
    "model oversized field": ("calibrate-covid", "out/baseline_model.csv",
                              b"theta,m,," + b"9" * 200_000 + b"\n", 3, "ParseError",
                              "{path}: line {lineno}: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("case", READ_FAULTS)
def test_unreadable_input_file_exits_with_error_json(pipeline, tmp_path, case):
    """Any input file, raw, written by a stage or the config, that cannot be
    decoded or split into rows is a data error (exit 3; the config's is a
    config error, exit 2) naming the file, and error.json names the stage."""
    command, name, tail, code, error, message = READ_FAULTS[case]
    shutil.copytree(pipeline["data"], tmp_path / "data")
    shutil.copytree(pipeline["out"], tmp_path / "out")
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=tmp_path / "data"))
    path = tmp_path / name
    lineno = len(path.read_bytes().splitlines()) + 1
    with open(path, "ab") as fh:
        fh.write(tail)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == code
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == (command, error)
    assert rec["message"].startswith(message.format(path=path, lineno=lineno))


# (command, the run-directory file it fails on, the edit of that file's text
# that leaves it parsable but its object invalid, the validation message; a
# year short of its ISO weeks is a missing cell instead)
INVALID_FILES = {
    "weekly panel short year": (
        "fit-seasonal", "weekly_AAA_m.csv",
        lambda text: re.sub(r"^[^,]*,2021,(4\d|5\d),.*\n", "", text, flags=re.M),
        "missing cell age 0_4, year 2021, week 40"),
    "annual panel negative deaths": (
        "calibrate-baseline", "annual_panel.csv",
        lambda text: re.sub(r"^(AAA,m,0,1970,)\d+,", r"\g<1>-3,", text, flags=re.M),
        "AnnualPanel: negative deaths or exposures"),
    "covid layer doubled B": (
        "annualize", "covid_AAA_m.csv",
        lambda text: re.sub(r"^B,0,,(.*)$", lambda m: f"B,0,,{2 * float(m[1])!r}", text,
                            flags=re.M),
        "CovidLayer: norm constraint violated for B"),
}


@pytest.mark.parametrize("case", INVALID_FILES)
def test_invalid_run_directory_file_exits_3_naming_it(pipeline, tmp_path, case):
    """A run-directory file that parses but whose object fails its checks is
    a data error (exit 3) naming the file, not a bare ValidationError."""
    command, name, edit, message = INVALID_FILES[case]
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    path = out / name
    text = path.read_text(encoding="utf-8")
    path.write_text(edit(text), encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    assert cli.main([command, "--config", str(pipeline["config"]), "--out", str(out)]) == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"], rec["message"]) == (command, "ParseError",
                                                            f"{path}: {message}")


# A run-directory file of each kind some stage reads, and one stage that reads it.
READ_BY = [("annual_panel.csv", "calibrate-baseline"), ("weekly_AAA_m.csv", "fit-seasonal"),
           ("population_BBB.csv", "calibrate-covid"), ("baseline_model.csv", "annualize"),
           ("seasonal_AAA_f.csv", "annualize"), ("covid_BBB_m.csv", "annualize"),
           ("annual_effects_AAA_m.csv", "report")]


@st.composite
def _damaged(draw, lines, first, last, sep=","):
    """``lines`` with one of ``lines[first:last + 1]`` deleted, duplicated,
    swapped with another of them, cut short, or with one of its fields, split
    on ``sep`` (whitespace when None), replaced."""
    lines = list(lines)
    i, j = draw(st.integers(first, last)), draw(st.integers(first, last))
    how = draw(st.sampled_from(["delete", "duplicate", "swap", "truncate", "field", "field"]))
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    else:
        fields = lines[i].split(sep) or [""]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(
            st.sampled_from(["", "x", "nan", "inf", "-1", "0", "1e308", "2020", "AAA", "m"])
            | st.text(max_size=3))
        lines[i] = (sep or " ").join(fields)
    return lines


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_run_directory_file_keeps_the_error_contract(pipeline, data):
    """A stage run on a finished run directory with one file it reads
    damaged exits 0, 2, 3 or 4, and a failure leaves an ``error.json`` that
    names the stage; it never ends in a traceback."""
    name, command = data.draw(st.sampled_from(READ_BY))
    lines = (pipeline["out"] / name).read_text(encoding="utf-8").splitlines()
    # not the first line (a header or schema line) or the last (the config stamp)
    damaged = data.draw(_damaged(lines, 1, len(lines) - 2))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        shutil.copytree(pipeline["out"], out)
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in damaged))
        rc = cli.main([command, "--config", str(pipeline["config"]), "--out", out])
        assert rc in (0, 2, 3, 4)
        if rc:
            with open(os.path.join(out, "error.json"), encoding="utf-8") as fh:
                assert json.load(fh)["stage"] == command


# One raw file of each layout that `ingest` reads, and the separator of its fields.
RAW_FILES = [("AAA_deaths.txt", None), ("BBB_exposures.txt", None),
             ("weekly_deaths.csv", ","), ("AAA_population.csv", ",")]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_raw_file_keeps_the_error_contract(pipeline, data):
    """`ingest` on a data directory with one line of one raw file damaged
    exits 0, 2, 3 or 4, and a failure leaves an ``error.json`` that names
    ``ingest``; it never ends in a traceback."""
    name, sep = data.draw(st.sampled_from(RAW_FILES))
    lines = (pipeline["data"] / name).read_text(encoding="utf-8").splitlines()
    damaged = data.draw(_damaged(lines, 0, len(lines) - 1, sep))
    with tempfile.TemporaryDirectory() as tmp:
        datadir, out = os.path.join(tmp, "data"), os.path.join(tmp, "out")
        shutil.copytree(pipeline["data"], datadir)
        with open(os.path.join(datadir, name), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in damaged))
        config = os.path.join(tmp, "run.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CONFIG.format(datadir=datadir))
        rc = cli.main(["ingest", "--config", config, "--out", out])
        assert rc in (0, 2, 3, 4)
        if rc:
            with open(os.path.join(out, "error.json"), encoding="utf-8") as fh:
                assert json.load(fh)["stage"] == "ingest"


# (a run-directory file, the start of its row whose last field becomes 1e308, the
# stage run on it, its exit code and error): the value overflows in the file's
# checks, a ParseError, or in the stage's own arithmetic, a NumericalError.
OVERFLOWS = [("annual_effects_AAA_m.csv", "V,3,,", "forecast", 3, "ParseError"),
             ("population_BBB.csv", "2020-01-01,0,f,", "calibrate-covid", 4, "NumericalError")]


@pytest.mark.parametrize("name, row, command, code, error", OVERFLOWS)
@pytest.mark.parametrize("as_errors", [False, True])
def test_overflow_exits_alike_under_any_warning_filter(pipeline, tmp_path, name, row, command,
                                                       code, error, as_errors):
    """A floating-point fault is an exit code with an ``error.json``, whether
    or not warnings are errors, never a warning or a traceback."""
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    path = out / name
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(rf"^{re.escape(row)}.*$", f"{row}1e308", text, count=1, flags=re.M),
                    encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    with warnings.catch_warnings():
        if as_errors:
            warnings.simplefilter("error")
        rc = cli.main([command, "--config", str(pipeline["config"]), "--out", str(out)])
    assert rc == code
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == (command, error)


# (command, the file it fails on, under a copy of the run's data and output,
# the edit of that file's text, the error, the message after the file's path)
OFF_THE_ISO_CALENDAR = {
    "raw 2020 without week 53": (
        "ingest", "data/weekly_deaths.csv",
        lambda text: re.sub(r"^AAA,2020,53,.*\n", "", text, flags=re.M),
        "IngestError", "missing row for year 2020, week 53, sex m"),
    "raw week 53 of 2021": (
        "ingest", "data/weekly_deaths.csv",
        lambda text: text + "AAA,2021,53,f" + ",1" * 19 + "\n",
        "IngestError", "line {lineno}: week 53 outside 1..52, the weeks of ISO year 2021"),
    "run directory 2020 without week 53": (
        "calibrate-covid", "out/weekly_AAA_m.csv",
        lambda text: re.sub(r"^[^,]*,2020,53,.*\n", "", text, flags=re.M),
        "ParseError", "missing cell age 0_4, year 2020, week 53"),
    "covid layer of a 52-week 2020": (
        "annualize", "out/covid_AAA_m.csv",
        lambda text: re.sub(r"^K,2020,53,.*\n", "", text, flags=re.M),
        "ParseError", "missing row K,2020,53"),
}


@pytest.mark.parametrize("case", OFF_THE_ISO_CALENDAR)
def test_weeks_off_the_iso_calendar_exit_3(pipeline, tmp_path, case):
    """STMF counts deaths in ISO weeks, so 2020 has 53 of them: a file that
    holds a year's weeks otherwise is a data error naming it, never a year of
    the weeks it happens to hold."""
    command, name, edit, error, message = OFF_THE_ISO_CALENDAR[case]
    shutil.copytree(pipeline["data"], tmp_path / "data")
    shutil.copytree(pipeline["out"], tmp_path / "out")
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=tmp_path / "data"))
    path = tmp_path / name
    text = path.read_text(encoding="utf-8")
    path.write_text(edit(text), encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 3
    rec = json.loads((out / "error.json").read_text())
    lineno = len(text.splitlines()) + 1
    assert (rec["stage"], rec["error"], rec["message"]) == (
        command, error, f"{path}: {message.format(lineno=lineno)}")


def _without(pattern):
    """An edit of a file's text that deletes the lines matching ``pattern``."""
    return lambda text: re.sub(f"^{pattern}.*\n", "", text, flags=re.M)


PANDEMIC_MISMATCH = ("does not hold the pandemic years 2020:2021 and covid_ages {covid_ages}: "
                     "rerun {rerun}")
# (command, the config's edit or None, the run-directory file it fails on, the
# edit of that file's text or None, the message after the file's path): a
# file that parses but does not cover what the config asks for
SHORT_OF_THE_CONFIG = {
    "annual panel from a later year": (
        "calibrate-baseline", ("years = 1970:2019", "years = 1960:2019"), "annual_panel.csv",
        None, "has no data for year 1960: rerun ingest"),
    "annual panel short of an age": (
        "calibrate-baseline", ("ages = 0:90", "ages = 0:100"), "annual_panel.csv",
        _without(r"[^,]*,[mf],1\d\d,"), "has no data for age 100: rerun ingest"),
    "annual panel without a country, baseline": (
        "calibrate-baseline", None, "annual_panel.csv", _without("BBB,"),
        "has no data for country BBB: rerun ingest"),
    "annual panel without a country, covid": (
        "calibrate-covid", None, "annual_panel.csv", _without("BBB,"),
        "has no data for country BBB: rerun ingest"),
    # the pandemic stages disaggregate the weekly 90_110 group over ages 90 to 110
    "annual panel without ages 100-110, covid": (
        "calibrate-covid", None, "annual_panel.csv", _without(r"[^,]*,[mf],1\d\d,"),
        "has no data for age 100: rerun ingest"),
    "annual panel without ages 100-110, coda": (
        "coda", None, "annual_panel.csv", _without(r"[^,]*,[mf],1\d\d,"),
        "has no data for age 100: rerun ingest"),
    "annual panel without ages 100-110, baseline": (
        "calibrate-baseline", None, "annual_panel.csv", _without(r"[^,]*,[mf],1\d\d,"),
        "has no data for age 100: rerun ingest"),
    "weekly panel without 2021, covid": (
        "calibrate-covid", None, "weekly_AAA_m.csv", _without(r"[^,]*,2021,"),
        "has no data for year 2021: rerun ingest"),
    "weekly panel without 2021, coda": (
        "coda", None, "weekly_AAA_m.csv", _without(r"[^,]*,2021,"),
        "has no data for year 2021: rerun ingest"),
    "weekly panel without 2020 and 2021, covid": (
        "calibrate-covid", None, "weekly_AAA_m.csv", _without(r"[^,]*,202[01],"),
        "has no data for year 2020: rerun ingest"),
    "weekly panel without 2021, seasonal": (
        "fit-seasonal", None, "weekly_AAA_m.csv", _without(r"[^,]*,2021,"),
        "has no data for year 2021: rerun ingest"),
    "population without its 2020-01-01 snapshot": (
        "calibrate-covid", None, "population_AAA.csv",
        lambda text: text.replace("2020-01-01,", "2021-01-01,"),
        "has no 2020-01-01 population snapshot for sex m, sex f: rerun ingest"),
    "baseline without a configured country": (
        "annualize", ("countries = AAA,BBB", "countries = AAA,BBB,CCC"), "baseline_model.csv",
        None, "has no baseline for CCC: rerun calibrate-baseline"),
    "covid layer of other covid_ages": (
        "annualize", ("covid_ages = 40:90", "covid_ages = 40:89"), "covid_AAA_m.csv", None,
        PANDEMIC_MISMATCH.format(covid_ages="40:89", rerun="calibrate-covid")),
    "covid layer without 2021": (
        "annualize", None, "covid_AAA_m.csv", _without("(weeks|K),2021,"),
        PANDEMIC_MISMATCH.format(covid_ages="40:90", rerun="calibrate-covid")),
    "annual effects without X_2021, forecast": (
        "forecast", None, "annual_effects_AAA_m.csv", _without("X,2021,"),
        PANDEMIC_MISMATCH.format(covid_ages="40:90", rerun="annualize")),
    "annual effects without X_2021, report": (
        "report", None, "annual_effects_AAA_m.csv", _without("X,2021,"),
        PANDEMIC_MISMATCH.format(covid_ages="40:90", rerun="annualize")),
    "annual effects of other covid_ages": (
        "forecast", ("covid_ages = 40:90", "covid_ages = 50:90"), "annual_effects_AAA_m.csv",
        None, PANDEMIC_MISMATCH.format(covid_ages="50:90", rerun="annualize")),
}


def test_every_rule_has_a_short_of_the_config_case(pipeline):
    """Each kind of run-directory file whose `cli.FILES` entry has a rule is
    refused, in some case of `SHORT_OF_THE_CONFIG`, for lacking what it asks."""
    cfg = cli.RunConfig(str(pipeline["config"]))
    names = {name for _, _, name, _, _ in SHORT_OF_THE_CONFIG.values()}
    covered = {kind for kind, (pattern, _, _) in cli.FILES.items() if names & _expand(pattern, cfg)}
    assert covered == {kind for kind, (_, _, rule) in cli.FILES.items() if rule is not None}


@pytest.mark.parametrize("case", SHORT_OF_THE_CONFIG)
def test_input_short_of_the_config_exits_3(pipeline, tmp_path, case):
    """A stage refuses a run-directory file that lacks what its rule in
    `cli.FILES` asks for the config (a configured country, year or an age
    ingest writes, a pandemic year, the 1 January 2020 population snapshot,
    the pandemic years and covid_ages of a pandemic model file), naming the
    file and the stage to rerun; it never runs on what the file happens to
    hold."""
    command, config_edit, name, edit, message = SHORT_OF_THE_CONFIG[case]
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=pipeline["data"]).replace(*(config_edit or ("", ""))))
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    path = out / name
    if edit is not None:
        text = path.read_text(encoding="utf-8")
        path.write_text(edit(text), encoding="utf-8")
        assert path.read_text(encoding="utf-8") != text
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"], rec["message"]) == (command, "ParseError",
                                                            f"{path} {message}")


def test_baseline_without_a_configured_country_exits_3(pipeline, tmp_path):
    """A baseline calibrated for fewer countries than the config names is
    refused by every stage that reads it, naming the file and the country."""
    only_aaa = tmp_path / "aaa.ini"
    only_aaa.write_text(CONFIG.format(datadir=pipeline["data"]).replace(
        "countries = AAA,BBB", "countries = AAA"))
    out = tmp_path / "out"
    for config, stage in [(only_aaa, "ingest"), (only_aaa, "calibrate-baseline"),
                          (pipeline["config"], "ingest"), (pipeline["config"], "fit-seasonal")]:
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
    done = tmp_path / "done"  # a finished run whose baseline file is the stale one
    shutil.copytree(pipeline["out"], done)
    shutil.copy(out / "baseline_model.csv", done)
    for run, stage in [(out, "calibrate-covid"), (done, "annualize"), (done, "forecast")]:
        assert cli.main([stage, "--config", str(pipeline["config"]), "--out", str(run)]) == 3
        rec = json.loads((run / "error.json").read_text())
        assert (rec["stage"], rec["error"], rec["message"]) == (
            stage, "ParseError",
            f"{run / 'baseline_model.csv'} has no baseline for BBB: rerun calibrate-baseline")


def test_run_all_error_names_failing_stage(pipeline, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=pipeline["data"]).replace(
        "seasonal_years = 2010:2019", "seasonal_years = 2030:2031"))
    out = tmp_path / "out"
    assert cli.main(["run-all", "--config", str(config), "--out", str(out)]) == 2
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == ("fit-seasonal", "ConfigError")
    assert rec["message"] == ("seasonal_years 2030:2031 shares no year with the weekly data "
                              "of AAA/m, which holds 2010:2021")


@pytest.mark.parametrize("old, new, message", [
    ("seasonal_years = 2010:2019", "seasonal_years = 2019:2010",
     "seasonal_years must run from low to high, got 2019:2010"),
    ("hist_years = 2015:2019", "hist_years = 1900:1910",
     "hist_years 1900:1910 shares no year with years 1970:2019"),
])
def test_bad_year_range_exits_2_before_any_stage(pipeline, tmp_path, old, new, message):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=pipeline["data"]).replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["run-all", "--config", str(config), "--out", str(out)]) == 2
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"], rec["message"]) == ("run-all", "ConfigError", message)
    assert os.listdir(out) == ["error.json"]


@pytest.mark.parametrize("years", ["2019:2019", "2005:2010"])
def test_one_seasonal_year_exits_2(pipeline, tmp_path, years):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=pipeline["data"]).replace(
        "seasonal_years = 2010:2019", f"seasonal_years = {years}"))
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    assert cli.main(["fit-seasonal", "--config", str(config), "--out", str(out)]) == 2
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == ("fit-seasonal", "ConfigError")
    assert rec["message"] == (f"seasonal_years {years} shares only 1 of the 2 years it needs "
                              "with the weekly data of AAA/m, which holds 2010:2021")


@pytest.mark.parametrize("stage, name", [("ingest", "annual_panel.csv"),
                                         ("calibrate-baseline", "baseline_iterations.csv")])
def test_failed_write_exits_3(pipeline, tmp_path, stage, name):
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    (out / name).unlink()
    (out / name).mkdir()
    assert cli.main([stage, "--config", str(pipeline["config"]), "--out", str(out)]) == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"]) == (stage, "ParseError")
    assert rec["message"].startswith(f"cannot write {out / name}: ")


def test_out_naming_a_file_exits_3(pipeline, tmp_path, caplog):
    out = tmp_path / "out"
    out.write_text("")
    assert cli.main(["ingest", "--config", str(pipeline["config"]), "--out", str(out)]) == 3
    assert f"cannot create output directory {out}: " in caplog.text


def test_synth_out_naming_a_file_exits_3(tmp_path, caplog):
    out = tmp_path / "data"
    out.write_text("")
    assert cli.main(["synth", "--out", str(out)]) == 3
    assert f"cannot write synthetic data to {out}: " in caplog.text


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    """``synth --seed -1`` exits 2 with a usage message and writes nothing."""
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "synth"])
def test_a_command_removes_the_error_record_of_an_earlier_one(pipeline, tmp_path, command):
    out = tmp_path / "out"
    assert cli.main(["forecast", "--config", str(pipeline["config"]), "--out", str(out)]) == 3
    assert (out / "error.json").exists()
    config = [] if command == "synth" else ["--config", str(pipeline["config"])]
    assert cli.main([command, *config, "--out", str(out)]) == 0
    assert not (out / "error.json").exists()


def test_duplicate_population_row_exits_3(pipeline, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "AAA_population.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    date, age, sex, _ = lines[1].split(",")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{date},{age},{sex},99\n")
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=data))
    out = tmp_path / "out"
    rc = cli.main(["ingest", "--config", str(config), "--out", str(out)])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert rec["error"] == "IngestError"
    assert rec["message"] == (f"{path}: line {len(lines) + 1}: duplicate row for date {date}, "
                              f"sex {sex}, age {age}")


def _run_on_population(pipeline, tmp_path, edit):
    """run-all on a copy of the data whose population files' data lines are
    replaced by ``edit(lines)``; returns its exit code and run directory."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    for c in ("AAA", "BBB"):
        path = data / f"{c}_population.csv"
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([header, *edit(lines)]) + "\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=data))
    out = tmp_path / "out"
    return cli.main(["run-all", "--config", str(config), "--out", str(out)]), out


def test_projection_starts_from_the_first_pandemic_year_snapshot(pipeline, tmp_path):
    """A later snapshot in the population files, here with half the counts,
    changes only the population files and the config stamps: the exposure
    projection starts from the 1 January 2020 snapshot."""
    def add_2021(lines):
        later = (line.replace("2020-01-01,", "2021-01-01,").rsplit(",", 1) for line in lines)
        return lines + [f"{row},{float(count) / 2:.2f}" for row, count in later]

    rc, out = _run_on_population(pipeline, tmp_path, add_2021)
    assert rc == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(pipeline["out"]))
    for name in os.listdir(out):
        if not name.startswith("population_"):
            new, old = ([line for line in (d / name).read_text().splitlines()
                         if not line.startswith("#confighash:")] for d in (out, pipeline["out"]))
            assert new == old, name


def test_population_without_the_first_pandemic_year_snapshot_exits_3(pipeline, tmp_path):
    """Ingest refuses a raw population file without the 1 January 2020
    snapshot, which the pandemic exposures are projected from."""
    rc, out = _run_on_population(
        pipeline, tmp_path, lambda lines: [line.replace("2020-01-01,", "2023-01-01,")
                                           for line in lines])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"], rec["message"]) == (
        "ingest", "IngestError", f"{tmp_path / 'data' / 'AAA_population.csv'}: AAA has no "
        "2020-01-01 population snapshot for sex m, sex f")


def test_raw_weekly_without_a_pandemic_year_exits_3(pipeline, tmp_path):
    """Ingest refuses a raw weekly file without a pandemic year of a
    configured country and sex, before it writes that panel."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "weekly_deaths.csv"
    path.write_text(_without("BBB,2021,")(path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=data))
    out = tmp_path / "out"
    assert cli.main(["run-all", "--config", str(config), "--out", str(out)]) == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"], rec["message"]) == (
        "ingest", "IngestError", f"{path}: BBB/m has no data for year 2021")
    assert not (out / "weekly_BBB_m.csv").exists()


def test_population_of_other_ages_exits_3(pipeline, tmp_path):
    rc, out = _run_on_population(
        pipeline, tmp_path, lambda lines: [line for line in lines if ",110," not in line])
    assert rc == 3
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"], rec["message"]) == (
        "calibrate-covid", "IngestError",
        f"{out / 'population_AAA.csv'}: population ages do not match weekly panel ages for AAA/m")


def test_non_finite_annual_effect_fails_forecast(pipeline, tmp_path):
    """A NaN X of the last pandemic year makes the forces of mortality of the
    scenarios that start from it NaN, which `forecast` refuses."""
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    path = out / "annual_effects_AAA_m.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r"^X,2021,,.*$", "X,2021,,nan", text, count=1, flags=re.M),
                    encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    assert cli.main(["forecast", "--config", str(pipeline["config"]), "--out", str(out)]) == 4
    rec = json.loads((out / "error.json").read_text())
    assert (rec["stage"], rec["error"], rec["message"]) == (
        "forecast", "ValidationError", "ForecastSet: non-finite mu for completely_structural")


def test_report_reads_no_forecast_file(pipeline, tmp_path):
    """`report` computes the scenarios' life expectancies from the baseline
    and the annual effects: on a finished run without the files of
    `forecast` and `report`, it writes the same ``report.csv``."""
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    for name in os.listdir(out):
        if name.startswith(("forecast_", "life_expectancy_", "report.csv")):
            (out / name).unlink()
    assert cli.main(["report", "--config", str(pipeline["config"]), "--out", str(out)]) == 0
    assert (out / "report.csv").read_bytes() == (pipeline["out"] / "report.csv").read_bytes()


@pytest.mark.parametrize("old, new, rerun", [
    ("eta = 0.5", "eta = 0.9", ()),
    ("method = 2", "method = 1", ("calibrate-covid", "annualize")),
])
def test_report_of_a_changed_config_is_that_of_a_fresh_run(pipeline, tmp_path, old, new, rerun):
    """After a config change and the rerun of the stages before `forecast`
    that it moves, `report` writes the ``report.csv`` of a fresh run of the
    new config, although the `forecast` files of the old one are still
    there."""
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(datadir=pipeline["data"]).replace(old, new))
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    for stage in (*rerun, "report"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert cli.main(["run-all", "--config", str(config), "--out", str(fresh)]) == 0
    report = (fresh / "report.csv").read_text().splitlines()
    assert (out / "report.csv").read_text().splitlines() == report
    # the change moves the values, not only the config stamp
    assert (pipeline["out"] / "report.csv").read_text().splitlines()[:-1] != report[:-1]


def _expand(pattern, cfg):
    """The file names of ``pattern`` for every country, gender, pandemic year
    and scenario of the run."""
    values = {"c": cfg.countries, "g": ds.GENDERS, "t": cli.PANDEMIC_YEARS,
              "name": [s.name for s in af.standard_scenarios(0.0, cfg.eta)]}
    used = [f for f in values if "{" + f + "}" in pattern]
    return {pattern.format(**dict(zip(used, combo)))
            for combo in itertools.product(*(values[f] for f in used))}


def test_stages_from_disk_match_run_all(pipeline, tmp_path):
    """Each stage in its own ``main`` call reads its inputs from disk; the
    files must equal those of ``run-all``, whose stages hand objects on in
    memory.  Each stage creates exactly the files ``FILES`` assigns to it,
    and leaves the files of the stages before it as they were."""
    cfg = cli.RunConfig(str(pipeline["config"]))
    expanded = {kind: _expand(pattern, cfg) for kind, (pattern, *_) in cli.FILES.items()}
    out = tmp_path / "staged"
    before = {}
    for stage in cli.STAGES:
        assert cli.main([stage, "--config", str(pipeline["config"]), "--out", str(out)]) == 0
        assert not cli._memo
        after = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert after.keys() - before.keys() == set().union(
            *(expanded[kind] for kind, (_, by, _) in cli.FILES.items() if by == stage)), stage
        assert {name: after[name] for name in before} == before, stage
        before = after
    names = sorted(os.listdir(out))
    assert names == sorted(os.listdir(pipeline["out"]))
    for name in names:
        assert sum(name in files for files in expanded.values()) == 1, name
    for name in names:
        assert (out / name).read_bytes() == (pipeline["out"] / name).read_bytes(), name


def test_every_table_goes_through_write_table(pipeline, tmp_path, monkeypatch):
    """``ds.write_table`` writes every output file, the model files included,
    each once."""
    written = []
    real = ds.write_table
    monkeypatch.setattr(ds, "write_table",
                        lambda path, *a: written.append(os.path.basename(path)) or real(path, *a))
    out = tmp_path / "out"
    assert cli.main(["run-all", "--config", str(pipeline["config"]), "--out", str(out)]) == 0
    cfg = cli.RunConfig(str(pipeline["config"]))
    files = set().union(*(_expand(pattern, cfg) for pattern, *_ in cli.FILES.values()))
    assert sorted(written) == sorted(files)
    assert set(os.listdir(out)) == files


@pytest.mark.parametrize("case", ["below_covid_ages", "none", "all"])
def test_forecast_files_match_the_per_scenario_oracle(pipeline, tmp_path, monkeypatch, case):
    """The forecast files, whose rows common to all six scenarios are
    formatted once, equal the per-scenario text byte for byte.  The rows
    shared are those below ``covid_ages`` (40:90), none (``covid_ages``
    0:90) or all (every annual effect X set to 0)."""
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    config = pipeline["config"]
    if case == "none":
        config = tmp_path / "run.ini"
        config.write_text(pipeline["config"].read_text().replace("covid_ages = 40:90",
                                                                 "covid_ages = 0:90"))
        for stage in ("calibrate-covid", "annualize"):
            assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
    elif case == "all":
        for name in os.listdir(out):
            if name.startswith("annual_effects_"):
                eff = ds.load_model(str(out / name))
                ds.save_model(dataclasses.replace(eff, X=np.zeros_like(eff.X)), str(out / name))
    made = []
    real = af.forecast_scenarios

    def recorded(model, c, g, *args, **kwargs):
        fs = real(model, c, g, *args, **kwargs)
        made.append((c, g, fs))
        return fs

    monkeypatch.setattr(af, "forecast_scenarios", recorded)
    assert cli.main(["forecast", "--config", str(config), "--out", str(out)]) == 0
    stamp = f"#confighash:{cli.RunConfig(str(config)).hash}\n"
    assert len(made) == 4
    for c, g, fs in made:
        rows = {name: per_scenario_forecast_rows(fs, name) for name in fs.mu}
        for name, text in rows.items():
            # compared line by line, which keeps a failure's report short
            got = (out / f"forecast_{name}_{c}_{g}.csv").read_bytes()
            want = ("age,year,mu,q\n" + text + stamp).encode()
            assert got.splitlines(keepends=True) == want.splitlines(keepends=True), name
        lines = np.array([text.splitlines() for text in rows.values()])
        same_ages = (lines == lines[0]).all(axis=0).reshape(len(fs.ages), -1).all(axis=1)
        expected = {"below_covid_ages": fs.ages < 40, "none": False, "all": True}[case]
        np.testing.assert_array_equal(same_ages, expected)


def test_same_bits_tells_signed_zeros_and_nan_payloads_apart():
    nan2 = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    a = np.array([0.0, np.nan, np.nan, 1.0])
    b = np.array([-0.0, np.nan, nan2, 1.0])
    np.testing.assert_array_equal(cli._same_bits([a, a.copy()]), [True] * 4)
    np.testing.assert_array_equal(cli._same_bits([a, a, b]), [False, True, False, True])


@pytest.mark.parametrize("user", [None, "3"])
def test_cli_process_limits_blas_threads_unless_set(user):
    """The console script ``pandmort.cli:main`` imports the package, which
    sets one BLAS thread before NumPy is first imported; a value the user
    set is kept."""
    spy = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")])
sys.meta_path.insert(0, Spy())
from pandmort.cli import main
print(*seen[0])
"""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = user
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", spy], env=env, capture_output=True, text=True,
                          check=True)
    want = user or "1"
    assert done.stdout.split() == [want, want]


def test_memo_hit_is_validated(tmp_path, monkeypatch):
    path = str(tmp_path / "seasonal_AAA_m.csv")
    open(path, "w").close()
    bad = ds.SeasonalEffect(country="AAA", gender="m", phi=np.zeros(ds.MAX_WEEKS), knots=12,
                             coeffs=None)
    monkeypatch.setitem(cli._memo, path, bad)
    with pytest.raises(ValidationError, match="strictly positive"):
        cli._read(None, str(tmp_path), "seasonal", ds.load_model, c="AAA", g="m")


def test_failed_write_leaves_no_memo_entry(tmp_path, monkeypatch):
    path = str(tmp_path / "baseline_model.csv")
    monkeypatch.setitem(cli._memo, path, "the object of an earlier write")

    def failing_writer(obj, p):
        raise ParseError(f"cannot write model file {p}")

    with pytest.raises(ParseError):
        cli._write(None, str(tmp_path), "baseline", object(), failing_writer)
    assert path not in cli._memo


# Every reader of a file that some stage writes.
READERS = [(ds, "read_annual_panel_csv"), (ds, "read_weekly_panel_csv"), (ds, "load_model"),
           (ig, "parse_population")]


@pytest.fixture(scope="module")
def memo_run(pipeline):
    """One ``run-all`` with the readers counted and the memo as it stands
    after the last stage."""
    out = pipeline["root"] / "memo_out"
    parsed = []
    memo = {}

    def counted(reader):
        def wrapper(path, *args, **kwargs):
            parsed.append(os.path.abspath(path))
            return reader(path, *args, **kwargs)
        return wrapper

    def report_then_keep(cfg, out_dir):
        report(cfg, out_dir)
        memo.update(cli._memo)

    report = cli.STAGES["report"]
    with pytest.MonkeyPatch.context() as mp:
        for module, name in READERS:
            mp.setattr(module, name, counted(getattr(module, name)))
        mp.setitem(cli.STAGES, "report", report_then_keep)
        assert cli.main(["run-all", "--config", str(pipeline["config"]),
                         "--out", str(out)]) == 0
    assert not cli._memo
    return {"out": out, "parsed": parsed, "memo": memo}


def test_run_all_parses_no_file_it_wrote(memo_run, pipeline):
    """``run-all`` parses the two raw population files and none of the files
    it wrote."""
    assert sorted(memo_run["parsed"]) == sorted(
        os.path.abspath(pipeline["data"] / f"{c}_population.csv") for c in ("AAA", "BBB"))


def _reread(path):
    name = os.path.basename(path)
    if name == "annual_panel.csv":
        return ds.read_annual_panel_csv(path)
    if name.startswith("weekly_"):
        return ds.read_weekly_panel_csv(path, *name[len("weekly_"):-len(".csv")].split("_"))
    if name.startswith("population_"):
        return ig.parse_population(path, "eurostat_annual")
    return ds.load_model(path)


def _assert_identical(a, b, where):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), where
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            _assert_identical(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), where
        for k in a:
            _assert_identical(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{where}[{i}]")
    else:
        assert a == b or (a != a and b != b), where


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (dict, list, tuple)):
        for v in obj.values() if isinstance(obj, dict) else obj:
            yield from _arrays(v)


def test_memo_matches_disk(memo_run):
    memo = memo_run["memo"]
    kinds = {os.path.basename(p).split("_")[0] for p in memo}
    assert kinds == {"annual", "weekly", "population", "baseline", "seasonal", "covid", "coda"}
    for path, obj in memo.items():
        _assert_identical(obj, _reread(path), os.path.basename(path))


def test_memo_arrays_are_read_only(memo_run):
    arrays = [a for obj in memo_run["memo"].values() for a in _arrays(obj)]
    assert len(arrays) > 50
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0
