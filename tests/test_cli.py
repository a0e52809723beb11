import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pandmort.cli as cli
import pandmort.datastore as ds
from pandmort.errors import ConfigError

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
    for patch, msg in [
        ("method = 2", None),  # control: must parse
        ("method = 3", "method"),
        ("eta = 1.5", "eta"),
        ("covid_ages = 40:95", "covid_ages"),
    ]:
        text = base.replace("method = 2", patch) if patch.startswith("method") else base.replace(
            "eta = 0.5", patch) if patch.startswith("eta") else base.replace(
            "covid_ages = 40:90", patch)
        p = tmp_path / "cfg.ini"
        p.write_text(text)
        if msg is None:
            cli.RunConfig(str(p))
        else:
            with pytest.raises(ConfigError, match=msg):
                cli.RunConfig(str(p))


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
                 "report.csv"]:
        text = (pipeline["out"] / name).read_text()
        assert f"#confighash:{cfg.hash}" in text


def test_baseline_model_loadable(pipeline):
    model = ds.load_model(str(pipeline["out"] / "baseline_model.csv"))
    assert set(model.A) == {"m", "f"}
    assert model.countries == ("AAA", "BBB")
    assert len(model.K["m"]) == 50


def test_covid_layers_have_annual_effects(pipeline):
    for c in ("AAA", "BBB"):
        for g in ("m", "f"):
            layer = ds.load_model(str(pipeline["out"] / f"covid_{c}_{g}.csv"))
            assert layer.V is not None and layer.X is not None
            assert layer.X.shape == (2,)
            assert abs(np.linalg.norm(layer.V) - 1.0) < 1e-10
            # a real pandemic was injected into 2020/2021
            assert layer.X.max() > 0.1


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
