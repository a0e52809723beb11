"""Command-line pipeline driver.

Stages (each reads prior-stage outputs from the run directory and writes its
own): ingest, calibrate-baseline, fit-seasonal, calibrate-covid, coda,
annualize, forecast, report.  ``synth`` generates the bundled synthetic raw
dataset.  Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical
failure.  Every stage appends the configuration hash to its outputs, and a
machine-readable error record is written on failure.

Every output file is written to the run directory.  Within one ``main``
call the objects a stage wrote are also kept in memory, so ``run-all``
hands them on to later stages without parsing the files again (they are
re-validated and their arrays are read-only); a stage run on its own reads
its inputs from the run directory.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import os
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np

from . import annualize_forecast as af
from . import baseline as bl
from . import coda as coda_mod
from . import covid_layer as cl
from . import datastore as ds
from . import exposures as ex
from . import ingest as ig
from . import seasonal as se
from . import synthetic
from .errors import ConfigError, IngestError, NumericalError, PandmortError, ParseError

log = logging.getLogger("pandmort")

PANDEMIC_YEARS = (2020, 2021)


def _write_columns(path, header, *columns):
    """Write a CSV file with one row per position of the equal-length columns.

    Each cell is the ``str`` of its Python value, which for floats is the
    shortest text that reads back to the same double.
    """
    cells = [map(str, np.asarray(col).tolist()) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def _write_table(cfg, path, header, *columns):
    """`_write_columns`, then the config stamp."""
    _write_columns(path, header, *columns)
    _stamp(path, cfg)


def _parse_range(text):
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


class RunConfig:
    """Parsed and validated run configuration (INI key-value format)."""

    def __init__(self, path):
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        self.hash = hashlib.sha256(text.encode()).hexdigest()[:16]
        try:
            parser.read_string(text)
            data = parser["data"]
            run = parser["run"]
            self.data_dir = data["dir"]
            self.countries = tuple(c.strip() for c in run["countries"].split(","))
            self.years = _parse_range(run.get("years", "1970:2019"))
            self.ages = _parse_range(run.get("ages", "0:90"))
            self.covid_ages = _parse_range(run.get("covid_ages", "40:90"))
            self.seasonal_years = _parse_range(run.get("seasonal_years", "2010:2019"))
            self.hist_years = _parse_range(run.get("hist_years", "2015:2019"))
            self.method = run.getint("method", 2)
            self.knots = run.getint("knots", 12)
            self.eta = run.getfloat("eta", 0.5)
            self.horizon = run.getint("horizon", 30)
            self.seed = run.getint("seed", 1234)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
        if self.method not in (1, 2):
            raise ConfigError(f"method must be 1 or 2, got {self.method}")
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if not (self.ages[0] <= self.covid_ages[0] <= self.covid_ages[1] <= self.ages[1]):
            raise ConfigError("covid_ages must lie inside the baseline age range")


def _stamp(path, cfg):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"#confighash:{cfg.hash}\n")


def _require(path, stage):
    if not os.path.exists(path):
        raise IngestError(f"missing {os.path.basename(path)}: run {stage} first")
    return path


# Objects written by this ``main`` call, by output path.
_memo = {}


def _freeze(obj):
    """Mark every NumPy array reachable from ``obj`` read-only."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif is_dataclass(obj):
        for f in fields(obj):
            _freeze(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for v in obj.values():
            _freeze(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _freeze(v)


def _write(obj, path, writer, cfg):
    """Write ``obj`` with ``writer(obj, path)``, stamp the file, and keep
    ``obj``, frozen, as what ``path`` holds."""
    _memo.pop(path, None)
    writer(obj, path)
    _stamp(path, cfg)
    _freeze(obj)
    _memo[path] = obj


def _read(path, stage, reader, *args):
    """The object at ``path``: the one this process wrote there, re-validated,
    or else ``reader(path, *args)``."""
    _require(path, stage)
    if path not in _memo:
        return reader(path, *args)
    obj = _memo[path]
    for item in obj if isinstance(obj, list) else (obj,):
        item.validate()
    return obj


def _annual_panel_path(out):
    return os.path.join(out, "annual_panel.csv")


def _weekly_path(out, c, g):
    return os.path.join(out, f"weekly_{c}_{g}.csv")


def _population_path(out, c):
    return os.path.join(out, f"population_{c}.csv")


def _baseline_path(out):
    return os.path.join(out, "baseline_model.csv")


def _seasonal_path(out, c, g):
    return os.path.join(out, f"seasonal_{c}_{g}.csv")


def _covid_path(out, c, g):
    return os.path.join(out, f"covid_{c}_{g}.csv")


def _write_population(snaps, path):
    sizes = [len(s.ages) for s in snaps]
    _write_columns(
        path, "date,age,sex,count",
        np.repeat(["%04d-%02d-%02d" % s.date for s in snaps], sizes),
        np.concatenate([s.ages for s in snaps]),
        np.repeat([s.gender for s in snaps], sizes),
        np.concatenate([s.counts for s in snaps]),
    )


def stage_ingest(cfg, out):
    panels = []
    for c in cfg.countries:
        panels.append(
            ig.parse_hmd_annual(
                os.path.join(cfg.data_dir, f"{c}_deaths.txt"),
                os.path.join(cfg.data_dir, f"{c}_exposures.txt"),
                c,
                range(cfg.years[0], cfg.years[1] + 1),
                range(0, 111),
            )
        )
    _write(ds.AnnualPanel.merge(panels), _annual_panel_path(out), ds.write_annual_panel_csv, cfg)

    stmf = os.path.join(cfg.data_dir, "weekly_deaths.csv")
    weekly = ig.parse_stmf_countries(stmf, cfg.countries, open_group_high=110)
    for c, per_gender in weekly.items():
        for g, wp in per_gender.items():
            _write(wp, _weekly_path(out, c, g), ds.write_weekly_panel_csv, cfg)
    for c in cfg.countries:
        snaps = ig.parse_population(os.path.join(cfg.data_dir, f"{c}_population.csv"),
                                    "eurostat_annual")
        _write(snaps, _population_path(out, c), _write_population, cfg)
    log.info("ingest: wrote panels for %s", ", ".join(cfg.countries))


def _load_annual(out):
    return _read(_annual_panel_path(out), "ingest", ds.read_annual_panel_csv)


def _load_weekly(out, c, g):
    return _read(_weekly_path(out, c, g), "ingest", ds.read_weekly_panel_csv, c, g)


def stage_calibrate_baseline(cfg, out):
    panel = _load_annual(out)
    panel = panel.select(
        ages=np.arange(cfg.ages[0], cfg.ages[1] + 1),
        years=np.arange(cfg.years[0], cfg.years[1] + 1),
    )
    traces = {}
    model = bl.calibrate_baseline(panel, traces=traces)
    _write(model, _baseline_path(out), ds.save_model, cfg)
    rows = [(stage, g, it, lnl, change)
            for (stage, g), trace in traces.items() for it, lnl, change in trace]
    _write_table(cfg, os.path.join(out, "baseline_iterations.csv"),
                 "stage,gender,iteration,lnl,max_change", *zip(*rows))


def stage_fit_seasonal(cfg, out):
    y0, y1 = cfg.seasonal_years
    for c in cfg.countries:
        for g in ds.GENDERS:
            wp = _load_weekly(out, c, g).select_years(range(y0, y1 + 1))
            fractions = se.weekly_fractions(wp)
            eff = se.fit_seasonal_spline(fractions, country=c, gender=g, knots=cfg.knots)
            _write(eff, _seasonal_path(out, c, g), ds.save_model, cfg)


def _reconstruct_weekly(cfg, out, c, g, historical):
    """Disaggregated pandemic-year deaths plus projected weekly exposures."""
    wp = _load_weekly(out, c, g).select_years(PANDEMIC_YEARS)
    indiv = ex.disaggregate_deaths(wp, historical,
                                   range(cfg.hist_years[0], cfg.hist_years[1] + 1))
    snaps = _read(_population_path(out, c), "ingest", ig.parse_population, "eurostat_annual")
    snaps = [s for s in snaps if s.gender == g]
    start = snaps[-1]
    panel_ages = np.array([a.low for a in indiv.ages])
    if not np.array_equal(start.ages, panel_ages):
        raise IngestError(f"population ages do not match weekly panel ages for {c}/{g}")
    pop = start.counts
    expos = np.full_like(indiv.deaths, np.nan)
    for j, t in enumerate(indiv.years):
        wt = indiv.weeks_in_year[t]
        c_xw = ex.cohort_deaths(indiv.deaths[:, j, :wt], wt)
        proj = ex.project_population(pop, c_xw, wt)
        expos[:, j, :wt] = ex.weekly_exposures_from_projection(proj, wt)
        pop = proj[:, -1]
    return replace(indiv, exposures=expos)


def stage_calibrate_covid(cfg, out):
    model = _read(_baseline_path(out), "calibrate-baseline", ds.load_model)
    historical = _load_annual(out)
    lo, hi = cfg.covid_ages
    for c in cfg.countries:
        for g in ds.GENDERS:
            seasonal = None
            if cfg.method == 2:
                seasonal = _read(_seasonal_path(out, c, g), "fit-seasonal", ds.load_model)
            full = _reconstruct_weekly(cfg, out, c, g, historical)
            work = full.select_ages(lo, hi).validate(require_exposures=True)
            mu = cl.group_baseline_mu(model, c, g, work.ages, work.years)
            pred = cl.predicted_deaths(work, mu, seasonal=seasonal, method=cfg.method)
            layer = cl.calibrate_covid(work, pred, cfg.method)
            _write(layer, _covid_path(out, c, g), ds.save_model, cfg)
            # (year, week) rows in file order, ages along the last axis
            used = ds.week_mask(work.years, work.weeks_in_year)
            obs = np.moveaxis(work.deaths, 0, -1)[used]
            base = np.moveaxis(pred, 0, -1)[used]
            fitted = base * np.exp(layer.B * layer.K[used][:, None])
            year_idx, week_idx = np.nonzero(used)
            _write_table(cfg, os.path.join(out, f"covid_fit_{c}_{g}.csv"),
                         "year,week,observed,predicted,fitted",
                         np.asarray(work.years)[year_idx], week_idx + 1,
                         obs.sum(axis=1), base.sum(axis=1), fitted.sum(axis=1))


def stage_coda(cfg, out):
    historical = _load_annual(out)
    c = cfg.countries[0]
    for g in ds.GENDERS:
        wp = _load_weekly(out, c, g).select_years(PANDEMIC_YEARS)
        indiv = ex.disaggregate_deaths(wp, historical,
                                       range(cfg.hist_years[0], cfg.hist_years[1] + 1))
        indiv = indiv.select_ages(0, 98)
        ages = np.array([a.low for a in indiv.ages])
        for t in indiv.years:
            d, _ = indiv.cells(t)
            fit = coda_mod.coda_fit(d, ages, t, g)
            _write(fit, os.path.join(out, f"coda_{t}_{g}.csv"), ds.save_model, cfg)


def stage_annualize(cfg, out):
    model = _read(_baseline_path(out), "calibrate-baseline", ds.load_model)
    for c in cfg.countries:
        for g in ds.GENDERS:
            layer = _read(_covid_path(out, c, g), "calibrate-covid", ds.load_model)
            if cfg.method == 2:
                phi = _read(_seasonal_path(out, c, g), "fit-seasonal", ds.load_model).phi
            else:
                phi = np.ones(ds.MAX_WEEKS)
            mu = cl.group_baseline_mu(model, c, g, layer.ages, layer.years)
            layer = af.annualize(layer, phi, mu)
            _write(layer, _covid_path(out, c, g), ds.save_model, cfg)


def _load_annualized(out, c, g):
    """The covid layer of ``c``/``g``, which must carry its annual effects."""
    layer = _read(_covid_path(out, c, g), "calibrate-covid", ds.load_model)
    if layer.V is None or layer.X is None:
        raise IngestError(f"covid layer for {c}/{g} has no annual effects: "
                          "run annualize first")
    return layer


def stage_forecast(cfg, out):
    model = _read(_baseline_path(out), "calibrate-baseline", ds.load_model)
    for c in cfg.countries:
        for g in ds.GENDERS:
            layer = _load_annualized(out, c, g)
            scenarios = af.standard_scenarios(float(layer.X[-1]), eta=cfg.eta)
            calib_ages = np.array([a.low for a in layer.ages])
            fs = af.forecast_scenarios(model, c, g, layer.V, calib_ages, scenarios,
                                       layer.years[-1] + 1, report_years=cfg.horizon)
            nx, nt, nle = len(fs.ages), len(fs.years), len(fs.le_ages)
            for name in fs.mu:
                _write_table(cfg, os.path.join(out, f"forecast_{name}_{c}_{g}.csv"),
                             "age,year,mu,q", np.repeat(fs.ages, nt),
                             np.tile(fs.years, nx), fs.mu[name].ravel(), fs.q[name].ravel())
                # per (age, year): the period row, then the cohort row
                _write_table(cfg, os.path.join(out, f"life_expectancy_{name}_{c}_{g}.csv"),
                             "kind,age,year,value",
                             np.tile(["period", "cohort"], nle * nt),
                             np.repeat(fs.le_ages, 2 * nt), np.tile(np.repeat(fs.years, 2), nle),
                             np.stack([fs.e_period[name], fs.e_cohort[name]], axis=-1).ravel())


def _le_at_birth(out, name, c, g, year):
    """Period life expectancy at birth in ``year`` under scenario ``name``,
    from its ``life_expectancy_*`` file."""
    path = _require(os.path.join(out, f"life_expectancy_{name}_{c}_{g}.csv"), "forecast")
    (kind, age, years, value), lineno = ds._read_columns(path, "kind,age,year,value", 4)
    value = ds._numbers(path, value, float, lineno)
    for k, row in enumerate(zip(kind, age, years)):
        if row == ("period", "0", str(year)):
            return value[k]
    raise IngestError(f"{path}: no period life expectancy at birth for {year}")


def stage_report(cfg, out):
    names = [s.name for s in af.standard_scenarios(0.0)]
    rows = []
    for c in cfg.countries:
        for g in ds.GENDERS:
            layer = _load_annualized(out, c, g)
            final_year = layer.years[-1] + cfg.horizon
            le = {n: _le_at_birth(out, n, c, g, final_year) for n in names}
            x = dict(zip(layer.years, layer.X))
            rows.append((c, g, *(x.get(t, np.nan) for t in PANDEMIC_YEARS),
                         *(le[n] - le["completely_incidental"] for n in names)))
    _write_table(cfg, os.path.join(out, "report.csv"),
                 ",".join(["country,gender", *(f"X_{t}" for t in PANDEMIC_YEARS),
                           *(f"dLE_{n}" for n in names)]),
                 *zip(*rows))


STAGES = {
    "ingest": stage_ingest,
    "calibrate-baseline": stage_calibrate_baseline,
    "fit-seasonal": stage_fit_seasonal,
    "calibrate-covid": stage_calibrate_covid,
    "coda": stage_coda,
    "annualize": stage_annualize,
    "forecast": stage_forecast,
    "report": stage_report,
}


def build_parser():
    p = argparse.ArgumentParser(prog="pandmort",
                                description="Mortality calibration and forecasting pipeline")
    sub = p.add_subparsers(dest="command", required=True)
    synth = sub.add_parser("synth", help="generate the bundled synthetic raw dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=1234)
    for name in STAGES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
    run_all = sub.add_parser("run-all", help="run every stage in order")
    run_all.add_argument("--config", required=True)
    run_all.add_argument("--out", required=True)
    return p


def _error_record(out, stage, exc):
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "error.json"), "w", encoding="utf-8") as fh:
            json.dump({"stage": stage, "error": type(exc).__name__, "message": str(exc)}, fh)
            fh.write("\n")
    except OSError:
        pass


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "synth":
        synthetic.write_synthetic_dataset(args.out, seed=args.seed)
        return 0
    try:
        cfg = RunConfig(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "run-all":
            for name, fn in STAGES.items():
                log.info("stage %s", name)
                fn(cfg, args.out)
        else:
            STAGES[args.command](cfg, args.out)
        return 0
    except ConfigError as exc:
        log.error("%s", exc)
        _error_record(args.out, args.command, exc)
        return 2
    except (IngestError, ParseError) as exc:
        log.error("%s", exc)
        _error_record(args.out, args.command, exc)
        return 3
    except (NumericalError, PandmortError) as exc:
        log.error("%s", exc)
        _error_record(args.out, args.command, exc)
        return 4
    finally:
        _memo.clear()


if __name__ == "__main__":
    sys.exit(main())
