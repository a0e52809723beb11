"""Command-line pipeline driver.

Stages (each reads prior-stage outputs from the run directory and writes its
own): ingest, calibrate-baseline, fit-seasonal, calibrate-covid, coda,
annualize, forecast, report.  ``synth`` generates the bundled synthetic raw
dataset.  Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical
failure.  Every stage appends the configuration hash to its outputs, and a
machine-readable error record is written on failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import os
import sys
from dataclasses import replace

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


def _write_table(path, header, *columns):
    """Write a CSV file with one row per position of the equal-length columns.

    Each cell is the ``str`` of its Python value, which for floats is the
    shortest text that reads back to the same double.
    """
    cells = [map(str, np.asarray(col).tolist()) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


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


def _annual_panel_path(out):
    return os.path.join(out, "annual_panel.csv")


def _weekly_path(out, c, g):
    return os.path.join(out, f"weekly_{c}_{g}.csv")


def _seasonal_path(out, c, g):
    return os.path.join(out, f"seasonal_{c}_{g}.csv")


def _covid_path(out, c, g):
    return os.path.join(out, f"covid_{c}_{g}.csv")


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
    panel = ds.AnnualPanel.merge(panels)
    ds.write_annual_panel_csv(panel, _annual_panel_path(out))
    _stamp(_annual_panel_path(out), cfg)

    stmf = os.path.join(cfg.data_dir, "weekly_deaths.csv")
    weekly = ig.parse_stmf_countries(stmf, cfg.countries, open_group_high=110)
    for c, per_gender in weekly.items():
        for g, wp in per_gender.items():
            ds.write_weekly_panel_csv(wp, _weekly_path(out, c, g))
            _stamp(_weekly_path(out, c, g), cfg)
    for c in cfg.countries:
        snaps = ig.parse_population(os.path.join(cfg.data_dir, f"{c}_population.csv"),
                                    "eurostat_annual")
        sizes = [len(s.ages) for s in snaps]
        _write_table(
            os.path.join(out, f"population_{c}.csv"), "date,age,sex,count",
            np.repeat(["%04d-%02d-%02d" % s.date for s in snaps], sizes),
            np.concatenate([s.ages for s in snaps]),
            np.repeat([s.gender for s in snaps], sizes),
            np.concatenate([s.counts for s in snaps]),
        )
        _stamp(os.path.join(out, f"population_{c}.csv"), cfg)
    log.info("ingest: wrote panels for %s", ", ".join(cfg.countries))


def _load_annual(cfg, out):
    return ds.read_annual_panel_csv(_require(_annual_panel_path(out), "ingest"))


def stage_calibrate_baseline(cfg, out):
    panel = _load_annual(cfg, out)
    panel = panel.select(
        ages=np.arange(cfg.ages[0], cfg.ages[1] + 1),
        years=np.arange(cfg.years[0], cfg.years[1] + 1),
    )
    traces = {}
    model = bl.calibrate_baseline(panel, traces=traces)
    path = os.path.join(out, "baseline_model.csv")
    ds.save_model(model, path)
    _stamp(path, cfg)
    log_path = os.path.join(out, "baseline_iterations.csv")
    rows = [(stage, g, it, lnl, change)
            for (stage, g), trace in traces.items() for it, lnl, change in trace]
    _write_table(log_path, "stage,gender,iteration,lnl,max_change", *zip(*rows))
    _stamp(log_path, cfg)


def stage_fit_seasonal(cfg, out):
    y0, y1 = cfg.seasonal_years
    for c in cfg.countries:
        for g in ds.GENDERS:
            wp = ds.read_weekly_panel_csv(_require(_weekly_path(out, c, g), "ingest"), c, g)
            wp = wp.select_years(range(y0, y1 + 1))
            fractions = se.weekly_fractions(wp)
            eff = se.fit_seasonal_spline(fractions, country=c, gender=g, knots=cfg.knots)
            ds.save_model(eff, _seasonal_path(out, c, g))
            _stamp(_seasonal_path(out, c, g), cfg)


def _reconstruct_weekly(cfg, out, c, g, historical):
    """Disaggregated pandemic-year deaths plus projected weekly exposures."""
    wp = ds.read_weekly_panel_csv(_require(_weekly_path(out, c, g), "ingest"), c, g)
    wp = wp.select_years(PANDEMIC_YEARS)
    indiv = ex.disaggregate_deaths(wp, historical,
                                   range(cfg.hist_years[0], cfg.hist_years[1] + 1))
    snaps = ig.parse_population(_require(os.path.join(out, f"population_{c}.csv"), "ingest"),
                                "eurostat_annual")
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
    model = ds.load_model(_require(os.path.join(out, "baseline_model.csv"),
                                   "calibrate-baseline"))
    historical = _load_annual(cfg, out)
    lo, hi = cfg.covid_ages
    for c in cfg.countries:
        for g in ds.GENDERS:
            seasonal = None
            if cfg.method == 2:
                seasonal = ds.load_model(_require(_seasonal_path(out, c, g), "fit-seasonal"))
            full = _reconstruct_weekly(cfg, out, c, g, historical)
            work = full.select_ages(lo, hi).validate(require_exposures=True)
            mu = cl.group_baseline_mu(model, c, g, work.ages, work.years)
            pred = cl.predicted_deaths(work, mu, seasonal=seasonal, method=cfg.method)
            layer = cl.calibrate_covid(work, pred, cfg.method)
            ds.save_model(layer, _covid_path(out, c, g))
            _stamp(_covid_path(out, c, g), cfg)
            # (year, week) rows in file order, ages along the last axis
            used = np.arange(ds.MAX_WEEKS) < np.array([work.weeks_in_year[t]
                                                       for t in work.years])[:, None]
            obs = np.moveaxis(work.deaths, 0, -1)[used]
            base = np.moveaxis(pred, 0, -1)[used]
            fitted = base * np.exp(layer.B * layer.K[used][:, None])
            year_idx, week_idx = np.nonzero(used)
            fit_path = os.path.join(out, f"covid_fit_{c}_{g}.csv")
            _write_table(fit_path, "year,week,observed,predicted,fitted",
                         np.asarray(work.years)[year_idx], week_idx + 1,
                         obs.sum(axis=1), base.sum(axis=1), fitted.sum(axis=1))
            _stamp(fit_path, cfg)


def stage_coda(cfg, out):
    historical = _load_annual(cfg, out)
    c = cfg.countries[0]
    for g in ds.GENDERS:
        wp = ds.read_weekly_panel_csv(_require(_weekly_path(out, c, g), "ingest"), c, g)
        wp = wp.select_years(PANDEMIC_YEARS)
        indiv = ex.disaggregate_deaths(wp, historical,
                                       range(cfg.hist_years[0], cfg.hist_years[1] + 1))
        indiv = indiv.select_ages(0, 98)
        ages = np.array([a.low for a in indiv.ages])
        for t in indiv.years:
            d, _ = indiv.cells(t)
            fit = coda_mod.coda_fit(d, ages, t, g)
            path = os.path.join(out, f"coda_{t}_{g}.csv")
            ds.save_model(fit, path)
            _stamp(path, cfg)


def stage_annualize(cfg, out):
    model = ds.load_model(_require(os.path.join(out, "baseline_model.csv"),
                                   "calibrate-baseline"))
    for c in cfg.countries:
        for g in ds.GENDERS:
            layer = ds.load_model(_require(_covid_path(out, c, g), "calibrate-covid"))
            if cfg.method == 2:
                seasonal = ds.load_model(_require(_seasonal_path(out, c, g), "fit-seasonal"))
                phi = seasonal.phi
            else:
                phi = np.ones(ds.MAX_WEEKS)
            mu = cl.group_baseline_mu(model, c, g, layer.ages, layer.years)
            layer = af.annualize(layer, phi, mu)
            ds.save_model(layer, _covid_path(out, c, g))
            _stamp(_covid_path(out, c, g), cfg)


def stage_forecast(cfg, out):
    model = ds.load_model(_require(os.path.join(out, "baseline_model.csv"),
                                   "calibrate-baseline"))
    for c in cfg.countries:
        for g in ds.GENDERS:
            layer = ds.load_model(_require(_covid_path(out, c, g), "calibrate-covid"))
            if layer.V is None or layer.X is None:
                raise IngestError(f"covid layer for {c}/{g} has no annual effects: "
                                  "run annualize first")
            x_2021 = float(layer.X[layer.years.index(2021)])
            scenarios = af.standard_scenarios(x_2021, eta=cfg.eta, horizon=cfg.horizon)
            calib_ages = np.array([a.low for a in layer.ages])
            fs = af.forecast_scenarios(
                model, c, g, layer.V, calib_ages, x_2021, scenarios,
                report_years=cfg.horizon,
            )
            nx, nt, nle = len(fs.ages), len(fs.years), len(fs.le_ages)
            for name in fs.mu:
                path = os.path.join(out, f"forecast_{name}_{c}_{g}.csv")
                _write_table(path, "age,year,mu,q", np.repeat(fs.ages, nt),
                             np.tile(fs.years, nx), fs.mu[name].ravel(), fs.q[name].ravel())
                _stamp(path, cfg)
                # per (age, year): the period row, then the cohort row
                path = os.path.join(out, f"life_expectancy_{name}_{c}_{g}.csv")
                _write_table(path, "kind,age,year,value",
                             np.tile(["period", "cohort"], nle * nt),
                             np.repeat(fs.le_ages, 2 * nt), np.tile(np.repeat(fs.years, 2), nle),
                             np.stack([fs.e_period[name], fs.e_cohort[name]], axis=-1).ravel())
                _stamp(path, cfg)


def _read_le_at_birth(path, year):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split(",")
            if parts[0] == "period" and parts[1] == "0" and parts[2] == str(year):
                return float(parts[3])
    raise IngestError(f"{path}: no period life expectancy at birth for {year}")


def stage_report(cfg, out):
    names = [s.name for s in af.standard_scenarios(0.0)]
    path = os.path.join(out, "report.csv")
    final_year = 2021 + cfg.horizon
    rows = []
    for c in cfg.countries:
        for g in ds.GENDERS:
            layer = ds.load_model(_require(_covid_path(out, c, g), "calibrate-covid"))
            if layer.X is None:
                raise IngestError(f"covid layer for {c}/{g} has no annual effects: "
                                  "run annualize first")
            base_path = _require(
                os.path.join(out, f"life_expectancy_completely_incidental_{c}_{g}.csv"),
                "forecast",
            )
            base_le = _read_le_at_birth(base_path, final_year)
            deltas = []
            for n in names:
                le = _read_le_at_birth(
                    _require(os.path.join(out, f"life_expectancy_{n}_{c}_{g}.csv"),
                             "forecast"),
                    final_year,
                )
                deltas.append(le - base_le)
            x = {t: layer.X[layer.years.index(t)] for t in layer.years}
            rows.append((c, g, x.get(2020, np.nan), x.get(2021, np.nan), *deltas))
    _write_table(path, "country,gender,X_2020,X_2021," + ",".join(f"dLE_{n}" for n in names),
                 *zip(*rows))
    _stamp(path, cfg)


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


if __name__ == "__main__":
    sys.exit(main())
