"""Command-line pipeline driver.

Stages (each reads prior-stage outputs from the run directory and writes its
own): ingest, calibrate-baseline, fit-seasonal, calibrate-covid, coda,
annualize, forecast, report.  ``synth`` generates the bundled synthetic raw
dataset.  Exit codes: 0 ok, 2 config error, 3 data error or failed write,
4 numerical failure.  A floating-point overflow, invalid operation or
division by zero in a stage is an error: 3 if it comes from reading a
run-directory file, else 4.  Every stage appends the configuration hash to
its outputs, and a machine-readable error record, ``error.json``, is written
on failure; each command first removes the one an earlier command left.

Every output file is written to the run directory.  Within one ``main``
call the objects a stage wrote are also kept in memory, so ``run-all``
hands them on to later stages without parsing the files again (they are
re-validated and their arrays are read-only); a stage run on its own reads
its inputs from the run directory.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
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
from .datastore import PANDEMIC_YEARS
from .errors import (ConfigError, IngestError, NumericalError, PandmortError, ParseError,
                     ValidationError)

log = logging.getLogger("pandmort")


def _write_text(cfg, out, kind, header, *bodies, **key):
    """`ds.write_table` of the row texts ``bodies`` to the ``kind`` file for
    ``key``, then the config stamp."""
    path = _path(out, kind, **key)
    _stamped(cfg, path, lambda: ds.write_table(path, header, *bodies))


def _write_table(cfg, out, kind, header, *columns, **key):
    """`_write_text` of ``columns``, every cell as its ``str`` (a float's
    shortest round-trip text)."""
    row = ",".join(["%s"] * (header.count(",") + 1)) + "\n"
    _write_text(cfg, out, kind, header, ds.format_rows(row, *columns), **key)


def _range(text):
    """The inclusive range ``lo:hi`` as ``(lo, hi)``."""
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


_ORDERED = (lambda v: v[0] <= v[1], "{key} must run from low to high, got {v[0]}:{v[1]}")
# Every config key, by section: key -> (its default INI text, or None if it
# is required; the parser of that text; then its checks on the parsed value
# ``v``, each a predicate and the message, over ``key``, ``v`` and the raw
# ``text``, of the ConfigError raised when it fails).  A ``[run]`` key is the
# RunConfig attribute of its name, a key of another section ``<section>_<key>``.
CONFIG_KEYS = {
    "data": {"dir": (None, str)},
    "run": {
        "countries": (None, lambda text: tuple(c.strip() for c in text.split(",")),
                      (lambda v: "" not in v and len(set(v)) == len(v),
                       "countries must be distinct non-empty codes, got {text!r}")),
        "years": ("1970:2019", _range, _ORDERED,
                  (lambda v: v[1] - v[0] + 1 >= bl.MIN_YEARS,
                   f"years must span at least {bl.MIN_YEARS} years, got {{v[0]}}:{{v[1]}}")),
        "ages": ("0:90", _range, _ORDERED,
                 (lambda v: v[0] == 0, "ages must start at 0, got {v[0]}: the forecast and "
                                       "report need life expectancy at birth"),
                 (lambda v: v[1] <= ig.TOP_AGE,
                  f"ages must end at {ig.TOP_AGE} or below, got {{v[1]}}"),
                 (lambda v: v[1] > af.EXTRAP_AGES[0],
                  "ages must end above {0}, got {{v[1]}}: the forecast extrapolates ln(mu) "
                  "to older ages from the ages {0}:{1}".format(*af.EXTRAP_AGES))),
        "covid_ages": ("40:90", _range, _ORDERED),
        "seasonal_years": ("2010:2019", _range, _ORDERED,
                           (lambda v: v[0] > PANDEMIC_YEARS[-1] or v[1] < PANDEMIC_YEARS[0],
                            "seasonal_years {v[0]}:{v[1]} overlaps the pandemic years "
                            f"{PANDEMIC_YEARS[0]}:{PANDEMIC_YEARS[-1]}, whose waves would "
                            "enter the seasonal curve")),
        "hist_years": ("2015:2019", _range, _ORDERED),
        "method": ("2", int, (lambda v: v in (1, 2), "method must be 1 or 2, got {v}")),
        "knots": (str(se.DEFAULT_KNOTS), int,  # spline coefficients fitted to the weekly averages
                  (lambda v: v >= 4, "knots must be at least 4, got {v}"),
                  (lambda v: v <= se.PERIOD, f"knots must be at most {se.PERIOD:g}, got {{v}}")),
        "eta": ("0.5", float, (lambda v: 0.0 <= v <= 1.0, "eta must lie in [0, 1], got {v}")),
        "horizon": ("30", int, (lambda v: v >= 1, "horizon must be at least 1, got {v}")),
        "seed": ("1234", int),
    },
}


class RunConfig:
    """Parsed and validated run configuration (INI key-value format): one
    attribute per key of `CONFIG_KEYS`, and ``hash``, the stamp of its text."""

    def __init__(self, path):
        text = ds.read_text(path, ConfigError)
        self.hash = hashlib.sha256(text.encode()).hexdigest()[:16]
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=path)
            for name in parser.sections():
                if name not in CONFIG_KEYS:
                    raise ConfigError(f"unknown section [{name}]")
            for name, keys in CONFIG_KEYS.items():
                section = parser[name]
                for key in section:
                    if key not in keys:
                        raise ConfigError(f"unknown key {key!r} in [{name}]")
                for key, (default, parse, *checks) in keys.items():
                    raw = section[key] if default is None else section.get(key, default)
                    value = parse(raw)
                    for ok, message in checks:
                        if not ok(value):
                            raise ConfigError(message.format(key=key, v=value, text=raw))
                    setattr(self, key if name == "run" else f"{name}_{key}", value)
        except (KeyError, ValueError, configparser.Error) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
        if not (self.ages[0] <= self.covid_ages[0] <= self.covid_ages[1] <= self.ages[1]):
            raise ConfigError("covid_ages must lie inside the baseline age range")
        (h0, h1), (y0, y1) = self.hist_years, self.years
        if h1 < y0 or h0 > y1:
            raise ConfigError(f"hist_years {h0}:{h1} shares no year with years {y0}:{y1}")


def _stamped(cfg, path, write):
    """Call ``write()``, which writes ``path``, then append the config stamp;
    a failed write is a ParseError naming the file."""
    try:
        write()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"#confighash:{cfg.hash}\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _has_no(what, missing):
    """The phrase naming the ``missing`` items of ``what``, or None."""
    return f"has no {what} for {', '.join(missing)}" if missing else None


def _annual_lacks(cfg, panel):
    """Each configured country the annual panel lacks, then its first missing
    age 0 to ``ig.TOP_AGE`` (disaggregating the weekly 90_110 group needs
    them all) and its first missing configured year."""
    ages, years = set(panel.ages.tolist()), set(panel.years.tolist())
    return _has_no("data", [f"country {c}" for c in cfg.countries if c not in panel.countries]
                   + [f"age {x}" for x in range(ig.TOP_AGE + 1) if x not in ages][:1]
                   + [f"year {t}" for t in range(cfg.years[0], cfg.years[1] + 1)
                      if t not in years][:1])


def _pandemic_lacks(cfg, model):
    """Unless the covid layer or annual effects hold exactly the pandemic
    years and the configured covid_ages, the phrase saying so."""
    lo, hi = cfg.covid_ages
    if (model.years, model.ages) != (
            PANDEMIC_YEARS, tuple(ds.AgeIndex(x, x) for x in range(lo, hi + 1))):
        return (f"does not hold the pandemic years {PANDEMIC_YEARS[0]}:{PANDEMIC_YEARS[-1]} "
                f"and covid_ages {lo}:{hi}")


def _population_lacks(cfg, snaps):
    """Each sex without the snapshot the weekly exposures are projected from."""
    held = {s.gender for s in snaps if s.date == (PANDEMIC_YEARS[0], 1, 1)}
    return _has_no(f"{PANDEMIC_YEARS[0]}-01-01 population snapshot",
                   [f"sex {g}" for g in ds.GENDERS if g not in held])


# Every file the stages write to the run directory, by kind: its name pattern
# over the fields country ``c``, gender ``g``, year ``t`` and scenario
# ``name``, the one stage that writes it, and None or the rule ``(cfg, obj)
# -> phrase or None`` naming what its object lacks for the config.
FILES = {
    "annual": ("annual_panel.csv", "ingest", _annual_lacks),
    "weekly": ("weekly_{c}_{g}.csv", "ingest", lambda cfg, wp: _has_no(
        "data", [f"year {t}" for t in PANDEMIC_YEARS if t not in wp.years][:1])),
    "population": ("population_{c}.csv", "ingest", _population_lacks),
    "baseline": ("baseline_model.csv", "calibrate-baseline", lambda cfg, model: _has_no(
        "baseline", [c for c in cfg.countries if c not in model.countries])),
    "iterations": ("baseline_iterations.csv", "calibrate-baseline", None),
    "seasonal": ("seasonal_{c}_{g}.csv", "fit-seasonal", None),
    "covid": ("covid_{c}_{g}.csv", "calibrate-covid", _pandemic_lacks),
    "covid_fit": ("covid_fit_{c}_{g}.csv", "calibrate-covid", None),
    "coda": ("coda_{t}_{g}.csv", "coda", None),
    "annual_effects": ("annual_effects_{c}_{g}.csv", "annualize", _pandemic_lacks),
    "forecast": ("forecast_{name}_{c}_{g}.csv", "forecast", None),
    "life_expectancy": ("life_expectancy_{name}_{c}_{g}.csv", "forecast", None),
    "report": ("report.csv", "report", None),
}


def _path(out, kind, **key):
    return os.path.join(out, FILES[kind][0].format(**key))


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


def _write(cfg, out, kind, obj, writer, **key):
    """Write ``obj`` to the ``kind`` file for ``key`` with ``writer(obj,
    path)``, stamp the file, and keep ``obj``, frozen, as what it holds."""
    path = _path(out, kind, **key)
    _memo.pop(path, None)
    _stamped(cfg, path, lambda: writer(obj, path))
    _freeze(obj)
    _memo[path] = obj


def _read(cfg, out, kind, reader, *args, **key):
    """The object in the ``kind`` file for ``key``: the one this process
    wrote there, re-validated, or else ``reader(path, *args)``, whose object
    failing its checks, or meeting a floating-point fault in them, is a
    ParseError naming the file, as is one that lacks what the file's rule in
    `FILES` asks of it for ``cfg``."""
    path = _path(out, kind, **key)
    if not os.path.exists(path):
        raise IngestError(f"missing {os.path.basename(path)}: run {FILES[kind][1]} first")
    if path in _memo:
        obj = _memo[path]
        for item in obj if isinstance(obj, list) else (obj,):
            item.validate()
    else:
        try:
            obj = reader(path, *args)
        except (ValidationError, FloatingPointError) as exc:
            raise ParseError(f"{path}: {exc}") from None
    _, stage, rule = FILES[kind]
    phrase = rule and rule(cfg, obj)
    if phrase:
        raise ParseError(f"{path} {phrase}: rerun {stage}")
    return obj


def _write_population(snaps, path):
    sizes = [len(s.ages) for s in snaps]
    ds.write_table(path, "date,age,sex,count", ds.format_rows(
        "%s,%s,%s,%s\n",
        np.repeat(["%04d-%02d-%02d" % s.date for s in snaps], sizes),
        np.concatenate([s.ages for s in snaps]),
        np.repeat([s.gender for s in snaps], sizes),
        np.concatenate([s.counts for s in snaps]),
    ))


def _refuse_raw(cfg, kind, obj, raw, of):
    """An IngestError naming the raw file ``raw`` if ``obj``, parsed from it
    for ``of``, lacks what the rule of the ``kind`` file asks of it."""
    phrase = FILES[kind][2](cfg, obj)
    if phrase:
        raise IngestError(f"{raw}: {of} {phrase}")


def stage_ingest(cfg, out):
    panels = [ig.parse_hmd_annual(ig.raw_path(cfg.data_dir, "deaths", c),
                                  ig.raw_path(cfg.data_dir, "exposures", c), c,
                                  range(cfg.years[0], cfg.years[1] + 1), range(0, ig.TOP_AGE + 1))
              for c in cfg.countries]
    _write(cfg, out, "annual", ds.AnnualPanel.merge(panels), ds.write_annual_panel_csv)

    raw = ig.raw_path(cfg.data_dir, "weekly")
    weekly = ig.parse_stmf_countries(raw, cfg.countries)
    for c, per_gender in weekly.items():
        for g, wp in per_gender.items():
            _refuse_raw(cfg, "weekly", wp, raw, f"{c}/{g}")
            _write(cfg, out, "weekly", wp, ds.write_weekly_panel_csv, c=c, g=g)
    for c in cfg.countries:
        raw = ig.raw_path(cfg.data_dir, "population", c)
        snaps = ig.parse_population(raw)
        _refuse_raw(cfg, "population", snaps, raw, c)
        _write(cfg, out, "population", snaps, _write_population, c=c)
    log.info("ingest: wrote panels for %s", ", ".join(cfg.countries))


def stage_calibrate_baseline(cfg, out):
    panel = _read(cfg, out, "annual", ds.read_annual_panel_csv).select(
        ages=np.arange(cfg.ages[0], cfg.ages[1] + 1),
        years=np.arange(cfg.years[0], cfg.years[1] + 1),
    )
    traces = {}
    model = bl.calibrate_baseline(panel, traces=traces)
    _write(cfg, out, "baseline", model, ds.save_model)
    rows = [(stage, g, it, lnl, change)
            for (stage, g), trace in traces.items() for it, lnl, change in trace]
    _write_table(cfg, out, "iterations", "stage,gender,iteration,lnl,max_change", *zip(*rows))


def stage_fit_seasonal(cfg, out):
    y0, y1 = cfg.seasonal_years
    for c in cfg.countries:
        for g in ds.GENDERS:
            wp = _read(cfg, out, "weekly", ds.read_weekly_panel_csv, c, g, c=c, g=g)
            shared = sum(y0 <= t <= y1 for t in wp.years)
            if shared < 2:
                have = "no year" if shared == 0 else "only 1 of the 2 years it needs"
                raise ConfigError(f"seasonal_years {y0}:{y1} shares {have} with the weekly data "
                                  f"of {c}/{g}, which holds {min(wp.years)}:{max(wp.years)}")
            fractions = se.weekly_fractions(wp.select_years(range(y0, y1 + 1)))
            eff = se.fit_seasonal_spline(fractions, country=c, gender=g, knots=cfg.knots)
            _write(cfg, out, "seasonal", eff, ds.save_model, c=c, g=g)


def _pandemic_deaths(cfg, out, c, g, historical):
    """The weekly deaths of ``c``/``g`` in the pandemic years, disaggregated
    to individual ages with the age shares of ``hist_years``."""
    wp = _read(cfg, out, "weekly", ds.read_weekly_panel_csv, c, g, c=c, g=g)
    return ex.disaggregate_deaths(wp.select_years(PANDEMIC_YEARS), historical,
                                  range(cfg.hist_years[0], cfg.hist_years[1] + 1))


def _reconstruct_weekly(cfg, out, c, g, historical):
    """Disaggregated pandemic-year deaths plus weekly exposures projected
    from the 1 January snapshot of the first pandemic year."""
    indiv = _pandemic_deaths(cfg, out, c, g, historical)
    start = next(s for s in _read(cfg, out, "population", ig.parse_population, c=c)
                 if s.gender == g and s.date == (PANDEMIC_YEARS[0], 1, 1))
    if not np.array_equal(start.ages, [a.low for a in indiv.ages]):
        raise IngestError(f"{_path(out, 'population', c=c)}: population ages do not match "
                          f"weekly panel ages for {c}/{g}")
    pop = start.counts
    expos = np.full_like(indiv.deaths, np.nan)
    for j, t in enumerate(indiv.years):
        wt = ds.weeks_in_iso_year(t)
        proj = ex.project_population(pop, ex.cohort_deaths(indiv.deaths[:, j, :wt]))
        expos[:, j, :wt] = ex.weekly_exposures_from_projection(proj, wt)
        pop = proj[:, -1]
    return replace(indiv, exposures=expos)


def stage_calibrate_covid(cfg, out):
    model = _read(cfg, out, "baseline", ds.load_model)
    historical = _read(cfg, out, "annual", ds.read_annual_panel_csv)
    lo, hi = cfg.covid_ages
    for c in cfg.countries:
        for g in ds.GENDERS:
            seasonal = None
            if cfg.method == 2:
                seasonal = _read(cfg, out, "seasonal", ds.load_model, c=c, g=g)
            full = _reconstruct_weekly(cfg, out, c, g, historical)
            work = full.select_ages(lo, hi)
            mu = cl.group_baseline_mu(model, c, g, work.ages, work.years)
            pred = cl.predicted_deaths(work, mu, seasonal=seasonal, method=cfg.method)
            layer = cl.calibrate_covid(work, pred, cfg.method)
            _write(cfg, out, "covid", layer, ds.save_model, c=c, g=g)
            # (year, week) rows in file order, ages along the last axis
            used = ds.week_mask(work.years)
            obs = np.moveaxis(work.deaths, 0, -1)[used]
            base = np.moveaxis(pred, 0, -1)[used]
            fitted = base * np.exp(layer.B * layer.K[used][:, None])
            year_idx, week_idx = np.nonzero(used)
            _write_table(cfg, out, "covid_fit", "year,week,observed,predicted,fitted",
                         np.asarray(work.years)[year_idx], week_idx + 1,
                         obs.sum(axis=1), base.sum(axis=1), fitted.sum(axis=1), c=c, g=g)


def stage_coda(cfg, out):
    historical = _read(cfg, out, "annual", ds.read_annual_panel_csv)
    c = cfg.countries[0]
    for g in ds.GENDERS:
        indiv = _pandemic_deaths(cfg, out, c, g, historical).select_ages(0, 98)
        ages = np.array([a.low for a in indiv.ages])
        for j, t in enumerate(indiv.years):
            d = indiv.deaths[:, j, :ds.weeks_in_iso_year(t)]
            fit = coda_mod.coda_fit(d, ages, t, g)
            _write(cfg, out, "coda", fit, ds.save_model, t=t, g=g)


def stage_annualize(cfg, out):
    model = _read(cfg, out, "baseline", ds.load_model)
    for c in cfg.countries:
        for g in ds.GENDERS:
            layer = _read(cfg, out, "covid", ds.load_model, c=c, g=g)
            phi = (_read(cfg, out, "seasonal", ds.load_model, c=c, g=g).phi if layer.method == 2
                   else np.ones(ds.MAX_WEEKS))
            mu = cl.group_baseline_mu(model, c, g, layer.ages, layer.years)
            _write(cfg, out, "annual_effects", af.annualize(layer, phi, mu), ds.save_model,
                   c=c, g=g)


def _same_bits(arrays):
    """Per position, whether all the equal-size float64 vectors ``arrays``
    hold the same bit pattern there (so -0.0 and 0.0 differ, as do NaNs
    with different bits)."""
    bits = np.stack(list(arrays)).view(np.uint64)
    return (bits == bits[0]).all(axis=0)


def _write_forecasts(cfg, out, fs, c, g):
    """Write each scenario's ``forecast`` table of mu and q = 1 - exp(-mu).

    The ``age,year,`` key of every row, and the leading rows whose mu has the
    same bits in all scenarios (the ages below the pandemic layer's), are
    formatted once; each file is written from that text and its own rows.
    """
    nx, nt = len(fs.ages), len(fs.years)
    keys = np.array(["%s,%s," % k for k in zip(np.repeat(fs.ages, nt).tolist(),
                                               np.tile(fs.years, nx).tolist())])
    mu = {name: m.ravel() for name, m in fs.mu.items()}
    q = {name: 1.0 - np.exp(-m) for name, m in mu.items()}
    shared = _same_bits(mu.values())
    n = nx * nt if shared.all() else int(shared.argmin())  # rows [0, n) are shared

    def rows(name, part):
        return ds.format_rows("%s%s,%s\n", keys[part], mu[name][part], q[name][part])

    head = rows(next(iter(mu)), slice(0, n))
    for name in mu:
        _write_text(cfg, out, "forecast", "age,year,mu,q", head, rows(name, slice(n, None)),
                    name=name, c=c, g=g)


def _forecast(cfg, model, eff, c, g):
    """The ``cfg`` scenarios of ``c``/``g`` forecast from ``model`` and the
    annual effects ``eff``, over the ``horizon`` years after the pandemic."""
    scenarios = af.standard_scenarios(float(eff.X[-1]), eta=cfg.eta)
    calib_ages = np.array([a.low for a in eff.ages])
    return af.forecast_scenarios(model, c, g, eff.V, calib_ages, scenarios, eff.years[-1] + 1,
                                 report_years=cfg.horizon)


def stage_forecast(cfg, out):
    model = _read(cfg, out, "baseline", ds.load_model)
    for c in cfg.countries:
        for g in ds.GENDERS:
            eff = _read(cfg, out, "annual_effects", ds.load_model, c=c, g=g)
            fs = _forecast(cfg, model, eff, c, g)
            _write_forecasts(cfg, out, fs, c, g)
            nt, nle = len(fs.years), len(fs.le_ages)
            for name in fs.mu:
                # per (age, year): the period row, then the cohort row
                _write_table(cfg, out, "life_expectancy", "kind,age,year,value",
                             np.tile(["period", "cohort"], nle * nt),
                             np.repeat(fs.le_ages, 2 * nt), np.tile(np.repeat(fs.years, 2), nle),
                             np.stack([fs.e_period[name], fs.e_cohort[name]], axis=-1).ravel(),
                             name=name, c=c, g=g)


def stage_report(cfg, out):
    model = _read(cfg, out, "baseline", ds.load_model)
    at_birth = af.LE_AGES.index(0)
    rows = []
    for c in cfg.countries:
        for g in ds.GENDERS:
            eff = _read(cfg, out, "annual_effects", ds.load_model, c=c, g=g)
            le = {n: e[at_birth, -1] for n, e in _forecast(cfg, model, eff, c, g).e_period.items()}
            rows.append((c, g, *eff.X, *(e - le["completely_incidental"] for e in le.values())))
    _write_table(cfg, out, "report",
                 ",".join(["country,gender", *(f"X_{t}" for t in PANDEMIC_YEARS),
                           *(f"dLE_{n}" for n in le)]),
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


def non_negative_int(text):
    """The argparse type of ``--seed``: NumPy takes no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="pandmort",
                                description="Mortality calibration and forecasting pipeline")
    sub = p.add_subparsers(dest="command", required=True)
    synth = sub.add_parser("synth", help="generate the bundled synthetic raw dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=non_negative_int, default=1234)
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
    stage = args.command
    try:
        with contextlib.suppress(OSError):  # none there, or --out is no directory
            os.remove(os.path.join(args.out, "error.json"))
        if args.command == "synth":
            try:
                synthetic.write_synthetic_dataset(args.out, seed=args.seed)
            except OSError as exc:
                raise ParseError(f"cannot write synthetic data to {args.out}: {exc}") from exc
            return 0
        cfg = RunConfig(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ParseError(f"cannot create output directory {args.out}: {exc}") from exc
        for stage in STAGES if args.command == "run-all" else [args.command]:
            log.info("stage %s", stage)
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    STAGES[stage](cfg, args.out)
            except FloatingPointError as exc:
                raise NumericalError(f"{stage}: {exc}") from exc
        return 0
    except PandmortError as exc:
        log.error("%s", exc)
        _error_record(args.out, stage, exc)
        return exc.exit_code
    finally:
        _memo.clear()


if __name__ == "__main__":
    sys.exit(main())
