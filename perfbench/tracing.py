"""Span tracing of pandmort from outside the package.

The tracer wraps public functions of the ``pandmort`` modules and the stage
functions in ``pandmort.cli.STAGES``.  Each wrapped call records a span
``[name, start, end, parent, attrs]`` in memory; the spans are summarised
into per-layer metrics (self time, call counts, solver iterations and bytes
computed from file sizes) once the traced pass is over.  Nothing under
``src/`` changes.

Run as a script it executes one traced ``pandmort`` CLI invocation::

    python3 perfbench/tracing.py SPANS.json run-all --config run.ini --out out

and writes the import time, the spans and the exit code to ``SPANS.json``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# (module, function) -> (layer, time metric, count metric, path arguments).
# The path arguments name files whose sizes count as that layer's bytes.
WRAPPED = {
    ("datastore", "read_annual_panel_csv"): ("datastore", "read_s", "reads", (0,)),
    ("datastore", "read_weekly_panel_csv"): ("datastore", "read_s", "reads", (0,)),
    ("datastore", "load_model"): ("datastore", "read_s", "reads", (0,)),
    ("datastore", "write_annual_panel_csv"): ("datastore", "write_s", "writes", (1,)),
    ("datastore", "write_weekly_panel_csv"): ("datastore", "write_s", "writes", (1,)),
    ("datastore", "save_model"): ("datastore", "write_s", "writes", (1,)),
    ("ingest", "parse_hmd_annual"): ("ingest", "parse_s", "calls", (0, 1)),
    ("ingest", "parse_stmf"): ("ingest", "parse_s", "calls", (0,)),
    ("ingest", "parse_population"): ("ingest", "parse_s", "calls", (0,)),
    ("exposures", "disaggregate_deaths"): ("exposures", "reconstruct_s", None, ()),
    ("exposures", "cohort_deaths"): ("exposures", "reconstruct_s", None, ()),
    ("exposures", "project_population"): ("exposures", "reconstruct_s", None, ()),
    ("exposures", "weekly_exposures_from_projection"): ("exposures", "reconstruct_s", None, ()),
    ("seasonal", "weekly_fractions"): ("seasonal", "fit_s", None, ()),
    ("seasonal", "fit_seasonal_spline"): ("seasonal", "fit_s", None, ()),
    ("coda", "coda_fit"): ("coda", "fit_s", None, ()),
    ("baseline", "calibrate_baseline"): ("baseline", "fit_s", None, ()),
    # Attributed to covid_layer when called under calibrate_covid.
    ("baseline", "fit_bilinear_poisson"): ("baseline", "fit_s", "fits", ()),
    ("covid_layer", "calibrate_covid"): ("covid_layer", "fit_s", "fits", ()),
    ("covid_layer", "group_baseline_mu"): ("covid_layer", "predict_s", None, ()),
    ("covid_layer", "predicted_deaths"): ("covid_layer", "predict_s", None, ()),
    ("annualize_forecast", "annualize"): ("annualize_forecast", "annualize_s", None, ()),
    ("annualize_forecast", "standard_scenarios"): ("annualize_forecast", "forecast_s", None, ()),
    ("annualize_forecast", "forecast_scenarios"): ("annualize_forecast", "forecast_s", None, ()),
    ("annualize_forecast", "life_expectancy"): ("annualize_forecast", "le_s", "le_calls", ()),
}
# Counted without a span, so their time stays with the caller's layer.
COUNTED = {("baseline", "baseline_mu"): "baseline.mu_calls"}

STAGE_NAMES = ("ingest", "calibrate-baseline", "fit-seasonal", "calibrate-covid", "coda",
               "annualize", "forecast", "report")

# Every per-layer metric with its unit, in report order.
LAYER_METRICS = (
    [("cli.import_s", "s"), ("cli.self_s", "s")]
    + [(f"cli.{s.replace('-', '_')}_s", "s") for s in STAGE_NAMES]
    + [("cli.bytes_written", "bytes")]
    + [("datastore.read_s", "s"), ("datastore.write_s", "s"), ("datastore.reads", "count"),
       ("datastore.writes", "count"), ("datastore.bytes_read", "bytes"),
       ("datastore.bytes_written", "bytes"),
       ("ingest.parse_s", "s"), ("ingest.calls", "count"), ("ingest.bytes_read", "bytes"),
       ("exposures.reconstruct_s", "s"), ("seasonal.fit_s", "s"), ("coda.fit_s", "s"),
       ("baseline.fit_s", "s"), ("baseline.fits", "count"), ("baseline.iterations", "count"),
       ("baseline.mu_calls", "count"),
       ("covid_layer.fit_s", "s"), ("covid_layer.fits", "count"),
       ("covid_layer.iterations", "count"), ("covid_layer.predict_s", "s"),
       ("annualize_forecast.annualize_s", "s"), ("annualize_forecast.forecast_s", "s"),
       ("annualize_forecast.le_s", "s"), ("annualize_forecast.le_calls", "count"),
       ("trace.overhead", "ratio")]
)
# Metrics that must repeat exactly for the same seed.
EXACT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "bytes"))


class Tracer:
    """Records spans around wrapped pandmort calls while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _span(self, name, fn, path_args=()):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if path_args:
                span[4]["bytes"] = sum(os.path.getsize(args[i]) for i in path_args)
            if name == "baseline.fit_bilinear_poisson":
                span[4]["iterations"] = result[3][-1][0]
            return result
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every pandmort namespace
        that bound it, including names imported with ``from ... import``."""
        for modname, mod in list(sys.modules.items()):
            if modname == "pandmort" or modname.startswith("pandmort."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)
                        self._undo.append((mod, attr, original))

    def install(self):
        import importlib

        for (modname, func), (_, _, _, path_args) in WRAPPED.items():
            original = getattr(importlib.import_module(f"pandmort.{modname}"), func)
            self._patch(original, self._span(f"{modname}.{func}", original, path_args))
        for (modname, func), key in COUNTED.items():
            original = getattr(importlib.import_module(f"pandmort.{modname}"), func)
            self._patch(original, self._counted(key, original))
        cli = sys.modules.get("pandmort.cli")
        if cli is not None:
            for stage, fn in list(cli.STAGES.items()):
                cli.STAGES[stage] = self._span(f"cli.{stage}", fn)
                self._undo.append((cli.STAGES, stage, fn))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()


def layer_metrics(spans, counts):
    """Per-layer metrics from one traced pass: self time per layer (a span's
    duration minus the time its child spans cover), calls, iterations and
    computed bytes.  Metrics the pass never touched read 0."""
    out = {name: 0 for name, _ in LAYER_METRICS if name != "trace.overhead"}
    out.update(counts)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_of = []
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name.startswith("cli."):
            layer_of.append("cli")
            stage = name[4:].replace("-", "_")
            out[f"cli.{stage}_s"] += end - start
            out["cli.self_s"] += end - start - child_time[i]
            continue
        modname, func = name.split(".")
        layer, time_metric, count_metric, path_args = WRAPPED[(modname, func)]
        if func == "fit_bilinear_poisson" and parent >= 0 and layer_of[parent] == "covid_layer":
            layer, count_metric = "covid_layer", None
        layer_of.append(layer)
        out[f"{layer}.{time_metric}"] += end - start - child_time[i]
        if count_metric:
            out[f"{layer}.{count_metric}"] += 1
        if "iterations" in attrs:
            out[f"{layer}.iterations"] += attrs["iterations"]
        if path_args:
            kind = "bytes_written" if time_metric == "write_s" else "bytes_read"
            out[f"{layer}.{kind}"] += attrs.get("bytes", 0)  # none if the call raised
    return out


def main(argv):
    """Run one traced pandmort CLI invocation; write spans to ``argv[0]``."""
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import pandmort.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "rc": rc, "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
