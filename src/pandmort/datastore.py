"""Shared domain types, index conventions and CSV serialization.

All model objects are frozen dataclasses; validation is a separate pass that
is re-run whenever an object is loaded from disk.  Model files (`save_model`)
are line-oriented CSV with a ``#schema:<TypeName> v3`` first line followed by
``key,index1,index2,value`` rows, none for what the other rows give, floats
printed with 17 significant digits so that save/load round-trips are exact.
Every other table row is formatted by `format_rows` from its file's row
string, which fixes its float text, and `write_table` writes a header
followed by one or more such row texts, so a caller can format rows that
several files share once; `save_model` writes through it too.  Every input
file, raw or written by an earlier stage, is read by `read_text`.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ValidationError

GENDERS = ("m", "f")
PANDEMIC_YEARS = (2020, 2021)

NORM_TOL = 1e-10
SUM_TOL = 1e-8
CODA_SUM_TOL = 1e-9


@dataclass(frozen=True, order=True)
class AgeIndex:
    """An individual age (low == high) or a contiguous age group."""

    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise ValidationError(f"AgeIndex: low {self.low} > high {self.high}")

    @property
    def is_individual(self):
        return self.low == self.high

    @property
    def ages(self):
        return range(self.low, self.high + 1)

    @property
    def label(self):
        if self.is_individual:
            return str(self.low)
        return f"{self.low}_{self.high}"

    @staticmethod
    def from_label(label):
        parts = label.split("_")
        if len(parts) > 2:
            raise ValueError(f"age label {label!r} has more than two parts")
        return AgeIndex(int(parts[0]), int(parts[-1]))


def check_age_partition(ages):
    """Check that a list of AgeIndex is disjoint and covers a contiguous range."""
    ordered = sorted(ages)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.low != prev.high + 1:
            raise ValidationError(
                f"age groups {prev.label} and {nxt.label} do not tile contiguously"
            )


@dataclass(frozen=True)
class AnnualPanel:
    """Annual deaths/exposures indexed by (country, gender, age, year).

    ``deaths`` and ``exposures`` have shape (ncountries, 2, nages, nyears)
    with gender axis ordered ("m", "f").  Ages and years are contiguous
    integer ranges.
    """

    countries: tuple
    ages: np.ndarray
    years: np.ndarray
    deaths: np.ndarray
    exposures: np.ndarray

    def validate(self):
        shape = (len(self.countries), 2, len(self.ages), len(self.years))
        if self.deaths.shape != shape or self.exposures.shape != shape:
            raise ValidationError(f"AnnualPanel: array shape != {shape}")
        if not (np.isfinite(self.deaths).all() and np.isfinite(self.exposures).all()):
            raise ValidationError("AnnualPanel: non-finite cell")
        if (self.deaths < 0).any() or (self.exposures < 0).any():
            raise ValidationError("AnnualPanel: negative deaths or exposures")
        bad = (self.exposures == 0) & (self.deaths != 0)
        if bad.any():
            raise ValidationError("AnnualPanel: deaths recorded on zero exposure")
        return self

    def country_index(self, c):
        try:
            return self.countries.index(c)
        except ValueError:
            raise KeyError(f"country {c!r} not in panel") from None

    def country(self, c):
        """Return the (2, nages, nyears) deaths/exposures slices for one country."""
        i = self.country_index(c)
        return self.deaths[i], self.exposures[i]

    def aggregate(self):
        """Sum deaths and exposures over countries -> (D, E) of shape (2, nages, nyears)."""
        return self.deaths.sum(axis=0), self.exposures.sum(axis=0)

    def select(self, ages, years):
        """Restrict the panel to the given ages and years."""
        ai = np.isin(self.ages, ages)
        yi = np.isin(self.years, years)
        return replace(
            self,
            ages=self.ages[ai],
            years=self.years[yi],
            deaths=self.deaths[:, :, ai][:, :, :, yi],
            exposures=self.exposures[:, :, ai][:, :, :, yi],
        )

    @staticmethod
    def merge(panels):
        """Combine single-country panels sharing the same age/year grid."""
        return AnnualPanel(
            countries=tuple(c for p in panels for c in p.countries),
            ages=panels[0].ages,
            years=panels[0].years,
            deaths=np.concatenate([p.deaths for p in panels], axis=0),
            exposures=np.concatenate([p.exposures for p in panels], axis=0),
        )


MAX_WEEKS = 53


def weeks_in_iso_year(year):
    """Number of ISO-8601 weeks (52 or 53) in a calendar year."""
    return datetime.date(year, 12, 28).isocalendar()[1]


def week_mask(years):
    """The (nyears, 53) mask of the weeks that exist, in (year, week) order."""
    return np.arange(MAX_WEEKS) < np.array([weeks_in_iso_year(t) for t in years])[:, None]


@dataclass(frozen=True)
class WeeklyPanel:
    """Weekly deaths (and optionally exposures) for one country and gender.

    Deaths and exposures have shape (nages, nyears, 53); weeks beyond year
    t's `weeks_in_iso_year` are NaN-padded.
    """

    country: str
    gender: str
    ages: tuple
    years: tuple
    deaths: np.ndarray
    exposures: np.ndarray = None

    weeks_in_year = property(lambda self: {t: weeks_in_iso_year(t) for t in self.years})

    def validate(self, require_exposures=False):
        """Check the arrays' shapes, then year by year, in the order of
        ``years``, that every cell of the year's ISO weeks holds finite
        non-negative deaths and finite positive exposures.  A failure names
        the first failing year and its first failing check."""
        shape = (len(self.ages), len(self.years), MAX_WEEKS)
        if self.deaths.shape != shape:
            raise ValidationError(f"WeeklyPanel: deaths shape != {shape}")
        if self.exposures is not None and self.exposures.shape != shape:
            raise ValidationError(f"WeeklyPanel: exposures shape != {shape}")
        for j, t in enumerate(self.years):
            w = weeks_in_iso_year(t)
            d = self.deaths[:, j, :w]
            if not np.isfinite(d).all():
                raise ValidationError(f"WeeklyPanel: non-finite deaths in year {t}")
            if (d < 0).any():
                raise ValidationError(f"WeeklyPanel: negative deaths in year {t}")
            if self.exposures is not None:
                e = self.exposures[:, j, :w]
                if not np.isfinite(e).all():
                    raise ValidationError(f"WeeklyPanel: non-finite exposures in year {t}")
                if (e <= 0).any():
                    raise ValidationError(f"WeeklyPanel: non-positive exposure in year {t}")
        if require_exposures and self.exposures is None:
            raise ValidationError("WeeklyPanel: exposures required but missing")
        return self

    def select_years(self, years):
        wanted = set(years)
        keep = [j for j, t in enumerate(self.years) if t in wanted]
        if not keep:
            raise ValidationError("select_years: no overlapping years")
        return replace(
            self,
            years=tuple(self.years[j] for j in keep),
            deaths=self.deaths[:, keep],
            exposures=None if self.exposures is None else self.exposures[:, keep],
        )

    def select_ages(self, low, high):
        """Keep only age indices fully inside [low, high]."""
        keep = [i for i, a in enumerate(self.ages) if a.low >= low and a.high <= high]
        if not keep:
            raise ValidationError(f"select_ages: no age indices inside [{low}, {high}]")
        return replace(
            self,
            ages=tuple(self.ages[i] for i in keep),
            deaths=self.deaths[keep],
            exposures=None if self.exposures is None else self.exposures[keep],
        )


@dataclass(frozen=True)
class BaselineModel:
    """Two-layer multi-population baseline parameters plus time-series fit.

    Per-gender common parameters A, B, K and drift theta; per (country,
    gender) parameters alpha, beta, kappa and drift delta, with its
    t-statistic delta_tstat.  ``sigma`` is the joint innovation covariance of
    the random walks, ordered as in `period_series`.
    """

    countries: tuple
    ages: np.ndarray
    years: np.ndarray
    A: dict
    B: dict
    K: dict
    alpha: dict
    beta: dict
    kappa: dict
    theta: dict
    delta: dict
    delta_tstat: dict
    sigma: np.ndarray

    def validate(self):
        nx, nt = len(self.ages), len(self.years)
        cgs = set(itertools.product(self.countries, GENDERS))
        broken = {"norm": lambda v: abs(np.linalg.norm(v) - 1.0) > NORM_TOL,
                  "sum": lambda v: abs(v.sum()) > SUM_TOL}
        # each field's keys, its vectors' length (None for a scalar field) and the
        # identification constraint each vector keeps (None, or a key of ``broken``)
        for name, keys, n, rule in (
                ("A", GENDERS, nx, None), ("B", GENDERS, nx, "norm"), ("K", GENDERS, nt, "sum"),
                ("theta", GENDERS, None, None), ("alpha", cgs, nx, None), ("beta", cgs, nx, "norm"),
                ("kappa", cgs, nt, "sum"), ("delta", cgs, None, None),
                ("delta_tstat", cgs, None, None)):
            field = getattr(self, name)
            if field.keys() != set(keys):
                raise ValidationError(f"BaselineModel: {name} not keyed by each of its series")
            for key, vec in field.items():
                if n is not None and len(vec) != n:
                    raise ValidationError(f"BaselineModel: {name}[{key}] length != {n}")
                if rule is not None and broken[rule](vec):
                    raise ValidationError(
                        f"BaselineModel: {rule} constraint violated for {name}[{key}]")
        n = len(period_series(self.countries))
        if np.shape(self.sigma) != (n, n):
            raise ValidationError(f"BaselineModel: sigma shape != {(n, n)}")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-12):
            raise ValidationError("BaselineModel: sigma not symmetric")
        eig = np.linalg.eigvalsh(self.sigma)
        if eig.min() < -1e-10 * max(1.0, abs(eig.max())):
            raise ValidationError("BaselineModel: sigma not positive semidefinite")
        return self


def period_series(countries):
    """The period-effect series as (parameter, key) pairs, in the order of
    ``BaselineModel.sigma``: each gender's K, then each (country, gender)'s kappa."""
    return [("K", g) for g in GENDERS] + [("kappa", (c, g)) for c in countries for g in GENDERS]


@dataclass(frozen=True)
class SeasonalEffect:
    """Multiplicative weekly seasonal factor for one country and gender.

    ``phi`` has length 53 (week 53 repeats week 52); ``coeffs`` are the
    ``knots`` periodic-spline coefficients ``phi`` comes from, which a saved
    effect needs and an unsaved one may leave None.
    """

    country: str
    gender: str
    phi: np.ndarray
    knots: int
    coeffs: np.ndarray = None

    def validate(self):
        if len(self.phi) != MAX_WEEKS:
            raise ValidationError("SeasonalEffect: phi must have 53 entries")
        if self.coeffs is not None and len(self.coeffs) != self.knots:
            raise ValidationError("SeasonalEffect: coeffs length != knots")
        if (self.phi <= 0).any():
            raise ValidationError("SeasonalEffect: phi must be strictly positive")
        if abs(self.phi[:52].mean() - 1.0) > SUM_TOL:
            raise ValidationError("SeasonalEffect: mean-one constraint violated")
        return self


@dataclass(frozen=True)
class CovidLayer:
    """Pandemic age effect B and week effect K of one country and gender.

    ``method`` is 1 (no predetermined seasonal effect) or 2 (seasonal effect
    applied before the fit).  ``K`` has shape (nyears, 53), NaN after each
    year's `weeks_in_iso_year` weeks.
    """

    country: str
    gender: str
    ages: tuple
    years: tuple
    method: int
    B: np.ndarray
    K: np.ndarray

    def validate(self):
        if self.method not in (1, 2):
            raise ValidationError("CovidLayer: method must be 1 or 2")
        if len(self.B) != len(self.ages):
            raise ValidationError("CovidLayer: B length != number of age indices")
        if self.K.shape != (len(self.years), MAX_WEEKS):
            raise ValidationError("CovidLayer: K shape mismatch")
        if list(self.years) != sorted(set(self.years)):  # the order a model file keeps
            raise ValidationError("CovidLayer: years not strictly increasing")
        if not np.isnan(self.K[~week_mask(self.years)]).all():
            raise ValidationError("CovidLayer: K not NaN after a year's last week")
        if abs(np.linalg.norm(self.B) - 1.0) > NORM_TOL:
            raise ValidationError("CovidLayer: norm constraint violated for B")
        if self.B.sum() < -NORM_TOL:
            raise ValidationError("CovidLayer: sign convention violated (sum B < 0)")
        return self


@dataclass(frozen=True)
class AnnualEffects:
    """Annual pandemic age effect V and period effect X of one country and
    gender, from its CovidLayer (`annualize`); an X of 0 in every year leaves
    V unidentified, and `annualize` sets it to the uniform unit vector."""

    country: str
    gender: str
    ages: tuple
    years: tuple
    V: np.ndarray
    X: np.ndarray

    def validate(self):
        if (len(self.V), len(self.X)) != (len(self.ages), len(self.years)):
            raise ValidationError("AnnualEffects: V or X length != number of ages or years")
        if list(self.years) != sorted(set(self.years)):  # the order a model file keeps
            raise ValidationError("AnnualEffects: years not strictly increasing")
        if abs(np.linalg.norm(self.V) - 1.0) > NORM_TOL:
            raise ValidationError("AnnualEffects: norm constraint violated for V")
        return self


@dataclass(frozen=True)
class CodaFit:
    """Rank-1 compositional decomposition of one year's weekly death counts."""

    year: int
    gender: str
    ages: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    explained_variance: float

    def validate(self):
        nx = len(self.ages)
        if len(self.alpha) != nx or len(self.beta) != nx:
            raise ValidationError("CodaFit: alpha/beta length != number of ages")
        if abs(self.beta.sum()) > CODA_SUM_TOL:
            raise ValidationError("CodaFit: sum constraint violated for beta")
        if abs(self.kappa.sum()) > CODA_SUM_TOL:
            raise ValidationError("CodaFit: sum constraint violated for kappa")
        if abs(np.linalg.norm(self.beta) - 1.0) > NORM_TOL:
            raise ValidationError("CodaFit: norm constraint violated for beta")
        if not (0.0 <= self.explained_variance <= 1.0 + 1e-12):
            raise ValidationError("CodaFit: explained variance outside [0, 1]")
        return self


@dataclass(frozen=True)
class ScenarioSpec:
    """Geometric convergence path for the annual pandemic period effect."""

    name: str
    x_start: float
    x_infinity: float
    eta: float

    def validate(self):
        if not (0.0 <= self.eta <= 1.0):
            raise ValidationError("ScenarioSpec: eta outside [0, 1]")
        return self


@dataclass(frozen=True)
class ForecastSet:
    """Per-scenario projected forces of mortality and life expectancies.
    ``mu`` maps scenario name to arrays of shape (nages, nyears), whose death
    probabilities are ``q = 1 - exp(-mu)``; life expectancies map scenario
    name to arrays indexed like (len(le_ages), nyears)."""

    ages: np.ndarray
    years: np.ndarray
    le_ages: tuple
    mu: dict
    e_period: dict
    e_cohort: dict

    def validate(self):
        for name, mu in self.mu.items():
            if not np.isfinite(mu).all():
                raise ValidationError(f"ForecastSet: non-finite mu for {name}")
            q = 1.0 - np.exp(-mu)
            if ((q <= 0) & (mu > 0)).any() or (q >= 1).any():
                raise ValidationError(f"ForecastSet: q outside (0, 1) for {name}")
        return self


# ---------------------------------------------------------------------------
# serialization


def _span(text):
    lo, hi = (int(v) for v in text.split(";"))
    return np.arange(lo, hi + 1)


# How a row's value is parsed from, and formatted to, its text.
_REAL = (float, lambda v: "%.17g" % float(v))
_TEXT = (str, str)
_INT = (int, str)
_SPAN = (_span, lambda v: f"{v[0]};{v[-1]}")
_AGE = (AgeIndex.from_label, lambda a: a.label)


def _parsed(parse, text, where):
    try:
        return parse(text)
    except (ValueError, ValidationError):
        raise ParseError(f"{where}: bad value {text!r}") from None


class _Rows:
    """The ``key,index1,index2,value`` rows of one model file, in either
    direction.

    A layout ``layout(r, m)`` describes one model format: it calls ``r.row``
    for each row in file order and builds the model from what the calls
    return.  ``m`` is the model when writing and None when reading, so each
    call passes ``m and <the row's value>``.  Writing, a call writes the
    formatted row and returns the value; reading, it returns the parsed row.
    """

    def __init__(self, rows=None, out=None):
        self.rows = rows  # when reading: {(key, index1, index2): text}, emptied as read
        self.out = out  # when writing: a csv writer

    def row(self, value, key, index1="", index2="", codec=_REAL):
        """The row ``key,index1,index2``."""
        parse, fmt = codec
        row = (key, str(index1), str(index2))
        if self.rows is None:
            self.out.writerow((*row, fmt(value)))
            return value
        if row not in self.rows:
            raise ParseError(f"missing row {','.join(row)}")
        return _parsed(parse, self.rows.pop(row), f"row {','.join(row)}")

    def count(self, value, *keys):
        """How many unread rows have one of ``keys``; ``value`` when writing."""
        return value if self.rows is None else sum(k in keys for k, _, _ in self.rows)

    def indices(self, value, key):
        """The sorted distinct integer index1 values of the unread ``key``
        rows; ``value`` when writing."""
        if self.rows is None:
            return value
        return tuple(sorted({_parsed(int, i1, f"row {key},{i1}")
                             for k, i1, _ in self.rows if k == key}))


# Each layout below is the one description of its model's file format.  No
# group is optional: every row, a baseline's time-series fit and a seasonal
# effect's coef rows included, is always there.


def _baseline_layout(r, m):
    ages = r.row(m and m.ages, "ages", codec=_SPAN)
    years = r.row(m and m.years, "years", codec=_SPAN)
    countries = tuple(r.row(m and m.countries[i], "country", i, codec=_TEXT)
                      for i in range(r.count(m and len(m.countries), "country")))
    A, B, K, theta = {}, {}, {}, {}
    for g in GENDERS:
        A[g], B[g] = np.empty(len(ages)), np.empty(len(ages))
        for i, x in enumerate(ages):
            A[g][i] = r.row(m and m.A[g][i], "A", g, x)
            B[g][i] = r.row(m and m.B[g][i], "B", g, x)
        K[g] = np.array([r.row(m and m.K[g][j], "K", g, t) for j, t in enumerate(years)])
        theta[g] = r.row(m and m.theta[g], "theta", g)
    alpha, beta, kappa, delta, tstat = {}, {}, {}, {}, {}
    for cg in itertools.product(countries, GENDERS):
        key = "|".join(cg)
        alpha[cg], beta[cg] = np.empty(len(ages)), np.empty(len(ages))
        for i, x in enumerate(ages):
            alpha[cg][i] = r.row(m and m.alpha[cg][i], "alpha", key, x)
            beta[cg][i] = r.row(m and m.beta[cg][i], "beta", key, x)
        kappa[cg] = np.array([r.row(m and m.kappa[cg][j], "kappa", key, t)
                              for j, t in enumerate(years)])
        delta[cg] = r.row(m and m.delta[cg], "delta", key)
        tstat[cg] = r.row(m and m.delta_tstat[cg], "delta_tstat", key)
    n = len(period_series(countries))
    sigma = np.array([[r.row(m and m.sigma[i, j], "sigma", i, j) for j in range(n)]
                      for i in range(n)])
    return BaselineModel(
        countries=countries, ages=ages, years=years, A=A, B=B, K=K,
        alpha=alpha, beta=beta, kappa=kappa, theta=theta, delta=delta,
        delta_tstat=tstat, sigma=sigma,
    )


def _seasonal_layout(r, m):
    if m and m.coeffs is None:
        raise ValidationError("SeasonalEffect: spline coefficients missing; cannot save")
    country = r.row(m and m.country, "country", codec=_TEXT)
    gender = r.row(m and m.gender, "gender", codec=_TEXT)
    knots = r.row(m and m.knots, "knots", codec=_INT)
    phi = np.array([r.row(m and m.phi[w - 1], "phi", w) for w in range(1, MAX_WEEKS + 1)])
    coeffs = np.array([r.row(m and m.coeffs[i], "coef", i) for i in range(knots)])
    return SeasonalEffect(country=country, gender=gender, phi=phi, knots=knots, coeffs=coeffs)


def _age_effect(r, m, key):
    """The ``country`` and ``gender`` rows, then an ``age`` and a ``key`` row
    per age index, of a CovidLayer (``B``) or an AnnualEffects (``V``): those
    three fields, and the age effect."""
    country = r.row(m and m.country, "country", codec=_TEXT)
    gender = r.row(m and m.gender, "gender", codec=_TEXT)
    ages, effect = [], []
    for i in range(r.count(m and len(m.ages), "age")):
        ages.append(r.row(m and m.ages[i], "age", i, codec=_AGE))
        effect.append(r.row(m and getattr(m, key)[i], key, i))
    return dict(country=country, gender=gender, ages=tuple(ages)), np.array(effect)


def _covid_layout(r, m):
    owner, B = _age_effect(r, m, "B")
    method = r.row(m and m.method, "method", codec=_INT)
    years = r.indices(m and m.years, "K")
    K = np.full((len(years), MAX_WEEKS), np.nan)
    for j, t in enumerate(years):  # K holds each of the year's ISO weeks
        for w in range(1, _parsed(weeks_in_iso_year, t, f"row K,{t},") + 1):
            K[j, w - 1] = r.row(m and m.K[j, w - 1], "K", t, w)
    return CovidLayer(**owner, years=years, method=method, B=B, K=K)


def _annual_layout(r, m):
    owner, V = _age_effect(r, m, "V")
    years = r.indices(m and m.years, "X")
    X = np.array([r.row(m and m.X[j], "X", t) for j, t in enumerate(years)])
    return AnnualEffects(**owner, years=years, V=V, X=X)


def _coda_layout(r, m):
    year = r.row(m and m.year, "year", codec=_INT)
    gender = r.row(m and m.gender, "gender", codec=_TEXT)
    explained = r.row(m and m.explained_variance, "explained_variance")
    ages = r.row(m and m.ages, "ages", codec=_SPAN)
    alpha, beta = np.empty(len(ages)), np.empty(len(ages))
    for i, x in enumerate(ages):
        alpha[i] = r.row(m and m.alpha[i], "alpha", x)
        beta[i] = r.row(m and m.beta[i], "beta", x)
    n = r.count(m and len(m.kappa), "kappa")
    kappa = np.array([r.row(m and m.kappa[w - 1], "kappa", w) for w in range(1, n + 1)])
    return CodaFit(year=year, gender=gender, ages=ages, alpha=alpha, beta=beta, kappa=kappa,
                   explained_variance=explained)


SCHEMA_VERSION = "v3"  # of every model file; a file of another version is refused
_LAYOUTS = {
    "BaselineModel": _baseline_layout,
    "SeasonalEffect": _seasonal_layout,
    "CovidLayer": _covid_layout,
    "AnnualEffects": _annual_layout,
    "CodaFit": _coda_layout,
}


def save_model(model, path):
    """Validate a model object and write it to ``path`` in the self-describing CSV format."""
    name = type(model).__name__
    if name not in _LAYOUTS:
        raise ParseError(f"no serialization schema for {name}")
    model.validate()
    buf = io.StringIO()
    _LAYOUTS[name](_Rows(out=csv.writer(buf, lineterminator="\n")), model)
    write_table(path, f"#schema:{name} {SCHEMA_VERSION}\nkey,index1,index2,value", buf.getvalue())


def load_model(path):
    """Read a model file, dispatch on its schema line and re-validate.

    A missing, unparsable or unexpected row is a ParseError naming ``path``.
    """
    lines = read_text(path, ParseError).splitlines()
    if not lines or not lines[0].startswith("#schema:"):
        raise ParseError(f"{path}: line 1: missing '#schema:' header")
    schema = lines[0][len("#schema:"):].strip()
    name, _, version = schema.partition(" ")
    if name not in _LAYOUTS or version != SCHEMA_VERSION:
        raise ParseError(f"{path}: line 1: unknown schema {schema!r}")
    if len(lines) < 2 or lines[1] != "key,index1,index2,value":
        raise ParseError(f"{path}: line 2: expected header 'key,index1,index2,value'")
    rows = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            parts = next(csv.reader([line]))
        except csv.Error as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if len(parts) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        key = (parts[0], parts[1], parts[2])
        if key in rows:
            raise ParseError(f"{path}: line {lineno}: duplicate row {key}")
        rows[key] = parts[3]
    try:
        model = _LAYOUTS[name](_Rows(rows), None)
        if rows:
            raise ParseError(f"unexpected row {','.join(next(iter(rows)))}")
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Text files and CSV tables


def read_text(path, error):
    """The text of the UTF-8 file ``path``, with every line ending read as
    ``\\n``; a file that cannot be read or decoded raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def format_rows(row, *columns):
    """The text of one ``row % cells`` line per position of the equal-size
    ``columns``, each flattened in C order to Python values: ``%s`` of a
    float gives its shortest round-trip text, ``%.17g`` 17 digits."""
    cells = zip(*[np.ravel(col).tolist() for col in columns])
    return "".join([row % cell for cell in cells])


def write_table(path, header, *bodies):
    """Write ``header``, then each of the row texts ``bodies`` in turn."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for body in bodies:
            fh.write(body)


_ANNUAL_HEADER = "country,gender,age,year,deaths,exposure"
_WEEKLY_HEADER = "age,year,week,deaths"


def _data_lines(lines, start):
    """The lines after the first ``start`` that are neither blank nor ``#``
    comments, and a function giving the 1-based file line number of the
    k-th of them, for error messages."""
    rows = [line for line in lines[start:] if line.strip() and line[0] != "#"]

    def lineno(k):
        return [n for n, line in enumerate(lines, start=1)
                if n > start and line.strip() and line[0] != "#"][k]

    return rows, lineno


def _read_columns(path, header):
    """Split a CSV table into string columns of its data rows, one per field
    of ``header``.

    Blank lines and ``#`` lines are skipped.  Also returns a function giving
    the 1-based file line number of a data row, for error messages.
    """
    nfields = header.count(",") + 1
    lines = read_text(path, ParseError).splitlines()
    if not lines or lines[0] != header:
        raise ParseError(f"{path}: line 1: unexpected header")
    rows, lineno = _data_lines(lines, 1)
    if set(map(str.count, rows, itertools.repeat(","))) - {nfields - 1}:
        bad = next(k for k, line in enumerate(rows) if line.count(",") != nfields - 1)
        raise ParseError(f"{path}: line {lineno(bad)}: expected {nfields} fields")
    fields = ",".join(rows).split(",") if rows else []
    return [fields[f::nfields] for f in range(nfields)], lineno


def _finite(convert, text):
    """``convert(text)``; a non-finite value is a ValueError too."""
    value = convert(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _numbers(path, col, convert, lineno, error=ParseError):
    """Parse a string column with ``float`` or an int-valued ``convert``; an
    unparsable or non-finite entry raises ``error`` naming its line."""
    dtype = float if convert is float else np.int64
    try:
        values = np.fromiter(map(convert, col), dtype, len(col))
    except (ValueError, OverflowError):
        values = None
    if values is None or not np.isfinite(values).all():
        for k, text in enumerate(col):
            try:
                dtype(_finite(convert, text))
            except (ValueError, OverflowError) as exc:
                raise error(f"{path}: line {lineno(k)}: bad number: {exc}") from None
    return values


def _levels(path, col, lineno, convert=None, error=ParseError):
    """Distinct values of a string column and each row's index among them.

    The values keep their order of first appearance, or with ``convert`` are
    parsed by it as integers and sorted.  Each distinct text is parsed only
    once; a bad one raises ``error`` naming the first row that holds it.
    """
    values = list(dict.fromkeys(col))
    code = {v: i for i, v in enumerate(values)}
    index = np.fromiter(map(code.__getitem__, col), np.intp, len(col))
    if convert is None:
        return values, index
    parsed = _numbers(path, values, convert, lambda i: lineno(int(np.argmax(index == i))), error)
    levels = sorted(set(parsed.tolist()))
    rank = {v: i for i, v in enumerate(levels)}
    remap = np.array([rank[v] for v in parsed.tolist()], dtype=np.intp)
    return np.array(levels, dtype=parsed.dtype), remap[index]


def _check_weeks(path, year, week, lineno, error=ParseError):
    """Raise ``error`` naming the first row whose ``year`` `datetime` cannot
    represent, or else whose ``week`` is not one of the year's ISO weeks."""
    unknown = (year < 1) | (year > 9999)
    if unknown.any():
        k = int(np.argmax(unknown))
        raise error(f"{path}: line {lineno(k)}: year {year[k]} outside 1..9999")
    levels, index = np.unique(year, return_inverse=True)
    last = np.array([weeks_in_iso_year(t) for t in levels.tolist()], dtype=np.int64)[index]
    bad = (week < 1) | (week > last)
    if bad.any():
        k = int(np.argmax(bad))
        raise error(f"{path}: line {lineno(k)}: week {week[k]} outside 1..{last[k]}, "
                    f"the weeks of ISO year {year[k]}")


def _check_cells(path, flat, expected, describe, error=ParseError):
    """Raise ``error`` unless the rows' flat cell indices hit every expected
    cell exactly once; ``describe`` names a cell from its array index."""
    hits = np.bincount(flat, minlength=expected.size).reshape(expected.shape)
    for what, mask in (("duplicate", hits > 1), ("missing", expected & (hits == 0))):
        if mask.any():
            cell = np.unravel_index(int(np.argmax(mask)), mask.shape)
            raise error(f"{path}: {what} {describe(*map(int, cell))}")


def write_annual_panel_csv(panel, path):
    keys = np.meshgrid(panel.countries, GENDERS, panel.ages, panel.years, indexing="ij")
    write_table(path, _ANNUAL_HEADER, format_rows("%s,%s,%s,%s,%.17g,%.17g\n",
                                                  *keys, panel.deaths, panel.exposures))


def read_annual_panel_csv(path):
    (c_col, g_col, a_col, t_col, d_col, e_col), lineno = _read_columns(path, _ANNUAL_HEADER)
    countries, ci = _levels(path, c_col, lineno)
    genders, gi = _levels(path, g_col, lineno)
    unknown = [g for g in genders if g not in GENDERS]
    if unknown:
        raise ParseError(f"{path}: line {lineno(g_col.index(unknown[0]))}: "
                         f"unknown gender {unknown[0]!r}")
    gi = np.array([GENDERS.index(g) for g in genders], dtype=np.intp)[gi]
    ages, ai = _levels(path, a_col, lineno, int)
    years, ti = _levels(path, t_col, lineno, int)
    shape = (len(countries), len(GENDERS), len(ages), len(years))
    flat = np.ravel_multi_index((ci, gi, ai, ti), shape)
    _check_cells(path, flat, np.ones(shape, dtype=bool), lambda c, g, x, t:
                 f"cell {(countries[c], GENDERS[g], int(ages[x]), int(years[t]))}")
    deaths = np.empty(shape)
    expos = np.empty(shape)
    deaths.flat[flat] = _numbers(path, d_col, float, lineno)
    expos.flat[flat] = _numbers(path, e_col, float, lineno)
    return AnnualPanel(countries=tuple(countries), ages=ages, years=years, deaths=deaths,
                       exposures=expos).validate()


def write_weekly_panel_csv(panel, path):
    """Write a panel's deaths; its exposures, rebuilt from snapshots, are not stored."""
    used = np.broadcast_to(week_mask(panel.years), panel.deaths.shape)
    a, t, w = np.nonzero(used)
    labels, years = np.array([x.label for x in panel.ages]), np.asarray(panel.years)
    write_table(path, _WEEKLY_HEADER, format_rows("%s,%s,%s,%.17g\n", labels[a], years[t],
                                                  w + 1, panel.deaths[used]))


def read_weekly_panel_csv(path, country, gender):
    (a_col, t_col, w_col, d_col), lineno = _read_columns(path, _WEEKLY_HEADER)
    labels, ai = _levels(path, a_col, lineno)
    ages = []
    for i, label in enumerate(labels):
        try:
            ages.append(AgeIndex.from_label(label))
        except (ValueError, ValidationError):
            k = int(np.argmax(ai == i))
            raise ParseError(f"{path}: line {lineno(k)}: bad age label {label!r}") from None
    years, ti = _levels(path, t_col, lineno, int)
    week_levels, wi = _levels(path, w_col, lineno, int)
    _check_weeks(path, years[ti], week_levels[wi], lineno)
    years = tuple(years.tolist())
    shape = (len(labels), len(years), MAX_WEEKS)
    flat = np.ravel_multi_index((ai, ti, week_levels[wi] - 1), shape)
    _check_cells(path, flat, np.broadcast_to(week_mask(years), shape),
                 lambda i, j, w: f"cell age {labels[i]}, year {years[j]}, week {w + 1}")
    deaths = np.full(shape, np.nan)
    deaths.flat[flat] = _numbers(path, d_col, float, lineno)
    return WeeklyPanel(country=country, gender=gender, ages=tuple(ages), years=years,
                       deaths=deaths).validate()
