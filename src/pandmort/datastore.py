"""Shared domain types, index conventions and parameter-file serialization.

All model objects are frozen dataclasses; validation is a separate pass that
is re-run whenever an object is loaded from disk.  Parameter files are
line-oriented CSV with a ``#schema:<TypeName> v1`` first line followed by
``key,index1,index2,value`` rows, floats printed with 17 significant digits
so that save/load round-trips are exact.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParseError, ValidationError

GENDERS = ("m", "f")

NORM_TOL = 1e-10
SUM_TOL = 1e-8
CODA_SUM_TOL = 1e-9


def _fmt(x):
    return "%.17g" % float(x)


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
        if len(parts) == 1:
            a = int(parts[0])
            return AgeIndex(a, a)
        return AgeIndex(int(parts[0]), int(parts[1]))


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

    def select(self, ages=None, years=None):
        """Restrict the panel to sub-ranges of ages and/or years."""
        ai = slice(None) if ages is None else np.isin(self.ages, ages)
        yi = slice(None) if years is None else np.isin(self.years, years)
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
        first = panels[0]
        for p in panels[1:]:
            if not (np.array_equal(p.ages, first.ages) and np.array_equal(p.years, first.years)):
                raise ValidationError("AnnualPanel.merge: mismatching age/year grids")
        return AnnualPanel(
            countries=tuple(c for p in panels for c in p.countries),
            ages=first.ages,
            years=first.years,
            deaths=np.concatenate([p.deaths for p in panels], axis=0),
            exposures=np.concatenate([p.exposures for p in panels], axis=0),
        )


MAX_WEEKS = 53


@dataclass(frozen=True)
class WeeklyPanel:
    """Weekly deaths (and optionally exposures) for one country and gender.

    Arrays have shape (nages, nyears, 53); weeks beyond ``weeks_in_year[t]``
    are NaN-padded.
    """

    country: str
    gender: str
    ages: tuple
    years: tuple
    weeks_in_year: dict
    deaths: np.ndarray
    exposures: np.ndarray = None

    def validate(self, require_exposures=False):
        shape = (len(self.ages), len(self.years), MAX_WEEKS)
        if self.deaths.shape != shape:
            raise ValidationError(f"WeeklyPanel: deaths shape != {shape}")
        for j, t in enumerate(self.years):
            wt = self.weeks_in_year[t]
            if wt not in (52, 53):
                raise ValidationError(f"WeeklyPanel: weeks in year {t} = {wt}")
            block = self.deaths[:, j, :wt]
            if not np.isfinite(block).all():
                raise ValidationError(f"WeeklyPanel: non-finite deaths in year {t}")
            if (block < 0).any():
                raise ValidationError(f"WeeklyPanel: negative deaths in year {t}")
            if self.exposures is not None:
                eb = self.exposures[:, j, :wt]
                if not np.isfinite(eb).all():
                    raise ValidationError(f"WeeklyPanel: non-finite exposures in year {t}")
                if (eb <= 0).any():
                    raise ValidationError(f"WeeklyPanel: non-positive exposure in year {t}")
        if require_exposures and self.exposures is None:
            raise ValidationError("WeeklyPanel: exposures required but missing")
        return self

    def year_index(self, t):
        return self.years.index(t)

    def select_years(self, years):
        keep = [j for j, t in enumerate(self.years) if t in set(years)]
        if not keep:
            raise ValidationError("select_years: no overlapping years")
        return replace(
            self,
            years=tuple(self.years[j] for j in keep),
            weeks_in_year={self.years[j]: self.weeks_in_year[self.years[j]] for j in keep},
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

    def cells(self, t):
        """Deaths (and exposures) for year t, shape (nages, w_t)."""
        j = self.year_index(t)
        wt = self.weeks_in_year[t]
        d = self.deaths[:, j, :wt]
        e = None if self.exposures is None else self.exposures[:, j, :wt]
        return d, e


@dataclass(frozen=True)
class BaselineModel:
    """Two-layer multi-population baseline parameters plus time-series fit.

    Per-gender common parameters A, B, K; per (country, gender) parameters
    alpha, beta, kappa.  ``sigma`` is the joint innovation covariance of the
    random walks, ordered as in ``series``.
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
    theta: dict = field(default_factory=dict)
    delta: dict = field(default_factory=dict)
    delta_tstat: dict = field(default_factory=dict)
    sigma: np.ndarray = None
    series: tuple = ()

    def validate(self):
        nx, nt = len(self.ages), len(self.years)
        for g in GENDERS:
            for name, vec, n in (("A", self.A[g], nx), ("B", self.B[g], nx), ("K", self.K[g], nt)):
                if len(vec) != n:
                    raise ValidationError(f"BaselineModel: {name}[{g}] length != {n}")
            if abs(np.linalg.norm(self.B[g]) - 1.0) > NORM_TOL:
                raise ValidationError(f"BaselineModel: norm constraint violated for B[{g}]")
            if abs(self.K[g].sum()) > SUM_TOL:
                raise ValidationError(f"BaselineModel: sum constraint violated for K[{g}]")
        for c in self.countries:
            for g in GENDERS:
                key = (c, g)
                if abs(np.linalg.norm(self.beta[key]) - 1.0) > NORM_TOL:
                    raise ValidationError(f"BaselineModel: norm constraint violated for beta[{key}]")
                if abs(self.kappa[key].sum()) > SUM_TOL:
                    raise ValidationError(f"BaselineModel: sum constraint violated for kappa[{key}]")
        if self.sigma is not None:
            if not np.allclose(self.sigma, self.sigma.T, atol=1e-12):
                raise ValidationError("BaselineModel: sigma not symmetric")
            eig = np.linalg.eigvalsh(self.sigma)
            if eig.min() < -1e-10 * max(1.0, abs(eig.max())):
                raise ValidationError("BaselineModel: sigma not positive semidefinite")
        return self


@dataclass(frozen=True)
class SeasonalEffect:
    """Multiplicative weekly seasonal factor for one country and gender.

    ``phi`` has length 53 (week 53 repeats week 52); ``coeffs`` are the
    periodic-spline coefficients so the smooth curve can be re-evaluated
    after a load.
    """

    country: str
    gender: str
    phi: np.ndarray
    knots: int
    coeffs: np.ndarray = None

    def validate(self):
        if len(self.phi) != MAX_WEEKS:
            raise ValidationError("SeasonalEffect: phi must have 53 entries")
        if (self.phi <= 0).any():
            raise ValidationError("SeasonalEffect: phi must be strictly positive")
        if abs(self.phi[:52].mean() - 1.0) > SUM_TOL:
            raise ValidationError("SeasonalEffect: mean-one constraint violated")
        return self

    def curve(self, w, derivative=0):
        """Evaluate the fitted periodic spline at (possibly fractional) week w."""
        from .seasonal import evaluate_cyclic_spline

        if self.coeffs is None:
            raise ValidationError("SeasonalEffect: no spline coefficients stored")
        return evaluate_cyclic_spline(self.coeffs, np.asarray(w, dtype=float), derivative)


@dataclass(frozen=True)
class CovidLayer:
    """Pandemic age effect B and week effect K, with annualized V and X.

    ``method`` is 1 (no predetermined seasonal effect) or 2 (seasonal effect
    applied before the fit).  ``K`` has shape (nyears, 53), NaN-padded.
    """

    country: str
    gender: str
    ages: tuple
    years: tuple
    weeks_in_year: dict
    method: int
    B: np.ndarray
    K: np.ndarray
    V: np.ndarray = None
    X: np.ndarray = None
    degenerate: bool = False

    def validate(self):
        if self.method not in (1, 2):
            raise ValidationError("CovidLayer: method must be 1 or 2")
        if len(self.B) != len(self.ages):
            raise ValidationError("CovidLayer: B length != number of age indices")
        if self.K.shape != (len(self.years), MAX_WEEKS):
            raise ValidationError("CovidLayer: K shape mismatch")
        if not self.degenerate:
            if abs(np.linalg.norm(self.B) - 1.0) > NORM_TOL:
                raise ValidationError("CovidLayer: norm constraint violated for B")
            if self.B.sum() < -NORM_TOL:
                raise ValidationError("CovidLayer: sign convention violated (sum B < 0)")
            if self.V is not None and abs(np.linalg.norm(self.V) - 1.0) > NORM_TOL:
                raise ValidationError("CovidLayer: norm constraint violated for V")
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
    degenerate: bool = False

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
    horizon: int

    def validate(self):
        if not (0.0 <= self.eta <= 1.0):
            raise ValidationError("ScenarioSpec: eta outside [0, 1]")
        if self.horizon < 1:
            raise ValidationError("ScenarioSpec: horizon must be >= 1")
        return self


@dataclass(frozen=True)
class ForecastSet:
    """Per-scenario projected forces of mortality, death probabilities and
    life expectancies.  ``mu`` and ``q`` map scenario name to arrays of shape
    (nages, nyears); life expectancies map scenario name to arrays indexed
    like (len(le_ages), nyears)."""

    ages: np.ndarray
    years: np.ndarray
    le_ages: tuple
    max_age: int
    mu: dict
    q: dict
    e_period: dict
    e_cohort: dict

    def validate(self):
        for name, qs in self.q.items():
            mu = self.mu[name]
            if not np.allclose(qs, 1.0 - np.exp(-mu), rtol=1e-12, atol=1e-15):
                raise ValidationError(f"ForecastSet: q != 1 - exp(-mu) for {name}")
            if ((qs <= 0) & (mu > 0)).any() or (qs >= 1).any():
                raise ValidationError(f"ForecastSet: q outside (0, 1) for {name}")
        return self


# ---------------------------------------------------------------------------
# serialization


def _writer_rows_baseline(m):
    yield "ages", "", "", f"{m.ages[0]};{m.ages[-1]}"
    yield "years", "", "", f"{m.years[0]};{m.years[-1]}"
    for i, c in enumerate(m.countries):
        yield "country", str(i), "", c
    for g in GENDERS:
        for i, x in enumerate(m.ages):
            yield "A", g, str(x), _fmt(m.A[g][i])
            yield "B", g, str(x), _fmt(m.B[g][i])
        for j, t in enumerate(m.years):
            yield "K", g, str(t), _fmt(m.K[g][j])
        if g in m.theta:
            yield "theta", g, "", _fmt(m.theta[g])
    for c in m.countries:
        for g in GENDERS:
            key = f"{c}|{g}"
            for i, x in enumerate(m.ages):
                yield "alpha", key, str(x), _fmt(m.alpha[(c, g)][i])
                yield "beta", key, str(x), _fmt(m.beta[(c, g)][i])
            for j, t in enumerate(m.years):
                yield "kappa", key, str(t), _fmt(m.kappa[(c, g)][j])
            if (c, g) in m.delta:
                yield "delta", key, "", _fmt(m.delta[(c, g)])
                yield "delta_tstat", key, "", _fmt(m.delta_tstat[(c, g)])
    if m.sigma is not None:
        for i, label in enumerate(m.series):
            yield "series", str(i), "", label
        for i in range(m.sigma.shape[0]):
            for j in range(m.sigma.shape[1]):
                yield "sigma", str(i), str(j), _fmt(m.sigma[i, j])


def _reader_baseline(rows):
    meta = _collect(rows)
    lo, hi = (int(v) for v in meta.scalar("ages").split(";"))
    ages = np.arange(lo, hi + 1)
    ylo, yhi = (int(v) for v in meta.scalar("years").split(";"))
    years = np.arange(ylo, yhi + 1)
    countries = tuple(v for _, v in sorted(meta.indexed1("country").items(), key=lambda kv: int(kv[0])))
    A, B, K, theta = {}, {}, {}, {}
    for g in GENDERS:
        A[g] = meta.vector("A", g, [str(x) for x in ages])
        B[g] = meta.vector("B", g, [str(x) for x in ages])
        K[g] = meta.vector("K", g, [str(t) for t in years])
        if ("theta", g, "") in meta.rows:
            theta[g] = float(meta.rows[("theta", g, "")])
    alpha, beta, kappa, delta, tstat = {}, {}, {}, {}, {}
    for c in countries:
        for g in GENDERS:
            key = f"{c}|{g}"
            alpha[(c, g)] = meta.vector("alpha", key, [str(x) for x in ages])
            beta[(c, g)] = meta.vector("beta", key, [str(x) for x in ages])
            kappa[(c, g)] = meta.vector("kappa", key, [str(t) for t in years])
            if ("delta", key, "") in meta.rows:
                delta[(c, g)] = float(meta.rows[("delta", key, "")])
                tstat[(c, g)] = float(meta.rows[("delta_tstat", key, "")])
    series = tuple(v for _, v in sorted(meta.indexed1("series").items(), key=lambda kv: int(kv[0])))
    sigma = None
    if series:
        n = len(series)
        sigma = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                sigma[i, j] = float(meta.rows[("sigma", str(i), str(j))])
    return BaselineModel(
        countries=countries, ages=ages, years=years, A=A, B=B, K=K,
        alpha=alpha, beta=beta, kappa=kappa, theta=theta, delta=delta,
        delta_tstat=tstat, sigma=sigma, series=series,
    )


def _writer_rows_seasonal(m):
    yield "country", "", "", m.country
    yield "gender", "", "", m.gender
    yield "knots", "", "", str(m.knots)
    for w in range(1, MAX_WEEKS + 1):
        yield "phi", str(w), "", _fmt(m.phi[w - 1])
    if m.coeffs is not None:
        for i, c in enumerate(m.coeffs):
            yield "coef", str(i), "", _fmt(c)


def _reader_seasonal(rows):
    meta = _collect(rows)
    phi = meta.vector("phi", None, [str(w) for w in range(1, MAX_WEEKS + 1)])
    coef_rows = meta.indexed1("coef")
    coeffs = None
    if coef_rows:
        coeffs = np.array([float(coef_rows[str(i)]) for i in range(len(coef_rows))])
    return SeasonalEffect(
        country=meta.scalar("country"), gender=meta.scalar("gender"),
        phi=phi, knots=int(meta.scalar("knots")), coeffs=coeffs,
    )


def _writer_rows_covid(m):
    yield "country", "", "", m.country
    yield "gender", "", "", m.gender
    yield "method", "", "", str(m.method)
    yield "degenerate", "", "", str(int(m.degenerate))
    for j, t in enumerate(m.years):
        yield "weeks", str(t), "", str(m.weeks_in_year[t])
    for i, a in enumerate(m.ages):
        yield "age", str(i), "", a.label
        yield "B", str(i), "", _fmt(m.B[i])
    for j, t in enumerate(m.years):
        for w in range(1, m.weeks_in_year[t] + 1):
            yield "K", str(t), str(w), _fmt(m.K[j, w - 1])
    if m.V is not None:
        for i in range(len(m.V)):
            yield "V", str(i), "", _fmt(m.V[i])
    if m.X is not None:
        for j, t in enumerate(m.years):
            yield "X", str(t), "", _fmt(m.X[j])


def _reader_covid(rows):
    meta = _collect(rows)
    weeks = {int(k): int(v) for k, v in meta.indexed1("weeks").items()}
    years = tuple(sorted(weeks))
    age_rows = meta.indexed1("age")
    ages = tuple(AgeIndex.from_label(age_rows[str(i)]) for i in range(len(age_rows)))
    B = meta.vector("B", None, [str(i) for i in range(len(ages))])
    K = np.full((len(years), MAX_WEEKS), np.nan)
    for j, t in enumerate(years):
        for w in range(1, weeks[t] + 1):
            K[j, w - 1] = float(meta.rows[("K", str(t), str(w))])
    v_rows = meta.indexed1("V")
    V = None
    if v_rows:
        V = np.array([float(v_rows[str(i)]) for i in range(len(v_rows))])
    X = None
    if meta.indexed1("X"):
        X = np.array([float(meta.rows[("X", str(t), "")]) for t in years])
    return CovidLayer(
        country=meta.scalar("country"), gender=meta.scalar("gender"),
        ages=ages, years=years, weeks_in_year=weeks,
        method=int(meta.scalar("method")), B=B, K=K, V=V, X=X,
        degenerate=bool(int(meta.scalar("degenerate"))),
    )


def _writer_rows_coda(m):
    yield "year", "", "", str(m.year)
    yield "gender", "", "", m.gender
    yield "degenerate", "", "", str(int(m.degenerate))
    yield "explained_variance", "", "", _fmt(m.explained_variance)
    yield "ages", "", "", f"{m.ages[0]};{m.ages[-1]}"
    for i, x in enumerate(m.ages):
        yield "alpha", str(x), "", _fmt(m.alpha[i])
        yield "beta", str(x), "", _fmt(m.beta[i])
    for w in range(len(m.kappa)):
        yield "kappa", str(w + 1), "", _fmt(m.kappa[w])


def _reader_coda(rows):
    meta = _collect(rows)
    lo, hi = (int(v) for v in meta.scalar("ages").split(";"))
    ages = np.arange(lo, hi + 1)
    kappa_rows = meta.indexed1("kappa")
    kappa = np.array([float(kappa_rows[str(w + 1)]) for w in range(len(kappa_rows))])
    return CodaFit(
        year=int(meta.scalar("year")), gender=meta.scalar("gender"), ages=ages,
        alpha=meta.vector("alpha", None, [str(x) for x in ages]),
        beta=meta.vector("beta", None, [str(x) for x in ages]),
        kappa=kappa,
        explained_variance=float(meta.scalar("explained_variance")),
        degenerate=bool(int(meta.scalar("degenerate"))),
    )


class _Rows:
    """Indexed view over parsed (key, index1, index2) -> value rows."""

    def __init__(self, rows):
        self.rows = rows

    def scalar(self, key):
        try:
            return self.rows[(key, "", "")]
        except KeyError:
            raise ParseError(f"missing required row {key!r}") from None

    def indexed1(self, key):
        return {i1: v for (k, i1, _), v in self.rows.items() if k == key}

    def vector(self, key, index1, index2_labels):
        out = np.empty(len(index2_labels))
        for i, lab in enumerate(index2_labels):
            k = (key, index1, lab) if index1 is not None else (key, lab, "")
            try:
                out[i] = float(self.rows[k])
            except KeyError:
                raise ParseError(f"missing row for {key} at index {lab}") from None
        return out


def _collect(rows):
    return _Rows(rows)


_SCHEMAS = {
    "BaselineModel": (_writer_rows_baseline, _reader_baseline, BaselineModel),
    "SeasonalEffect": (_writer_rows_seasonal, _reader_seasonal, SeasonalEffect),
    "CovidLayer": (_writer_rows_covid, _reader_covid, CovidLayer),
    "CodaFit": (_writer_rows_coda, _reader_coda, CodaFit),
}


def save_model(model, path):
    """Write a model object to ``path`` in the self-describing CSV format."""
    name = type(model).__name__
    if name not in _SCHEMAS:
        raise ParseError(f"no serialization schema for {name}")
    writer_rows = _SCHEMAS[name][0]
    buf = io.StringIO()
    buf.write(f"#schema:{name} v1\n")
    buf.write("key,index1,index2,value\n")
    w = csv.writer(buf, lineterminator="\n")
    for row in writer_rows(model):
        w.writerow(row)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise ParseError(f"cannot write model file {path}: {exc}") from exc


def load_model(path):
    """Read a model file, dispatch on its schema line and re-validate."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    if not lines or not lines[0].startswith("#schema:"):
        raise ParseError(f"{path}: line 1: missing '#schema:' header")
    schema = lines[0][len("#schema:"):].strip()
    name, _, version = schema.partition(" ")
    if name not in _SCHEMAS or version != "v1":
        raise ParseError(f"{path}: line 1: unknown schema {schema!r}")
    if len(lines) < 2 or lines[1] != "key,index1,index2,value":
        raise ParseError(f"{path}: line 2: expected header 'key,index1,index2,value'")
    rows = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip() or line.startswith("#"):
            continue
        parts = next(csv.reader([line]))
        if len(parts) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        key = (parts[0], parts[1], parts[2])
        if key in rows:
            raise ParseError(f"{path}: line {lineno}: duplicate row {key}")
        rows[key] = parts[3]
    reader = _SCHEMAS[name][1]
    try:
        model = reader(rows)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    model.validate()
    return model


# ---------------------------------------------------------------------------
# audit CSV for panels


_ANNUAL_HEADER = "country,gender,age,year,deaths,exposure"
_WEEKLY_HEADER = "age,year,week,deaths,exposure"


def _read_columns(path, header, nfields):
    """Split a panel CSV into ``nfields`` string columns of its data rows.

    Blank lines and ``#`` lines are skipped.  Also returns a function giving
    the 1-based file line number of a data row, for error messages.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != header:
        raise ParseError(f"{path}: line 1: unexpected header")
    rows = [line for line in lines[1:] if line.strip() and line[0] != "#"]

    def lineno(k):
        return [n for n, line in enumerate(lines, start=1)
                if n > 1 and line.strip() and line[0] != "#"][k]

    if set(map(str.count, rows, itertools.repeat(","))) - {nfields - 1}:
        bad = next(k for k, line in enumerate(rows) if line.count(",") != nfields - 1)
        raise ParseError(f"{path}: line {lineno(bad)}: expected {nfields} fields")
    fields = ",".join(rows).split(",") if rows else []
    return [fields[f::nfields] for f in range(nfields)], lineno


def _numbers(path, col, convert, lineno):
    """Parse a string column with Python's ``int`` or ``float``; a bad entry
    raises ParseError naming its line."""
    try:
        return np.fromiter(map(convert, col), np.int64 if convert is int else float, len(col))
    except ValueError:
        for k, text in enumerate(col):
            try:
                convert(text)
            except ValueError:
                raise ParseError(f"{path}: line {lineno(k)}: bad number {text!r}") from None
        raise


def _levels(path, col, lineno, numeric=False):
    """Distinct values of a string column and each row's index among them.

    The values keep their order of first appearance, or with ``numeric`` are
    parsed as integers and sorted.  Each distinct text is parsed only once.
    """
    values = list(dict.fromkeys(col))
    code = {v: i for i, v in enumerate(values)}
    index = np.fromiter(map(code.__getitem__, col), np.intp, len(col))
    if not numeric:
        return values, index
    try:
        parsed = np.fromiter(map(int, values), np.int64, len(values))
    except ValueError:
        _numbers(path, col, int, lineno)  # raises, naming the first bad row
        raise
    levels, remap = np.unique(parsed, return_inverse=True)
    return levels, remap[index]


def _check_cells(path, flat, expected, describe):
    """Raise ParseError unless the rows' flat cell indices hit every expected
    cell exactly once; ``describe`` names a cell from its array index."""
    hits = np.bincount(flat, minlength=expected.size).reshape(expected.shape)
    for what, mask in (("duplicate", hits > 1), ("missing", expected & (hits == 0))):
        if mask.any():
            cell = np.unravel_index(int(np.argmax(mask)), mask.shape)
            raise ParseError(f"{path}: {what} cell {describe(*map(int, cell))}")


def write_annual_panel_csv(panel, path):
    keys = itertools.product(panel.countries, GENDERS, panel.ages.tolist(),
                             panel.years.tolist())
    rows = zip(keys, panel.deaths.ravel().tolist(), panel.exposures.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_ANNUAL_HEADER + "\n")
        fh.write("".join(["%s,%s,%s,%s,%.17g,%.17g\n" % (*k, d, e) for k, d, e in rows]))


def read_annual_panel_csv(path):
    (c_col, g_col, a_col, t_col, d_col, e_col), lineno = _read_columns(path, _ANNUAL_HEADER, 6)
    countries, ci = _levels(path, c_col, lineno)
    genders, gi = _levels(path, g_col, lineno)
    unknown = [g for g in genders if g not in GENDERS]
    if unknown:
        raise ParseError(f"{path}: line {lineno(g_col.index(unknown[0]))}: "
                         f"unknown gender {unknown[0]!r}")
    gi = np.array([GENDERS.index(g) for g in genders], dtype=np.intp)[gi]
    ages, ai = _levels(path, a_col, lineno, numeric=True)
    years, ti = _levels(path, t_col, lineno, numeric=True)
    shape = (len(countries), len(GENDERS), len(ages), len(years))
    flat = np.ravel_multi_index((ci, gi, ai, ti), shape)
    _check_cells(path, flat, np.ones(shape, dtype=bool),
                 lambda c, g, x, t: (countries[c], GENDERS[g], int(ages[x]), int(years[t])))
    deaths = np.empty(shape)
    expos = np.empty(shape)
    deaths.flat[flat] = _numbers(path, d_col, float, lineno)
    expos.flat[flat] = _numbers(path, e_col, float, lineno)
    return AnnualPanel(countries=tuple(countries), ages=ages, years=years, deaths=deaths,
                       exposures=expos).validate()


def write_weekly_panel_csv(panel, path):
    weeks = np.array([panel.weeks_in_year[t] for t in panel.years])
    used = np.broadcast_to(np.arange(MAX_WEEKS) < weeks[:, None], panel.deaths.shape)
    year_weeks = [(t, w) for t in panel.years for w in range(1, panel.weeks_in_year[t] + 1)]
    keys = itertools.product([a.label for a in panel.ages], year_weeks)
    deaths = panel.deaths[used].tolist()
    if panel.exposures is None:
        lines = ["%s,%s,%s,%.17g,\n" % (a, t, w, d) for (a, (t, w)), d in zip(keys, deaths)]
    else:
        lines = ["%s,%s,%s,%.17g,%.17g\n" % (a, t, w, d, e)
                 for (a, (t, w)), d, e in zip(keys, deaths, panel.exposures[used].tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_WEEKLY_HEADER + "\n")
        fh.write("".join(lines))


def read_weekly_panel_csv(path, country, gender):
    (a_col, t_col, w_col, d_col, e_col), lineno = _read_columns(path, _WEEKLY_HEADER, 5)
    labels, ai = _levels(path, a_col, lineno)
    years, ti = _levels(path, t_col, lineno, numeric=True)
    week_levels, wi = _levels(path, w_col, lineno, numeric=True)
    week = week_levels[wi]
    bad = (week < 1) | (week > MAX_WEEKS)
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(f"{path}: line {lineno(k)}: week {week[k]} outside 1..{MAX_WEEKS}")
    blank = e_col.count("")
    if 0 < blank < len(e_col):
        k = next(k for k, e in enumerate(e_col) if (e == "") != (e_col[0] == ""))
        raise ParseError(f"{path}: line {lineno(k)}: exposure given on some rows only")
    last_week = np.zeros(len(years), dtype=np.int64)
    np.maximum.at(last_week, ti, week)
    shape = (len(labels), len(years), MAX_WEEKS)
    flat = np.ravel_multi_index((ai, ti, week - 1), shape)
    expected = np.broadcast_to(np.arange(MAX_WEEKS) < last_week[:, None], shape)
    _check_cells(path, flat, expected,
                 lambda i, j, w: f"age {labels[i]}, year {years[j]}, week {w + 1}")
    deaths = np.full(shape, np.nan)
    deaths.flat[flat] = _numbers(path, d_col, float, lineno)
    expos = None
    if blank == 0 and e_col:
        expos = np.full(shape, np.nan)
        expos.flat[flat] = _numbers(path, e_col, float, lineno)
    years = years.tolist()
    return WeeklyPanel(country=country, gender=gender,
                       ages=tuple(AgeIndex.from_label(lab) for lab in labels),
                       years=tuple(years), weeks_in_year=dict(zip(years, last_week.tolist())),
                       deaths=deaths, exposures=expos).validate()
