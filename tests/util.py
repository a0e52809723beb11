"""Shared helpers for the test suite: constraint assertions, finite
difference gradient checks, the annualization identity and a daily cohort
microsimulation used as an oracle for the week-population recursion, the
per-year and per-week loop forms of four weekly-grid functions, kept as
oracles for their array forms, the per-scenario form of a forecast table,
kept as the oracle for the writer that shares rows across scenarios, and
the sweep of the bilinear Poisson fit as it was before it dropped the work
that its results do not need, kept as the bit-exact oracle of the fit, and
`compare_runs`, which checks two run directories against each other within
a tolerance."""

import logging
import os

import numpy as np

from pandmort.annualize_forecast import weekly_mean_factor
from pandmort.baseline import MAX_ITER, REL_TOL, _usable
from pandmort.datastore import GENDERS, MAX_WEEKS, weeks_in_iso_year
from pandmort.errors import NumericalError, ValidationError

log = logging.getLogger(__name__)

NORM_TOL = 1e-10
SUM_TOL = 1e-8
CODA_SUM_TOL = 1e-9
ROOT_TOL = 1e-12  # xtol of scipy.optimize.brentq, the oracle of the annualization roots


def compare_runs(a, b, rtol, atol):
    """Check that run directories ``a`` and ``b`` hold the same file names,
    the same number of rows per file and the same text fields, and that
    every pair of numbers x, y in the same field is within
    ``rtol * max(|x|, |y|) + atol``.  Returns the largest difference as a
    fraction of that bound; a failed check is an AssertionError naming the
    file and line."""
    names, others = sorted(os.listdir(a)), sorted(os.listdir(b))
    assert names == others, f"file names differ: {names} against {others}"
    worst = 0.0
    for name in names:
        lines = []
        for d in (a, b):
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                lines.append(fh.read().splitlines())
        rows_a, rows_b = lines
        assert len(rows_a) == len(rows_b), f"{name}: {len(rows_a)} rows against {len(rows_b)}"
        for lineno, (la, lb) in enumerate(zip(rows_a, rows_b), 1):
            fa, fb = la.split(","), lb.split(",")
            assert len(fa) == len(fb), f"{name}: line {lineno}: {la!r} against {lb!r}"
            for x, y in zip(fa, fb):
                if x == y:
                    continue
                try:
                    fx, fy = float(x), float(y)
                except ValueError:
                    raise AssertionError(f"{name}: line {lineno}: {x!r} against {y!r}") from None
                frac = abs(fx - fy) / (rtol * max(abs(fx), abs(fy)) + atol)
                assert frac <= 1.0, (f"{name}: line {lineno}: {x} against {y}, "
                                     f"{frac:.3g} times the bound")
                worst = max(worst, frac)
    return worst


def assert_baseline_constraints(model):
    """Norm, centering and sign conventions on a fitted BaselineModel."""
    for g in GENDERS:
        assert abs(np.linalg.norm(model.B[g]) - 1.0) < NORM_TOL
        assert abs(model.K[g].sum()) < SUM_TOL
        assert np.diff(model.K[g]).sum() < 0.0
    for key, beta in model.beta.items():
        assert abs(np.linalg.norm(beta) - 1.0) < NORM_TOL
        assert beta.sum() >= -NORM_TOL
        assert abs(model.kappa[key].sum()) < SUM_TOL


def assert_covid_constraints(layer):
    assert abs(np.linalg.norm(layer.B) - 1.0) < NORM_TOL
    assert layer.B.sum() >= -NORM_TOL


def assert_annual_constraints(effects):
    assert len(effects.V) == len(effects.ages) and len(effects.X) == len(effects.years)
    assert abs(np.linalg.norm(effects.V) - 1.0) < NORM_TOL


def assert_seasonal_constraints(effect):
    assert abs(effect.phi[:52].mean() - 1.0) < SUM_TOL
    assert (effect.phi > 0.0).all()


def assert_coda_constraints(fit):
    assert abs(fit.beta.sum()) < CODA_SUM_TOL
    assert abs(fit.kappa.sum()) < CODA_SUM_TOL
    assert abs(np.linalg.norm(fit.beta) - 1.0) < NORM_TOL


def annual_survival_gap(layer, effects, phi, mu):
    """Relative gap per age between the annual two-year survival probability
    of ``effects`` and the weekly one of ``layer``; the defining identity of
    the annualization."""
    m = weekly_mean_factor(layer, phi)
    lhs = np.exp(-(mu * np.exp(np.outer(effects.V, effects.X))).sum(axis=1))
    rhs = np.exp(-(mu * m).sum(axis=1))
    return np.abs(lhs - rhs) / rhs


def fd_gradient_error(f, grads, params, h=1e-6):
    """Worst relative error between analytic gradients and central finite
    differences over every component of every parameter block.

    The comparison is scaled by max(|analytic|, |numeric|, 1) so that
    near-zero components at an optimum are compared on an absolute scale.
    """
    worst = 0.0
    for p, g in zip(params, grads):
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + h
            fp = f()
            p[idx] = orig - h
            fm = f()
            p[idx] = orig
            fd = (fp - fm) / (2.0 * h)
            scale = max(abs(fd), abs(g[idx]), 1.0)
            worst = max(worst, abs(fd - g[idx]) / scale)
    return worst


def daily_microsim(start_pop, daily_m, w_t=52):
    """Deterministic daily cohort microsimulation with uniform birthdays.

    ``start_pop[x]`` is the population aged x on 1 January and ``daily_m[x]``
    the daily death probability at attained age x (top age absorbing).
    Births enter at a constant rate totalling start_pop[0] over the year.
    Returns (end_of_year_population_by_age, weekly_deaths_by_attained_age).
    """
    start_pop = np.asarray(start_pop, dtype=float)
    nx = len(start_pop)
    ndays = 7 * w_t
    deaths = np.zeros((nx, w_t))
    end_pop = np.zeros(nx)
    b = np.arange(ndays)
    for x in range(nx):
        sizes = np.full(ndays, start_pop[x] / ndays)  # birthday-day bins
        top = min(x + 1, nx - 1)
        for d in range(ndays):
            young = d < b  # birthday not yet reached, still aged x
            dd_y = sizes[young] * daily_m[x]
            dd_o = sizes[~young] * daily_m[top]
            deaths[x, d // 7] += dd_y.sum()
            deaths[top, d // 7] += dd_o.sum()
            sizes[young] -= dd_y
            sizes[~young] -= dd_o
        end_pop[top] += sizes.sum()
    newborn = np.zeros(ndays)
    for d in range(ndays):
        newborn[d] = start_pop[0] / ndays
        alive = newborn[: d + 1]
        dd = alive * daily_m[0]
        deaths[0, d // 7] += dd.sum()
        newborn[: d + 1] = alive - dd
    end_pop[0] += newborn.sum()
    return end_pop, deaths


# The loop forms that `covid_layer.predicted_deaths`,
# `annualize_forecast.weekly_mean_factor`, `seasonal.weekly_fractions` and
# `exposures.project_population` replaced, kept verbatim apart from their names and docstrings.


def loop_predicted_deaths(panel, mu, seasonal=None, method=2):
    if method not in (1, 2):
        raise ValidationError("method must be 1 or 2")
    if method == 2 and seasonal is None:
        raise ValidationError("Method 2 requires a fitted seasonal effect")
    panel.validate(require_exposures=True)
    phi = np.ones(MAX_WEEKS) if method == 1 else seasonal.phi
    pred = np.full_like(panel.deaths, np.nan)
    for j, t in enumerate(panel.years):
        wt = weeks_in_iso_year(t)
        pred[:, j, :wt] = panel.exposures[:, j, :wt] * mu[:, j : j + 1] * phi[None, :wt]
    return pred


def loop_weekly_mean_factor(layer, phi):
    m = np.empty((len(layer.ages), len(layer.years)))
    for j, t in enumerate(layer.years):
        wt = weeks_in_iso_year(t)
        k = layer.K[j, :wt]
        m[:, j] = (phi[None, :wt] * np.exp(np.outer(layer.B, k))).mean(axis=1)
    return m


def loop_weekly_fractions(panel):
    if len(panel.years) < 2:
        raise ValidationError("weekly fractions need at least 2 years of data")
    out = {}
    for j, t in enumerate(panel.years):
        d = panel.deaths[:, j, :weeks_in_iso_year(t)]
        totals = d.sum(axis=0)
        year_total = totals.sum()
        if year_total <= 0:
            raise ValidationError(f"year {t} has zero total deaths")
        out[t] = totals / year_total * weeks_in_iso_year(t)
    return out


def loop_project_population(start_pop, cohort_dxw, w_t):
    start_pop = np.asarray(start_pop, dtype=float)
    if (start_pop < 0).any():
        raise ValidationError("project_population: negative start population")
    nx = len(start_pop)
    cum = np.cumsum(cohort_dxw, axis=1)  # sum_{i<=w} C[x, i]
    out = np.empty((nx, w_t + 1))
    out[:, 0] = start_pop
    # For the lowest age the incoming cohort (births during the year) is
    # approximated by the current age-0 count; above the top age no deaths
    # are subtracted.
    below = np.concatenate([[start_pop[0]], start_pop[:-1]])
    cum_above = np.vstack([cum[1:], np.zeros((1, w_t))])
    clamped = 0
    for w in range(1, w_t + 1):
        r = w / w_t
        p = (1.0 - r) * (start_pop - cum_above[:, w - 1]) + r * (below - cum[:, w - 1])
        neg = p < 0
        if neg.any():
            clamped += int(neg.sum())
            p = np.maximum(p, 0.0)
        out[:, w] = p
    if clamped:
        log.warning("project_population: clamped %d negative week populations to 0", clamped)
    return out


def per_scenario_forecast_rows(fs, name):
    """The rows of the ``forecast`` table of scenario ``name`` of ForecastSet
    ``fs``: every key, mu and q = 1 - exp(-mu) cell formatted for this scenario alone
    through the table's row string, as the CLI wrote them before it shared
    the rows that all scenarios have in common."""
    nx, nt = len(fs.ages), len(fs.years)
    mu = fs.mu[name].ravel()
    columns = (np.repeat(fs.ages, nt), np.tile(fs.years, nx), mu, 1.0 - np.exp(-mu))
    return "".join(["%s,%s,%s,%s\n" % cell for cell in zip(*[c.tolist() for c in columns])])


# The sweep of `baseline.fit_bilinear_poisson`, with its evaluation and
# step-halving helpers, as it was before the fit dropped the gauge step's
# offset rebuild, the pandemic fits' zero offset and the per-sweep
# recomputation of its constants; kept verbatim apart from the names and
# docstrings.


def _loop_fitted(E, off, b, k):
    eta = b[:, None] * k
    eta += off
    fitted = np.exp(eta)
    fitted *= E
    return eta, fitted


def _loop_evaluate(Dm, Em, off, b, k):
    with np.errstate(over="raise"):
        try:
            eta, fitted = _loop_fitted(Em, off, b, k)
            val = Dm * eta
            val -= fitted
            return val.sum(), fitted
        except FloatingPointError:
            return -np.inf, None


def _loop_damped_update(Dm, Em, off, b, k, which, delta, lnl_before):
    step = 1.0
    for _ in range(40):
        new = (b if which == "b" else k) + step * delta
        b_k = (new, k) if which == "b" else (b, new)
        cand, fitted = _loop_evaluate(Dm, Em, off, *b_k)
        if cand >= lnl_before - 1e-13 * (abs(lnl_before) + 1.0):
            return new, cand, fitted
        step *= 0.5
    raise NumericalError(f"step halving failed to restore lnL in the {which} update")


def loop_fit_bilinear_poisson(D, E, base=0.0, fit_level=True, b0=None, k0=None):
    D = np.asarray(D, dtype=float)
    E = np.asarray(E, dtype=float)
    nx, nt = D.shape
    mask, Dm, Em = _usable(D, E)
    if not mask.any():
        raise NumericalError("no usable cells in likelihood")
    if (D[mask] < 0).any():
        raise ValidationError("negative death counts in likelihood")
    base = np.asarray(base, dtype=float)

    rows_d = Dm.sum(axis=1)
    if fit_level:
        with np.errstate(divide="ignore"):
            rows_e = (Em * np.exp(np.where(mask, base, 0.0))).sum(axis=1)
            a = np.where(rows_d > 0, np.log(np.maximum(rows_d, 1e-300) / np.maximum(rows_e, 1e-300)), -20.0)
    else:
        a = np.zeros(nx)
    b = (np.full(nx, 1.0 / np.sqrt(nx)) if b0 is None else np.asarray(b0, dtype=float).copy())
    k = (np.zeros(nt) if k0 is None else np.asarray(k0, dtype=float).copy())

    off = base + a[:, None]
    lnl, dhat = _loop_evaluate(Dm, Em, off, b, k)
    if not np.isfinite(lnl):
        raise NumericalError("non-finite log-likelihood at starting values")
    trace = [(0, lnl, np.inf)]
    for it in range(1, MAX_ITER + 1):
        prev = (a, b, k)

        if fit_level:
            rows_h = dhat.sum(axis=1)
            ok = (rows_d > 0) & (rows_h > 0)
            a = a + np.where(ok, np.log(np.maximum(rows_d, 1e-300) / np.maximum(rows_h, 1e-300)), 0.0)
            off = base + a[:, None]
            lnl, dhat = _loop_evaluate(Dm, Em, off, b, k)
            if not np.isfinite(lnl):
                raise NumericalError("non-finite log-likelihood during iteration", trace)

        # Newton steps on b, then k: the score component over its curvature.
        num = (Dm - dhat) @ k
        den = dhat @ (k * k)
        delta_b = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        b, lnl, dhat = _loop_damped_update(Dm, Em, off, b, k, "b", delta_b, lnl)

        num = b @ (Dm - dhat)
        den = (b * b) @ dhat
        delta_k = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        k, lnl, dhat = _loop_damped_update(Dm, Em, off, b, k, "k", delta_k, lnl)

        # Reapply identification constraints; likelihood-neutral, so the k
        # step's lnL and fitted deaths carry over.
        if fit_level:
            shift = k.mean()
            k = k - shift
            a = a + b * shift
            off = base + a[:, None]
        norm = np.linalg.norm(b)
        if norm > 0:
            b = b / norm
            k = k * norm

        change = max(
            np.abs(a - prev[0]).max(), np.abs(b - prev[1]).max(), np.abs(k - prev[2]).max()
        )
        trace.append((it, lnl, change))
        if abs(lnl - trace[-2][1]) <= REL_TOL * (abs(lnl) + 1.0):
            return a, b, k, trace
    raise NumericalError(f"no convergence after {MAX_ITER} iterations", trace)
