"""Weekly-to-annual transformation of the pandemic effects, scenario paths
for the annual period effect, and mortality-rate / life-expectancy
forecasts.

The annual effects (V, X) are defined by matching the annual survival
probability to the product of weekly survival probabilities.  X has a closed
form under a temporary sum-one convention on V; V then solves a convex
scalar equation per age, by bisection of [-10, 10], on which the equation
must change sign.  Both are renormalized to ||V|| = 1 at the end, which
leaves every product V_x * X_t unchanged.
"""

from __future__ import annotations

import numpy as np

from .baseline import baseline_mu
from .datastore import AnnualEffects, ForecastSet, ScenarioSpec, week_mask
from .errors import NumericalError, ValidationError

BRACKET = 10.0
HALVINGS = 64  # halvings of the 2 BRACKET-wide bracket: 20 / 2**64 is about 1e-18
DEGENERATE_TOL = 1e-12
MAX_AGE = 120  # forecast tables close at this age
LE_AGES = (0, 65, 85)  # ages of the forecast life expectancies
EXTRAP_AGES = (80, 90)  # ln(mu) above the calibrated ages is extrapolated from these


def weekly_mean_factor(layer, phi):
    """m[x, t] = (1/w_t) sum_w phi_w exp(B_x K_{t,w}) for the fitted years."""
    used = week_mask(layer.years)
    terms = np.where(used, phi * np.exp(layer.B[:, None, None] * layer.K), 0.0)
    # NumPy sums <= 53 values in blocks of 8, then the rest in order: a 52-week pad adds +0.0 last.
    return terms.sum(axis=-1) / used.sum(axis=-1)


def _gap_roots(mu, m, X):
    """Root v_i on [-BRACKET, BRACKET] of g_i(v) = sum_t mu[i, t] (exp(v X_t)
    - m[i, t]) for every row i at once, by bisection of a bracket on which
    g_i changes sign: g_i is convex, so the sign change marks its one root
    there, whatever the signs of X.  HALVINGS halvings narrow each bracket
    to 2 BRACKET / 2**HALVINGS, and its midpoint is the root.  A NaN gap or
    one without a sign change raises NumericalError naming the row as the
    age index."""

    def gap(v):
        g = (mu * (np.exp(v[:, None] * X) - m)).sum(axis=1)
        if np.isnan(g).any():
            raise NumericalError(f"annualize: age index {np.argmax(np.isnan(g))}: the gap is NaN")
        return g

    lo, hi = np.full(len(mu), -BRACKET), np.full(len(mu), BRACKET)
    g_lo, g_hi = gap(lo), gap(hi)
    one_sign = np.sign(g_lo) * np.sign(g_hi) > 0
    if one_sign.any():
        raise NumericalError(f"annualize: age index {np.argmax(one_sign)}: the gap does not change "
                             f"sign on [-{BRACKET:g}, {BRACKET:g}]")
    rising = (g_hi > 0) | (g_lo < 0)  # a gap of 0 at one end rises if it is < 0 at the other
    for _ in range(HALVINGS):
        v = (lo + hi) / 2
        above = (gap(v) > 0) == rising  # the root lies below v
        lo, hi = np.where(above, lo, v), np.where(above, v, hi)
    return (lo + hi) / 2


def annualize(layer, phi, mu):
    """Transform the weekly pandemic effects into annual effects (V, X).

    ``phi`` is the length-53 seasonal vector used in the fit (ones under
    Method 1) and ``mu`` the annual baseline forces, shape (nages, nyears) on
    the layer's age indices and years.  Returns the layer's AnnualEffects.
    If X vanishes in every year the age effect is unidentifiable, and the
    uniform unit vector is returned with an all-zero X instead of failing.
    """
    if mu.shape != (len(layer.ages), len(layer.years)):
        raise ValidationError("annualize: mu shape does not match the layer")
    m = weekly_mean_factor(layer, phi)
    X = np.log(m).sum(axis=0)
    owner = dict(country=layer.country, gender=layer.gender, ages=layer.ages, years=layer.years)

    if np.abs(X).max() < DEGENERATE_TOL:
        n = len(layer.ages)
        return AnnualEffects(**owner, V=np.full(n, 1.0 / np.sqrt(n)), X=np.zeros_like(X))

    V = _gap_roots(mu, m, X)
    norm = np.linalg.norm(V)
    if norm == 0:
        raise NumericalError("annualize: zero age-effect vector")
    return AnnualEffects(**owner, V=V / norm, X=X * norm)


def build_scenario(spec, horizon):
    """Annual pandemic period-effect path for h = 1..horizon:
    X_{start} * eta^h + (1 - eta^h) * X_{infinity}."""
    spec.validate()
    if horizon < 1:
        raise ValidationError("build_scenario: horizon must be >= 1")
    h = np.arange(1, horizon + 1)
    w = spec.eta**h
    return spec.x_start * w + (1.0 - w) * spec.x_infinity


def standard_scenarios(x_final, eta):
    """The six shipped scenario specifications, parameterized by the fitted
    annual effect of the last pandemic year and the speed ``eta`` of each
    path's move from it."""
    return (
        ScenarioSpec("completely_incidental", 0.0, 0.0, eta),
        ScenarioSpec("completely_structural", x_final, x_final, eta),
        ScenarioSpec("decreasing_impact", x_final, 0.0, eta),
        ScenarioSpec("growing_impact", x_final, 1.25 * x_final, eta),
        ScenarioSpec("new_normal", x_final, 0.25 * x_final, eta),
        ScenarioSpec("increased_resilience", x_final, -0.25 * x_final, eta),
    )


def extend_age_effect(V, calib_ages, full_ages):
    """Extend the annual age effect ``V`` of ``calib_ages``, one ascending range
    as long as ``V``, to ``full_ages``: zero below that range, constant above it."""
    V, calib_ages, full_ages = np.asarray(V), np.asarray(calib_ages), np.asarray(full_ages)
    if len(V) == 0 or len(calib_ages) != len(V) or (np.diff(calib_ages) != 1).any():
        raise ValidationError("extend_age_effect: calib_ages not one ascending range as long as V")
    lo, hi = calib_ages[0], calib_ages[-1]
    return np.where(full_ages < lo, 0.0, V[np.clip(full_ages, lo, hi) - lo])


def scenario_mu(mu_pre, V_ext, x_path):
    """Scenario forces of mortality: mu_pre * exp(V_x X_t), plus the matching
    one-year death probabilities q = 1 - exp(-mu)."""
    mu = mu_pre * np.exp(np.outer(V_ext, x_path))
    return mu, 1.0 - np.exp(-mu)


def extended_baseline_mu(model, country, gender, years):
    """Central pre-pandemic projection on ages 0..MAX_AGE.

    Ages above the calibrated range are closed by log-linear extrapolation of
    ln(mu) over ``EXTRAP_AGES``, per year.
    """
    years = np.asarray(years)
    base = baseline_mu(model, country, gender, model.ages, years)
    lo, hi = EXTRAP_AGES
    sel = (model.ages >= lo) & (model.ages <= hi)
    xs = model.ages[sel].astype(float)
    # Least squares for all years at once, one contiguous row per year, so
    # that each year's sums, and so its fit, do not depend on the other years.
    lnmu = np.log(base[sel]).T.copy()
    dx = xs - xs.mean()
    slope = (lnmu * dx).sum(axis=1) / (dx @ dx)
    extra = np.arange(int(model.ages[-1]) + 1, MAX_AGE + 1) - xs.mean()
    return np.vstack([base, np.exp(lnmu.mean(axis=1) + np.outer(extra, slope))])


def life_expectancy(q, ages, years, x0, t0, kind="period"):
    """Remaining life expectancy under the curtate-plus-half convention:
    e = sum_k (prod_{j<k} (1 - q_j)) * (1 - q_k / 2), truncated at
    ``MAX_AGE`` where q is forced to one.

    ``kind`` 'period' reads the column at t0; 'cohort' reads the diagonal
    q[x0 + k, t0 + k].  `life_expectancy_by_year` is the array form used by
    the forecasts; this scalar form is its reference.
    """
    ages = np.asarray(ages)
    years = np.asarray(years)
    if kind not in ("period", "cohort"):
        raise ValidationError(f"unknown life expectancy kind {kind!r}")
    i0 = int(np.searchsorted(ages, x0))
    if i0 >= len(ages) or ages[i0] != x0:
        raise ValidationError(f"age {x0} not in table")
    j0 = int(np.searchsorted(years, t0))
    if j0 >= len(years) or years[j0] != t0:
        raise ValidationError(f"year {t0} not in table")
    n = MAX_AGE - x0 + 1
    if i0 + n > len(ages) + 1:
        raise ValidationError(f"table does not reach max age {MAX_AGE}")
    qs = np.empty(n)
    for k in range(n):
        i = i0 + k
        j = j0 + (k if kind == "cohort" else 0)
        if i >= len(ages):
            qs[k] = 1.0
            continue
        if j >= len(years):
            raise ValidationError(
                f"table shorter than needed horizon (year {t0 + k} missing)"
            )
        qs[k] = q[i, j]
    qs[-1] = 1.0
    surv = np.concatenate([[1.0], np.cumprod(1.0 - qs[:-1])])
    return float((surv * (1.0 - qs / 2.0)).sum())


def life_expectancy_by_year(q, ages, years, x0, t0s, kind):
    """`life_expectancy` at age ``x0`` for every start year in ``t0s`` at once.

    Gathers one C-ordered (len(t0s), MAX_AGE - x0 + 1) block of death
    probabilities, columns of ``q`` for 'period' and diagonals for 'cohort',
    and runs the cumulative product and the sum along its last axis, so each
    row is summed in the same order as the scalar form and the results agree
    bit for bit.
    """
    ages = np.asarray(ages)
    years = np.asarray(years)
    if kind not in ("period", "cohort"):
        raise ValidationError(f"unknown life expectancy kind {kind!r}")
    i0 = int(np.searchsorted(ages, x0))
    if i0 >= len(ages) or ages[i0] != x0:
        raise ValidationError(f"age {x0} not in table")
    t0s = np.asarray(t0s)
    j0 = np.searchsorted(years, t0s)
    missing = (j0 >= len(years)) | (years[np.minimum(j0, len(years) - 1)] != t0s)
    if missing.any():
        raise ValidationError(f"year {t0s[np.argmax(missing)]} not in table")
    n = MAX_AGE - x0 + 1
    if i0 + n > len(ages) + 1:
        raise ValidationError(f"table does not reach max age {MAX_AGE}")
    k = np.arange(n)
    rows = i0 + k
    cols = j0[:, None] + (k if kind == "cohort" else np.zeros_like(k))
    short = (rows < len(ages)) & (cols >= len(years))
    if short.any():
        r, kk = np.unravel_index(np.argmax(short), short.shape)
        raise ValidationError(
            f"table shorter than needed horizon (year {t0s[r] + kk} missing)"
        )
    # Only the last column can fall outside the table, and it is forced to one.
    qs = q[np.minimum(rows, len(ages) - 1), np.minimum(cols, len(years) - 1)]
    qs[:, -1] = 1.0
    surv = np.ones_like(qs)
    np.cumprod(1.0 - qs[:, :-1], axis=1, out=surv[:, 1:])
    return (surv * (1.0 - qs / 2.0)).sum(axis=1)


def forecast_scenarios(model, country, gender, V, calib_ages, scenarios, first_year,
                       report_years):
    """Build a ForecastSet for a list of ScenarioSpec, reporting the
    ``report_years`` years from ``first_year`` on.

    Internally projects far enough past the reporting window that cohort life
    expectancies up to ``MAX_AGE`` are computable for every reported year.
    """
    full_horizon = report_years + (MAX_AGE + 1)
    years_full = np.arange(first_year, first_year + full_horizon)
    ages_full = np.arange(0, MAX_AGE + 1)
    mu_pre = extended_baseline_mu(model, country, gender, years_full)
    V_ext = extend_age_effect(V, calib_ages, ages_full)
    report = np.arange(first_year, first_year + report_years)

    mu_out, ep_out, ec_out = {}, {}, {}
    for spec in scenarios:
        x_path = build_scenario(spec, full_horizon)
        mu, q = scenario_mu(mu_pre, V_ext, x_path)
        mu_out[spec.name] = mu[:, :report_years]
        for kind, e_out in (("period", ep_out), ("cohort", ec_out)):
            e_out[spec.name] = np.stack([
                life_expectancy_by_year(q, ages_full, years_full, x0, report, kind)
                for x0 in LE_AGES
            ])
    return ForecastSet(
        ages=ages_full, years=report, le_ages=LE_AGES,
        mu=mu_out, e_period=ep_out, e_cohort=ec_out,
    ).validate()
