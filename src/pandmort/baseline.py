"""Two-stage Poisson maximum-likelihood calibration of the two-layer
multi-population baseline, plus the joint random-walk fit of the period
effects.

Both stages, and the pandemic layer in `covid_layer`, maximize one Poisson
log-likelihood of the bilinear form
``sum(D * (base + a + b*k) - E * exp(base + a + b*k))`` (`loglik`, with its
analytic gradient `score`) by alternating per-block Newton updates.  The
a-update is exact; one function, `_newton_step`, makes both the b and the k
step, each halved until lnL does not fall, so lnL never decreases from sweep
to sweep.  Each accepted evaluation of lnL also gives the fitted deaths
``E * exp(base + a + b*k)`` that the next Newton step needs, so a sweep forms
the full-grid ``exp`` only once per parameter change.  The unusable cells
(E == 0, or NaN in D or E) are zeroed in D and E once per fit, so an
evaluation needs no mask: such a cell adds nothing to lnL and has no fitted
deaths.  Identification constraints (mean-zero period effect, unit-norm age
effect) are reapplied after every sweep; this gauge step leaves the
likelihood unchanged, so the k step's lnL and fitted deaths carry over, and
it does not rebuild the offset ``base + a``, which the next sweep's level
update rebuilds before anything reads it.
"""

from __future__ import annotations

import logging

import numpy as np

from .datastore import GENDERS, BaselineModel, period_series
from .errors import NumericalError, ValidationError

log = logging.getLogger(__name__)

REL_TOL = 1e-10
MAX_ITER = 10_000
MIN_YEARS = 3  # fewest years `fit_time_series` takes: one difference leaves no residual


def _usable(D, E):
    """The cells that enter the likelihood (finite D and E, and E > 0), and
    D and E zeroed outside them."""
    mask = np.isfinite(D) & np.isfinite(E) & (E > 0)
    return mask, np.where(mask, D, 0.0), np.where(mask, E, 0.0)


def _fitted(E, off, b, k):
    """``eta = off + b k`` and the fitted deaths ``E * exp(eta)``."""
    eta = b[:, None] * k
    eta += off
    fitted = np.exp(eta)
    fitted *= E
    return eta, fitted


def _evaluate(Dm, Em, off, b, k):
    """Poisson lnL and fitted deaths at ``eta = off + b k`` from one ``exp``.

    ``Dm`` and ``Em`` are D and E zeroed outside the usable cells, once per
    fit, so those cells add 0 to lnL and get fitted deaths 0 without a mask.
    Returns ``(sum(Dm * eta - Em * exp(eta)), Em * exp(eta))``, or
    ``(-inf, None)`` on overflow; ``exp`` runs over the full grid, so an
    overflow in any cell, usable or not, gives -inf.
    """
    with np.errstate(over="raise"):
        try:
            eta, fitted = _fitted(Em, off, b, k)
            eta *= Dm
            eta -= fitted
            return eta.sum(), fitted
        except FloatingPointError:
            return -np.inf, None


def loglik(D, E, a, b, k, base=0.0):
    """Poisson log-likelihood ``sum(D * eta - E * exp(eta))`` with
    ``eta = base + a + b k``, up to a constant, over the usable cells; -inf
    when ``exp`` overflows."""
    _, Dm, Em = _usable(D, E)
    return _evaluate(Dm, Em, base + a[:, None], b, k)[0]


def score(D, E, a, b, k, base=0.0):
    """Analytic gradient of `loglik` over the usable cells -> (da, db, dk)."""
    mask, Dm, _ = _usable(D, E)
    resid = Dm - np.where(mask, _fitted(E, base + a[:, None], b, k)[1], 0.0)
    return resid.sum(axis=1), resid @ k, b @ resid


# `score` of the common and country stages, in their parameter-first order.
def score_common(A, B, K, D, E):
    return score(D, E, A, B, K)


def score_country(alpha, beta, kappa, base, D, E):
    return score(D, E, alpha, beta, kappa, base)


def _newton_step(Dm, Em, off, b, k, which, dhat, lnl):
    """Newton step on block ``which`` ("b" or "k") of ``(b, k)``, whose lnL
    is ``lnl`` and fitted deaths ``dhat``: each component's score over its
    curvature, the whole step halved until lnL does not drop.

    Returns the new block, its lnL and its fitted deaths.  Raises
    NumericalError when 40 halvings do not restore lnL.
    """
    resid = Dm - dhat
    if which == "b":
        start, num, den = b, resid @ k, dhat @ (k * k)
    else:
        start, num, den = k, b @ resid, (b * b) @ dhat
    delta = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    floor = lnl - 1e-13 * (abs(lnl) + 1.0)
    step, new = 1.0, start + delta
    for _ in range(40):
        cand, fitted = _evaluate(Dm, Em, off, *((new, k) if which == "b" else (b, new)))
        if cand >= floor:
            return new, cand, fitted
        step *= 0.5
        new = start + step * delta
    raise NumericalError(f"step halving failed to restore lnL in the {which} update")


def fit_bilinear_poisson(D, E, base=0.0, fit_level=True, k0=None):
    """Core alternating-Newton fit of ``D ~ Poisson(E * exp(base + a + b k))``.

    Cells with ``E == 0`` (or NaN in either array) are excluded from the
    likelihood: they are zeroed in D and E once, before the first sweep, and
    every evaluation runs on the zeroed arrays.  The start is a flat ``b``
    and ``k0``, or a zero ``k``.  When ``fit_level`` is False the per-age
    level ``a`` stays at zero and the period effect is not centered.  Every
    evaluation of lnL that the fit keeps also yields the fitted deaths for
    the next Newton step.  One sweep computes: the level update and its
    evaluation (with the level only), which also rebuilds the offset; the b
    step and the k step, both by `_newton_step`, each one evaluation plus
    one per step halving; and the gauge step, which moves (a, b, k) but not
    ``a + b k`` and so needs no evaluation and no offset.
    Stops when lnL changes by at most ``REL_TOL`` relative, and raises
    NumericalError after ``MAX_ITER`` sweeps.  Returns ``(a, b, k, trace)``
    where ``trace`` is the iteration log of (iteration, lnL, max parameter
    change) tuples.
    """
    D = np.asarray(D, dtype=float)
    E = np.asarray(E, dtype=float)
    nx, nt = D.shape
    mask, Dm, Em = _usable(D, E)
    if not mask.any():
        raise NumericalError("no usable cells in likelihood")
    if (Dm < 0).any():
        raise ValidationError("negative death counts in likelihood")
    base = np.asarray(base, dtype=float)

    rows_d = Dm.sum(axis=1)
    has_deaths = rows_d > 0
    rows_d = np.maximum(rows_d, 1e-300)
    if fit_level:
        with np.errstate(divide="ignore"):
            rows_e = (Em * np.exp(np.where(mask, base, 0.0))).sum(axis=1)
            a = np.where(has_deaths, np.log(rows_d / np.maximum(rows_e, 1e-300)), -20.0)
    else:
        a = np.zeros(nx)
    b = np.full(nx, 1.0 / np.sqrt(nx))
    k = (np.zeros(nt) if k0 is None else np.asarray(k0, dtype=float).copy())

    off = base + a[:, None]
    lnl, dhat = _evaluate(Dm, Em, off, b, k)
    if not np.isfinite(lnl):
        raise NumericalError("non-finite log-likelihood at starting values")
    trace = [(0, lnl, np.inf)]
    prev = np.concatenate((a, b, k))
    for it in range(1, MAX_ITER + 1):
        if fit_level:
            rows_h = dhat.sum(axis=1)
            ok = has_deaths & (rows_h > 0)
            a = a + np.where(ok, np.log(rows_d / np.maximum(rows_h, 1e-300)), 0.0)
            off = base + a[:, None]
            lnl, dhat = _evaluate(Dm, Em, off, b, k)
            if not np.isfinite(lnl):
                raise NumericalError("non-finite log-likelihood during iteration", trace)

        b, lnl, dhat = _newton_step(Dm, Em, off, b, k, "b", dhat, lnl)
        k, lnl, dhat = _newton_step(Dm, Em, off, b, k, "k", dhat, lnl)

        # Reapply identification constraints; likelihood-neutral, so the k
        # step's lnL and fitted deaths carry over, and the offset is rebuilt
        # by the next level update before anything reads it.
        if fit_level:
            shift = k.sum() / nt
            k = k - shift
            a = a + b * shift
        norm = np.sqrt(b @ b)
        if norm > 0:
            b = b / norm
            k = k * norm

        params = np.concatenate((a, b, k))
        trace.append((it, lnl, np.abs(params - prev).max()))
        prev = params
        if abs(lnl - trace[-2][1]) <= REL_TOL * (abs(lnl) + 1.0):
            return a, b, k, trace
    raise NumericalError(f"no convergence after {MAX_ITER} iterations", trace)


def calibrate_baseline(panel, traces=None):
    """Fit the common (A, B, K) per gender on the aggregated data, then each
    country's (alpha, beta, kappa) with the common ``B K`` as a fixed offset,
    then the joint random-walk fit; returns a BaselineModel.

    K is signed to decrease overall (mortality improves) and each beta to
    sum >= 0; every fit has mean-zero k and unit-norm b.  When ``traces`` is
    a dict it is populated with the iteration logs, keyed ("common", g) and
    (country, g), in fit order.
    """
    traces = {} if traces is None else traces
    A, B, K = {}, {}, {}
    D, E = panel.aggregate()
    for gi, g in enumerate(GENDERS):
        A[g], B[g], K[g], trace = fit_bilinear_poisson(D[gi], E[gi])
        if np.sum(np.diff(K[g])) > 0:
            B[g], K[g] = -B[g], -K[g]
        traces[("common", g)] = trace
        log.info("common stage %s: %d iterations, lnL=%.6f", g, trace[-1][0], trace[-1][1])
    common = {g: np.outer(B[g], K[g]) for g in GENDERS}
    alpha, beta, kappa = {}, {}, {}
    for c in panel.countries:
        D, E = panel.country(c)
        for gi, g in enumerate(GENDERS):
            cg = (c, g)
            alpha[cg], beta[cg], kappa[cg], trace = fit_bilinear_poisson(
                D[gi], E[gi], base=common[g])
            if beta[cg].sum() < 0:
                beta[cg], kappa[cg] = -beta[cg], -kappa[cg]
            traces[cg] = trace
            log.info("country stage %s/%s: %d iterations, lnL=%.6f",
                     c, g, trace[-1][0], trace[-1][1])
    theta, delta, delta_tstat, sigma = fit_time_series(panel.countries, K, kappa)
    return BaselineModel(
        countries=panel.countries, ages=panel.ages, years=panel.years,
        A=A, B=B, K=K, alpha=alpha, beta=beta, kappa=kappa,
        theta=theta, delta=delta, delta_tstat=delta_tstat, sigma=sigma,
    ).validate()


# ---------------------------------------------------------------------------
# time-series layer


def fit_time_series(countries, K, kappa):
    """Joint random walk with drift for all period effects: the common ``K``
    of each gender and the ``kappa`` of each (country, gender).

    Drift is the mean first difference per series; the innovation covariance
    is the MLE (divisor n) of the stacked residuals.  The country-specific
    drifts delta are reported with t-statistics but forced to zero for
    projection, so that countries do not diverge from the common trend.
    Returns ``(theta, delta, delta_tstat, sigma)``, with ``sigma`` ordered
    as in `period_series`.
    """
    order = period_series(countries)
    effects = {"K": K, "kappa": kappa}
    diffs = np.stack([np.diff(effects[name][key]) for name, key in order])  # (nseries, nt-1)
    n = diffs.shape[1]
    if n + 1 < MIN_YEARS:
        raise NumericalError(f"time-series fit needs at least {MIN_YEARS} time points")
    drift = diffs.mean(axis=1)
    resid = diffs - drift[:, None]
    sigma = resid @ resid.T / n
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(np.diag(sigma) > 0, drift / np.sqrt(np.diag(sigma) / n), np.inf * np.sign(drift))
    theta = {key: d for (name, key), d in zip(order, drift) if name == "K"}
    delta = {key: d for (name, key), d in zip(order, drift) if name == "kappa"}
    delta_tstat = {key: float(t) for (name, key), t in zip(order, tstat) if name == "kappa"}
    return theta, delta, delta_tstat, sigma


def _start_and_drift(model, series):
    """Last calibrated value and projection drift of each (parameter, key)
    series: K drifts at theta, and each kappa is held (delta forced to 0)."""
    start = np.array([getattr(model, name)[key][-1] for name, key in series])
    drift = np.array([model.theta[key] if name == "K" else 0.0 for name, key in series])
    return start, drift


def project_period_effects(model, years_ahead, series):
    """Central projection of the (parameter, key) ``series``, such as those of
    `period_series`, ``years_ahead`` years after the calibration window;
    shape (len(series), len(years_ahead))."""
    start, drift = _start_and_drift(model, series)
    return start[:, None] + drift[:, None] * np.asarray(years_ahead)


def baseline_mu(model, country, gender, ages, years):
    """Force of mortality mu[x, t] under the two-layer model.

    Calibration years return the fitted values; later years use the central
    projection, `project_period_effects`.  Ages must lie inside the
    model's calibration range.
    """
    ages = np.atleast_1d(np.asarray(ages))
    years = np.atleast_1d(np.asarray(years))
    ai = np.searchsorted(model.ages, ages)
    if (ai >= len(model.ages)).any() or (model.ages[np.minimum(ai, len(model.ages) - 1)] != ages).any():
        raise ValidationError(f"ages outside model range {model.ages[0]}..{model.ages[-1]}")
    last = model.years[-1]
    ahead = years > last
    yj = np.minimum(np.searchsorted(model.years, years), len(model.years) - 1)
    missing = ~ahead & (model.years[yj] != years)
    if missing.any():
        raise ValidationError(f"year {years[missing][0]} before calibration range")
    K = model.K[gender][yj]
    kap = model.kappa[(country, gender)][yj]
    if ahead.any():
        K[ahead], kap[ahead] = project_period_effects(
            model, years[ahead] - last, (("K", gender), ("kappa", (country, gender))))
    B = model.B[gender][ai]
    alpha = model.alpha[(country, gender)][ai]
    beta = model.beta[(country, gender)][ai]
    return np.exp(np.outer(B, K) + alpha[:, None] + np.outer(beta, kap))


def simulate_period_effects(model, horizon, n_sims, rng):
    """Draw joint random-walk paths for all period effects.

    Returns an array of shape (n_sims, nseries, horizon) of simulated levels
    in `period_series` order; the drifts are those of the central projection
    (`project_period_effects`).
    """
    start, drift = _start_and_drift(model, period_series(model.countries))
    chol = np.linalg.cholesky(model.sigma + 1e-15 * np.eye(len(start)))
    eps = rng.standard_normal((n_sims, horizon, len(start))) @ chol.T
    steps = drift[None, None, :] + eps
    return start[None, :, None] + np.cumsum(steps, axis=1).transpose(0, 2, 1)
