"""Shared helpers for the test suite: constraint assertions, finite
difference gradient checks, the annualization identity and a daily cohort
microsimulation used as an oracle for the week-population recursion."""

import numpy as np

from pandmort.annualize_forecast import weekly_mean_factor
from pandmort.datastore import GENDERS

NORM_TOL = 1e-10
SUM_TOL = 1e-8
CODA_SUM_TOL = 1e-9


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
    if layer.V is not None:
        assert abs(np.linalg.norm(layer.V) - 1.0) < NORM_TOL


def assert_seasonal_constraints(effect):
    assert abs(effect.phi[:52].mean() - 1.0) < SUM_TOL
    assert (effect.phi > 0.0).all()


def assert_coda_constraints(fit):
    assert abs(fit.beta.sum()) < CODA_SUM_TOL
    assert abs(fit.kappa.sum()) < CODA_SUM_TOL
    assert abs(np.linalg.norm(fit.beta) - 1.0) < NORM_TOL


def annual_survival_gap(layer, phi, mu):
    """Relative gap per age between the annual and weekly two-year survival
    probabilities; the defining identity of the annualization."""
    m = weekly_mean_factor(layer, phi)
    lhs = np.exp(-(mu * np.exp(np.outer(layer.V, layer.X))).sum(axis=1))
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
