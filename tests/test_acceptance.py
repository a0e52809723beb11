"""Acceptance suite: one test per release criterion.

Each test is self-contained (no reliance on assertions made elsewhere) and
checks the stated tolerance directly, so ``pytest -v tests/test_acceptance.py``
prints one pass/fail line per criterion.
"""

import filecmp
import os

import numpy as np
import pytest

import pandmort.annualize_forecast as af
import pandmort.baseline as bl
import pandmort.cli as cli
import pandmort.coda as cd
import pandmort.covid_layer as cv
import pandmort.exposures as ex
import pandmort.seasonal as se
import pandmort.synthetic as sy
from pandmort.datastore import (
    MAX_WEEKS, CovidLayer, ScenarioSpec, SeasonalEffect, weeks_in_iso_year,
)
from util import (
    ROOT_TOL,
    annual_survival_gap,
    assert_annual_constraints,
    assert_baseline_constraints,
    assert_coda_constraints,
    assert_covid_constraints,
    assert_seasonal_constraints,
    daily_microsim,
    fd_gradient_error,
)

AGES = np.arange(0, 91)
YEARS = range(1970, 2020)


def test_criterion_01_baseline_recovery():
    for seed in (5, 11):
        truth = sy.make_baseline_truth(("AAA", "BBB"), AGES, YEARS, seed=seed)
        panel = sy.sample_annual_panel(truth, exposure=1e7, seed=seed + 1)
        model = bl.calibrate_baseline(panel)
        for g in ("m", "f"):
            assert np.corrcoef(model.K[g], truth["K"][g])[0, 1] > 0.9999
        for c in ("AAA", "BBB"):
            for g in ("m", "f"):
                assert np.corrcoef(
                    model.kappa[(c, g)], truth["kappa"][(c, g)]
                )[0, 1] > 0.9999
                fit = (
                    np.outer(model.B[g], model.K[g])
                    + model.alpha[(c, g)][:, None]
                    + np.outer(model.beta[(c, g)], model.kappa[(c, g)])
                )
                assert np.abs(fit - sy.true_ln_mu(truth, c, g)).max() < 5e-3


def test_criterion_02_score_finite_differences():
    rng = np.random.default_rng(0)
    nx, nt = 6, 5
    E = np.full((nx, nt), 800.0)
    true_a = rng.normal(-3.0, 0.2, nx)
    D = rng.poisson(E * np.exp(true_a)[:, None]).astype(float)

    def fd_error(D, E, a, b, k, base=0.0, blocks=slice(0, 3)):
        """`score`'s blocks against central differences of `loglik`."""
        grads = bl.score(D, E, a, b, k, base)[blocks]
        return fd_gradient_error(lambda: bl.loglik(D, E, a, b, k, base), grads,
                                 [a, b, k][blocks])

    def assert_exactly(wrapped, full):
        assert len(wrapped) == len(full)
        for w, f in zip(wrapped, full):
            np.testing.assert_array_equal(w, f)

    # common stage: 10 random points plus the fitted optimum
    for _ in range(10):
        a = rng.normal(-3.0, 0.2, nx)
        b = rng.normal(0.3, 0.05, nx)
        k = rng.normal(0.0, 0.5, nt)
        assert fd_error(D, E, a, b, k) < 1e-6
        assert_exactly(bl.score_common(a, b, k, D, E), bl.score(D, E, a, b, k))
    a, b, k, _ = bl.fit_bilinear_poisson(D, E)
    assert fd_error(D, E, a, b, k) < 1e-6

    # country stage, with a fixed common-layer offset
    base = np.outer(rng.normal(0.3, 0.05, nx), rng.normal(0.0, 0.5, nt)) * 0.1
    for _ in range(10):
        al = rng.normal(-3.0, 0.2, nx)
        be = rng.normal(0.3, 0.05, nx)
        ka = rng.normal(0.0, 0.5, nt)
        assert fd_error(D, E, al, be, ka, base) < 1e-6
        assert_exactly(bl.score_country(al, be, ka, base, D, E),
                       bl.score(D, E, al, be, ka, base))
    al, be, ka, _ = bl.fit_bilinear_poisson(D, E, base=base)
    assert fd_error(D, E, al, be, ka, base) < 1e-6

    # pandemic stage (deaths vs predicted deaths, no level term: a = 0)
    P = rng.uniform(30.0, 100.0, (nx, nt))
    Dc = rng.poisson(P * 1.3).astype(float)
    zero = np.zeros(nx)
    for _ in range(10):
        bb = rng.normal(0.3, 0.05, nx)
        kk = rng.normal(0.0, 0.5, nt)
        assert fd_error(Dc, P, zero, bb, kk, blocks=slice(1, 3)) < 1e-6
        assert_exactly(cv.score_covid(bb, kk, Dc, P), bl.score(Dc, P, zero, bb, kk)[1:])
    _, bb, kk, _ = bl.fit_bilinear_poisson(Dc, P, fit_level=False)
    assert fd_error(Dc, P, zero, bb, kk, blocks=slice(1, 3)) < 1e-6


def test_criterion_03_constraint_suite(baseline_model, pandemic_truth, phi_truth):
    # one fit of each kind; the same assertions also run throughout the
    # per-module suites on every other fit produced
    assert_baseline_constraints(baseline_model)

    mu = np.tile(np.exp(-5.0 + 0.055 * AGES)[:, None], (1, 2))
    panel = sy.sample_weekly_panel("AAA", "m", pandemic_truth, mu,
                                   phi=phi_truth, seed=17)
    eff = SeasonalEffect(country="AAA", gender="m", knots=12, coeffs=None,
                         phi=phi_truth)
    pred = cv.predicted_deaths(panel, mu, seasonal=eff, method=2)
    layer = cv.calibrate_covid(panel, pred, method=2)
    assert_covid_constraints(layer)

    assert_annual_constraints(af.annualize(layer, phi_truth, mu))

    fractions = se.weekly_fractions(panel)
    fitted = se.fit_seasonal_spline(fractions, country="AAA", gender="m")
    assert_seasonal_constraints(fitted)

    d2020 = panel.deaths[:, panel.years.index(2020), :weeks_in_iso_year(2020)]
    fit = cd.coda_fit(d2020, AGES, 2020, "m")
    assert_coda_constraints(fit)


def test_criterion_04_annualization_identity():
    for seed in (3, 8, 15):
        ages = np.arange(35, 91)
        pand = sy.make_pandemic_truth(ages, seed=seed, amplitude=0.35)
        layer = CovidLayer(
            country="AAA", gender="m", ages=tuple(ages), years=(2020, 2021), method=2,
            B=pand["B"], K=pand["K"],
        )
        phi = sy.seasonal_phi(0.2)
        rng = np.random.default_rng(seed)
        mu = rng.uniform(1e-3, 0.1, (len(ages), 2))
        out = af.annualize(layer, phi, mu)
        assert annual_survival_gap(layer, out, phi, mu).max() < 1e-10

        # renormalizing V to unit norm must leave the products V_x X_t alone
        from scipy.optimize import brentq

        m = af.weekly_mean_factor(layer, phi)
        X_raw = np.log(m).sum(axis=0)
        V_raw = np.empty(len(ages))
        for i in range(len(ages)):
            V_raw[i] = brentq(
                lambda v: float((mu[i] * (np.exp(v * X_raw) - m[i])).sum()),
                -af.BRACKET, af.BRACKET, xtol=ROOT_TOL,
            )
        np.testing.assert_allclose(
            np.outer(V_raw, X_raw), np.outer(out.V, out.X), atol=1e-12
        )


def test_criterion_05_scenario_algebra(baseline_model):
    x2021 = 0.8
    spec = ScenarioSpec("decreasing_impact", x2021, 0.0, 0.5)
    assert af.build_scenario(spec, 50)[1] == 0.25 * x2021  # exact

    calib_ages = np.arange(35, 91)
    rng = np.random.default_rng(1)
    V = np.abs(rng.normal(0.1, 0.05, len(calib_ages)))
    V /= np.linalg.norm(V)
    scens = af.standard_scenarios(x2021, eta=0.5)
    fs = af.forecast_scenarios(baseline_model, "AAA", "m", V, calib_ages,
                               scens, first_year=2022, report_years=30)
    fs.validate()

    years = np.arange(fs.years[0], fs.years[0] + len(fs.years))
    mu_pre = af.extended_baseline_mu(baseline_model, "AAA", "m", years)
    assert np.array_equal(fs.mu["completely_incidental"], mu_pre)

    # pointwise q ordering at V > 0 ages: among the five scenarios sharing
    # the 2021 starting level, larger long-run impact means larger q
    V_ext = af.extend_age_effect(V, calib_ages, fs.ages)
    pos = V_ext > 0
    q = {name: 1.0 - np.exp(-mu) for name, mu in fs.mu.items()}
    order = ["increased_resilience", "decreasing_impact", "new_normal",
             "completely_structural", "growing_impact"]
    for lo, hi in zip(order[:-1], order[1:]):
        assert np.all(q[lo][pos] <= q[hi][pos])
    # the incidental path (identically zero) sits below every path that
    # stays non-negative
    for name in order[1:]:
        assert np.all(q["completely_incidental"][pos] <= q[name][pos])


def test_criterion_06_exposure_pipeline(annual_panel, pandemic_truth, phi_truth):
    # week-population recursion vs a daily cohort microsimulation
    ages = np.arange(12)
    start = 1000.0 + 50.0 * ages
    annual_m = 0.01 * np.exp(0.15 * ages)
    daily_m = 1.0 - (1.0 - annual_m) ** (1.0 / 364.0)
    end_pop, deaths = daily_microsim(start, daily_m)
    c = ex.cohort_deaths(deaths)
    p = ex.project_population(start, c)
    # the open top age uses a different boundary convention; compare interior
    rel = np.abs(p[:-1, -1] - end_pop[:-1]) / end_pop[:-1]
    assert rel.max() < 5e-3

    # disaggregation preserves grouped weekly totals to machine precision
    mu = np.tile(np.exp(-5.0 + 0.05 * AGES)[:, None], (1, 2))
    indiv = sy.sample_weekly_panel("AAA", "m", pandemic_truth, mu,
                                   phi=phi_truth, seed=12)
    bounds = [(lo, lo + 4) for lo in range(0, 90, 5)] + [(90, 90)]
    grouped = cv.aggregate_to_groups(indiv, bounds)
    back = ex.disaggregate_deaths(grouped, annual_panel, range(2015, 2020))
    pos = 0
    for gidx, group in enumerate(grouped.ages):
        n = len(list(group.ages))
        got = np.nansum(back.deaths[pos : pos + n], axis=0)
        want = np.where(np.isnan(grouped.deaths[gidx]), 0.0,
                        grouped.deaths[gidx])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        pos += n


def test_criterion_07_coda_oracle():
    rng = np.random.default_rng(1)
    nx, nw = 40, 52
    ages = np.arange(60, 60 + nx)
    beta = rng.normal(0.0, 1.0, nx)
    beta -= beta.mean()
    beta /= np.linalg.norm(beta)
    kappa = rng.normal(0.0, 1.0, nw)
    kappa -= kappa.mean()
    alpha = rng.normal(0.0, 0.5, nx)
    alpha -= alpha.mean()
    comp = np.exp(alpha[None, :] + np.outer(kappa, beta))
    comp /= comp.sum(axis=1, keepdims=True)

    fit = cd.coda_fit(comp.T, ages, 2020, "m", perturb=False)
    assert abs(fit.explained_variance - 1.0) < 1e-10

    # leading pair must match a brute-force SVD of the centered clr matrix
    Z = cd.clr(comp)
    Zc = Z - Z.mean(axis=0)
    U, s, Vt = np.linalg.svd(Zc, full_matrices=False)
    beta_svd = Vt[0]
    kappa_svd = U[:, 0] * s[0]
    sign = np.sign(beta_svd @ fit.beta)
    np.testing.assert_allclose(sign * fit.beta, beta_svd, atol=1e-10)
    np.testing.assert_allclose(sign * fit.kappa, kappa_svd, atol=1e-10)


def test_criterion_08_granularity_study():
    truth = sy.make_baseline_truth(("AAA", "BBB"), AGES, YEARS, seed=5)
    phi = sy.seasonal_phi(0.18)
    mu_last = np.exp(sy.true_ln_mu(truth, "AAA", "m")[:, -1])
    mu_annual = np.stack([mu_last, mu_last], axis=1)
    bumpf = 1.3
    annual = sy.sample_annual_panel(truth, exposure=1e6, seed=6,
                                    cohort_bump=(1955, bumpf))
    model = bl.calibrate_baseline(annual)
    pand = sy.make_pandemic_truth(AGES, seed=3, amplitude=0.15)
    expo = np.full((len(AGES), 2), 1e6 * 7.0 / 365.0)
    expo[AGES == 65, 0] *= bumpf  # the 1955 cohort is 65 in 2020, 66 in 2021
    expo[AGES == 66, 1] *= bumpf
    panel = sy.sample_weekly_panel("AAA", "m", pand, mu_annual, phi=phi,
                                   exposure_week=expo, seed=21)
    eff = SeasonalEffect(country="AAA", gender="m", knots=12, coeffs=None,
                         phi=phi)
    res = cv.run_granularity_study(panel, annual, model, eff, range(2015, 2020),
                                   levels=(1, 2, 3), method=2)
    k1 = cv.flatten_weeks(res[1], res[1].K)
    for level in (2, 3):
        kl = cv.flatten_weeks(res[level], res[level].K)
        assert np.abs(kl - k1).max() < 0.05
    # the cohort bump distorts the age effect only under grouped input
    dev = np.abs(res[3].B - res[1].B)
    bump = np.isin(AGES, [65, 66])
    assert dev[bump].min() > np.median(dev[~bump])


def test_criterion_09_method_comparison():
    ages = np.arange(35, 91)
    pand = sy.make_pandemic_truth(ages, seed=3)
    pand["K"][1, :52] = 0.0  # pandemic-free second year
    phi = sy.seasonal_phi(0.2)
    mu = np.tile(np.exp(-9.5 + 0.095 * ages)[:, None], (1, 2))
    panel = sy.sample_weekly_panel("AAA", "m", pand, mu, phi=phi, seed=11)

    pred1 = cv.predicted_deaths(panel, mu, method=1)
    lay1 = cv.calibrate_covid(panel, pred1, method=1)

    # a flat seasonal curve makes the two methods numerically identical
    flat = SeasonalEffect(country="AAA", gender="m", knots=12, coeffs=None,
                          phi=np.ones(MAX_WEEKS))
    predf = cv.predicted_deaths(panel, mu, seasonal=flat, method=2)
    layf = cv.calibrate_covid(panel, predf, method=2)
    assert np.abs(layf.B - lay1.B).max() < 1e-10
    assert np.nanmax(np.abs(layf.K - lay1.K)) < 1e-10

    # with real seasonality, only Method 1 leaks it into the week effects
    eff = SeasonalEffect(country="AAA", gender="m", knots=12, coeffs=None,
                         phi=phi)
    pred2 = cv.predicted_deaths(panel, mu, seasonal=eff, method=2)
    lay2 = cv.calibrate_covid(panel, pred2, method=2)
    k1 = np.abs(lay1.K[1, :52]).mean()
    k2 = np.abs(lay2.K[1, :52]).mean()
    assert k1 / k2 >= 2.0


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_text = """\
[data]
dir = {datadir}

[run]
countries = AAA,BBB
years = 1970:2019
ages = 0:90
covid_ages = 40:90
seasonal_years = 2010:2019
hist_years = 2015:2019
method = 2
knots = 12
eta = 0.5
horizon = 30
seed = 1234
"""
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--seed", "1234"]) == 0
    cfg = tmp_path / "run.ini"
    cfg.write_text(cfg_text.format(datadir=data))
    outs = []
    for rep in (1, 2):
        out = tmp_path / f"out{rep}"
        assert cli.main(["run-all", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)

    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                               shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == names
