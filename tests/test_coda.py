import numpy as np
import pytest

import pandmort.coda as cd
import pandmort.synthetic as sy
from pandmort.datastore import weeks_in_iso_year
from pandmort.errors import ValidationError
from util import assert_coda_constraints


def test_closure_and_clr_inverse():
    rng = np.random.default_rng(0)
    counts = rng.uniform(1.0, 100.0, (5, 8))
    comp = cd.closure(counts)
    np.testing.assert_allclose(comp.sum(axis=1), 1.0)
    z = cd.clr(comp)
    np.testing.assert_allclose(z.sum(axis=1), 0.0, atol=1e-12)
    back = cd.inverse_clr(z)
    np.testing.assert_allclose(back, comp, rtol=1e-12)


def rank1_compositions(nx, nw, seed, ages):
    """Exact rank-1 clr structure: comp ∝ exp(alpha + kappa beta)."""
    rng = np.random.default_rng(seed)
    beta = rng.normal(0.0, 1.0, nx)
    beta -= beta.mean()
    beta /= np.linalg.norm(beta)
    if beta[ages >= 80].sum() < 0:
        beta = -beta
    kappa = rng.normal(0.0, 1.0, nw)
    kappa -= kappa.mean()
    alpha = rng.normal(0.0, 0.5, nx)
    alpha -= alpha.mean()
    comp = np.exp(alpha[None, :] + np.outer(kappa, beta))
    comp /= comp.sum(axis=1, keepdims=True)
    return comp, alpha, beta, kappa


def test_rank1_recovery_exact():
    ages = np.arange(60, 80 + 20)
    comp, alpha, beta, kappa = rank1_compositions(40, 52, 1, ages)
    fit = cd.coda_fit(comp.T, ages, 2020, "m", perturb=False)
    assert_coda_constraints(fit)
    assert fit.explained_variance == pytest.approx(1.0, abs=1e-12)
    s = np.sign(fit.beta @ beta)
    np.testing.assert_allclose(s * fit.beta, beta, atol=1e-10)
    np.testing.assert_allclose(s * fit.kappa, kappa, atol=1e-10)
    np.testing.assert_allclose(fit.alpha, alpha, atol=1e-10)


def test_coda_fit_on_sampled_weekly_deaths(pandemic_truth, phi_truth):
    mu = np.tile(np.exp(-5.0 + 0.05 * np.arange(91))[:, None], (1, 2))
    wp = sy.sample_weekly_panel("AAA", "m", pandemic_truth, mu, phi=phi_truth, seed=9)
    d = wp.deaths[:, wp.years.index(2020), :weeks_in_iso_year(2020)]
    fit = cd.coda_fit(d, np.arange(91), 2020, "m")
    assert_coda_constraints(fit)
    assert 0.0 < fit.explained_variance <= 1.0
    # pandemic weeks shift composition towards the old, week scores move with
    # the pandemic week effect
    k2020 = pandemic_truth["K"][0, :53]
    assert abs(np.corrcoef(fit.kappa, k2020)[0, 1]) > 0.5


def test_degenerate_constant_composition():
    d = np.full((10, 52), 7.0)
    fit = cd.coda_fit(d, np.arange(10), 2020, "m", perturb=False)
    assert fit.degenerate
    assert fit.explained_variance == 0.0
    np.testing.assert_array_equal(fit.kappa, 0.0)
    assert_coda_constraints(fit)


def test_perturbation_handles_zero_counts():
    rng = np.random.default_rng(4)
    d = rng.poisson(0.5, (12, 52)).astype(float)
    assert (d == 0).any()
    with pytest.raises(ValidationError):
        cd.coda_fit(d, np.arange(12), 2020, "m", perturb=False)
    fit = cd.coda_fit(d, np.arange(12), 2020, "m", perturb=True)
    assert_coda_constraints(fit)


def test_coda_fit_input_validation():
    with pytest.raises(ValidationError):
        cd.coda_fit(np.ones((3, 52)), np.arange(4), 2020, "m")
    bad = np.ones((3, 52))
    bad[0, 0] = -1.0
    with pytest.raises(ValidationError):
        cd.coda_fit(bad, np.arange(3), 2020, "m")


def test_reconstruct_compositions_rank1():
    ages = np.arange(60, 100)
    comp, *_ = rank1_compositions(40, 52, 2, ages)
    fit = cd.coda_fit(comp.T, ages, 2021, "f", perturb=False)
    back = cd.reconstruct_compositions(fit)
    np.testing.assert_allclose(back, comp, atol=1e-10)


def test_standardized_weekly_deaths():
    totals = np.array([10.0, 20.0, 30.0, 40.0])
    z = cd.standardized_weekly_deaths(totals)
    assert abs(z.mean()) < 1e-12
    assert z.std() == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        cd.standardized_weekly_deaths(np.full(5, 3.0))
