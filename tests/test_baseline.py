import dataclasses
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pandmort.baseline as bl
import pandmort.synthetic as sy
from pandmort.errors import NumericalError, ValidationError
import util
from util import assert_baseline_constraints


def test_fit_bilinear_recovers_level_only():
    rng = np.random.default_rng(0)
    nx, nt = 8, 6
    a_true = rng.normal(-3.0, 0.3, nx)
    E = np.full((nx, nt), 1e6)
    D = rng.poisson(E * np.exp(a_true)[:, None]).astype(float)
    a, b, k, trace = bl.fit_bilinear_poisson(D, E)
    np.testing.assert_allclose(a, a_true, atol=0.01)
    # with no time signal the period effect stays near zero
    assert np.abs(np.outer(b, k)).max() < 0.01


def test_fit_bilinear_monotone_loglik():
    rng = np.random.default_rng(1)
    nx, nt = 15, 20
    b_true = rng.uniform(0.1, 0.4, nx)
    k_true = np.linspace(2.0, -2.0, nt)
    E = np.full((nx, nt), 1e5)
    lam = E * np.exp(-3.0 + np.outer(b_true, k_true))
    D = rng.poisson(lam).astype(float)
    _, _, _, trace = bl.fit_bilinear_poisson(D, E)
    lnls = [t[1] for t in trace]
    assert all(y >= x - 1e-7 * (abs(x) + 1) for x, y in zip(lnls, lnls[1:]))


def test_fit_bilinear_excludes_zero_exposure_cells():
    rng = np.random.default_rng(2)
    nx, nt = 6, 8
    E = np.full((nx, nt), 1e5)
    E[0, 0] = 0.0
    D = rng.poisson(E * np.exp(-3.0)).astype(float)
    D[0, 0] = 0.0
    a, b, k, _ = bl.fit_bilinear_poisson(D, E)
    assert np.isfinite(a).all() and np.isfinite(k).all()


def test_fit_bilinear_rejects_negative_deaths():
    D = np.full((3, 3), -1.0)
    E = np.ones((3, 3))
    with pytest.raises(ValidationError):
        bl.fit_bilinear_poisson(D, E)


def test_fit_bilinear_no_usable_cells():
    with pytest.raises(NumericalError):
        bl.fit_bilinear_poisson(np.ones((2, 2)), np.zeros((2, 2)))


def test_overflow_gives_minus_inf_lnl_and_non_finite_score():
    D = np.ones((2, 3))
    E = np.ones((2, 3))
    a, b, k = np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0, 800.0])
    assert bl.loglik(D, E, a, b, k) == -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        da, db, dk = bl.score(D, E, a, b, k)
    # only the overflowing cell (age 0, period 2) is non-finite
    assert da[0] == -np.inf and np.isfinite(da[1])
    assert np.isfinite(dk[:2]).all() and dk[2] == -np.inf
    assert np.isfinite(db[1]) and not np.isfinite(db[0])
    # an overflow in an unusable cell still makes lnL -inf, but adds nothing
    # to the score: it is the score with that cell's exponent at 0
    E[0, 2] = 0.0
    assert bl.loglik(D, E, a, b, k) == -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        masked = bl.score(D, E, a, b, k)
    assert all(np.isfinite(part).all() for part in masked)
    for part, at_zero in zip(masked, bl.score(D, E, a, b, np.array([0.0, 1.0, 0.0]))):
        assert np.array_equal(part, at_zero)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8),
       st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
def test_loglik_is_invariant_under_the_gauge_moves(seed, nx, nt, c, s):
    """lnL depends on (a, b, k) only through a + b k, so neither rescaling
    (b, k) -> (cb, k/c) nor shifting (a, k) -> (a + bs, k - s) changes it."""
    rng = np.random.default_rng(seed)
    E = rng.uniform(10.0, 1e5, (nx, nt))
    a = rng.normal(-4.0, 1.0, nx)
    b = rng.normal(0.0, 0.2, nx)
    k = rng.normal(0.0, 3.0, nt)
    D = rng.poisson(E * np.exp(a[:, None] + np.outer(b, k))).astype(float)
    lnl = bl.loglik(D, E, a, b, k)
    assert np.isfinite(lnl)
    np.testing.assert_allclose(bl.loglik(D, E, a, c * b, k / c), lnl, rtol=1e-12)
    np.testing.assert_allclose(bl.loglik(D, E, a + b * s, b, k - s), lnl, rtol=1e-12)


def _bilinear_panel(seed, nx, nt, grid_base, fit_level):
    """Poisson deaths of ``E * exp(base + a + b k)`` and the fit's ``base``:
    a scalar, or a full (nx, nt) grid when ``grid_base``; ``a`` is 0 when
    the fit has no level."""
    rng = np.random.default_rng(seed)
    E = rng.uniform(1e3, 1e5, (nx, nt))
    base = rng.normal(-4.0, 0.5, (nx, nt)) if grid_base else -4.0
    a = rng.normal(0.0, 0.5, nx) if fit_level else np.zeros(nx)
    eta = base + a[:, None] + np.outer(rng.uniform(0.05, 0.4, nx), rng.normal(0.0, 1.0, nt))
    return rng.poisson(E * np.exp(eta)).astype(float), E, base


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 8), st.booleans(),
       st.booleans())
def test_fit_bilinear_trace_ends_at_the_loglik_of_the_returned_fit(seed, nx, nt, grid_base,
                                                                   fit_level):
    """The last sweep's lnL is that of its k step, before the gauge step; the
    gauge step leaves lnL unchanged, so it is lnL at the returned parameters."""
    D, E, base = _bilinear_panel(seed, nx, nt, grid_base, fit_level)
    a, b, k, trace = bl.fit_bilinear_poisson(D, E, base=base, fit_level=fit_level)
    np.testing.assert_allclose(trace[-1][1], bl.loglik(D, E, a, b, k, base), rtol=1e-12)


@st.composite
def bilinear_problems(draw):
    """Poisson deaths of ``E * exp(base + a + b k)`` and the arguments of a
    fit: ``base`` 0, a non-zero scalar or a full grid; with or without the
    level; some cells masked (zero exposure or NaN deaths); some rows
    without deaths; and optionally a given starting value ``k0``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, nt = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    fit_level = draw(st.booleans())
    base = {"zero": 0.0, "scalar": -4.0, "grid": rng.normal(-4.0, 0.5, (nx, nt))}[
        draw(st.sampled_from(("zero", "scalar", "grid")))]
    E = 10.0 ** rng.uniform(0.0, 5.0, (nx, nt))
    a = rng.normal(0.0, 0.5, nx) if fit_level else np.zeros(nx)
    eta = base + a[:, None] + np.outer(rng.uniform(0.05, 0.4, nx), rng.normal(0.0, 1.0, nt))
    D = rng.poisson(E * np.exp(eta)).astype(float)
    if draw(st.booleans()):
        E[rng.random(E.shape) < 0.2] = 0.0
        D[rng.random(D.shape) < 0.1] = np.nan
    start = {}
    if draw(st.booleans()):
        start = {"k0": rng.normal(0.0, 1.0, nt)}
    return D, E, dict(base=base, fit_level=fit_level, **start)


def _fit_bits(fit, *args, **kwargs):
    """The bytes of a fit's (a, b, k) and of every trace tuple, or the type and
    text of the error it raises."""
    try:
        a, b, k, trace = fit(*args, **kwargs)
    except (NumericalError, ValidationError) as exc:
        return type(exc), str(exc)
    return ([p.tobytes() for p in (a, b, k)],
            [(it, np.float64(lnl).tobytes(), np.float64(change).tobytes())
             for it, lnl, change in trace])


@settings(max_examples=150, deadline=None)
@given(bilinear_problems())
def test_fit_bilinear_matches_the_loop_oracle_bit_for_bit(problem):
    """The fit returns the bits of the sweep it replaced (`util`), trace
    included: the dropped offset rebuild and the per-fit constants change no
    output bit."""
    D, E, kwargs = problem
    with pytest.MonkeyPatch.context() as mp:
        # Both stop after 200 sweeps, so that a slow fit compares its first
        # 200 sweeps and its error instead of running up to 10,000.
        mp.setattr(bl, "MAX_ITER", 200)
        mp.setattr(util, "MAX_ITER", 200)
        assert (_fit_bits(bl.fit_bilinear_poisson, D, E, **kwargs)
                == _fit_bits(util.loop_fit_bilinear_poisson, D, E, **kwargs))


@pytest.mark.parametrize("fit_level", [True, False])
def test_fit_bilinear_evaluates_outside_the_steps_at_start_and_level_only(monkeypatch,
                                                                          fit_level):
    """Besides the b and k steps, a fit evaluates the full grid once at its
    start and once per level update: the k step's evaluation carries over
    the gauge step."""
    callers = []
    evaluate = bl._evaluate

    def counting(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return evaluate(*args)

    monkeypatch.setattr(bl, "_evaluate", counting)
    D, E, base = _bilinear_panel(3, 6, 8, True, fit_level)
    _, _, _, trace = bl.fit_bilinear_poisson(D, E, base=base, fit_level=fit_level)
    sweeps = trace[-1][0]
    assert sweeps >= 2
    assert sum(c != "_newton_step" for c in callers) == (1 + sweeps if fit_level else 1)


def test_fit_bilinear_raises_when_halving_fails(monkeypatch):
    # an lnL that drops at every evaluation can never be restored by halving
    calls = itertools.count(1)
    evaluate = bl._evaluate
    monkeypatch.setattr(bl, "_evaluate",
                        lambda *args: (-float(next(calls)), evaluate(*args)[1]))
    D = np.ones((3, 4))
    with pytest.raises(NumericalError, match="halving"):
        bl.fit_bilinear_poisson(D, 10.0 * D)
    # start, level update, then 40 halvings of the b step
    assert next(calls) == 1 + 1 + 40 + 1


def test_fit_bilinear_raises_after_max_iter(monkeypatch):
    rng = np.random.default_rng(1)
    E = np.full((15, 20), 1e5)
    D = rng.poisson(E * np.exp(-3.0 + np.outer(rng.uniform(0.1, 0.4, 15),
                                                np.linspace(2.0, -2.0, 20)))).astype(float)
    monkeypatch.setattr(bl, "MAX_ITER", 3)
    with pytest.raises(NumericalError, match="no convergence after 3 iterations") as err:
        bl.fit_bilinear_poisson(D, E)
    # the starting point and one entry per sweep
    assert len(err.value.trace) == 1 + 3
    assert [t[0] for t in err.value.trace] == [0, 1, 2, 3]


def test_calibrate_baseline_constraints(baseline_model):
    assert_baseline_constraints(baseline_model)


def test_calibrate_baseline_recovery(baseline_truth, annual_panel, baseline_model):
    # loose version of the acceptance check, on the shared 1e6-exposure panel
    for g in ("m", "f"):
        assert np.corrcoef(baseline_model.K[g], baseline_truth["K"][g])[0, 1] > 0.999
    for c in ("AAA", "BBB"):
        for g in ("m", "f"):
            fit = (
                np.outer(baseline_model.B[g], baseline_model.K[g])
                + baseline_model.alpha[(c, g)][:, None]
                + np.outer(baseline_model.beta[(c, g)], baseline_model.kappa[(c, g)])
            )
            assert np.abs(fit - sy.true_ln_mu(baseline_truth, c, g)).max() < 0.05


def test_time_series_theta_negative(baseline_model):
    # mortality improves in the synthetic truth, so the common drift is down
    for g in ("m", "f"):
        assert baseline_model.theta[g] < 0.0
    assert baseline_model.sigma.shape == (6, 6)
    # innovation covariance must be symmetric positive semidefinite
    np.testing.assert_allclose(baseline_model.sigma, baseline_model.sigma.T)
    assert np.linalg.eigvalsh(baseline_model.sigma).min() > -1e-12
    for key in baseline_model.delta:
        assert np.isfinite(baseline_model.delta_tstat[key])


def test_time_series_needs_three_years(annual_panel):
    short = annual_panel.select(ages=annual_panel.ages, years=np.arange(2018, 2020))
    with pytest.raises(NumericalError):
        bl.calibrate_baseline(short)


def test_project_period_effects(baseline_model):
    order = bl.period_series(baseline_model.countries)
    paths = bl.project_period_effects(baseline_model, np.arange(1, 6), order)
    assert paths.shape == (len(order), 5)
    K = {key: path for (name, key), path in zip(order, paths) if name == "K"}
    kappa = {key: path for (name, key), path in zip(order, paths) if name == "kappa"}
    assert set(kappa) == set(baseline_model.kappa)
    for g in ("m", "f"):
        np.testing.assert_allclose(
            K[g], baseline_model.K[g][-1] + baseline_model.theta[g] * np.arange(1, 6)
        )
    for key, path in kappa.items():
        np.testing.assert_allclose(path, baseline_model.kappa[key][-1])


def test_series_order_is_the_fitted_order(baseline_model):
    order = bl.period_series(baseline_model.countries)
    assert order[:3] == [("K", "m"), ("K", "f"), ("kappa", ("AAA", "m"))]
    diffs = np.stack([np.diff(getattr(baseline_model, name)[key]) for name, key in order])
    for (name, key), drift in zip(order, diffs.mean(axis=1)):
        assert (baseline_model.theta if name == "K" else baseline_model.delta)[key] == drift


def test_simulation_without_noise_is_the_central_projection(baseline_model):
    model = dataclasses.replace(baseline_model, sigma=np.zeros_like(baseline_model.sigma))
    sims = bl.simulate_period_effects(model, 40, 2, np.random.default_rng(0))
    central = bl.project_period_effects(baseline_model, np.arange(1, 41),
                                        bl.period_series(baseline_model.countries))
    for sim in sims:
        np.testing.assert_allclose(sim, central, rtol=0, atol=1e-6)


def test_baseline_mu_after_window_is_exp_of_projected_effects(baseline_model):
    ages = np.arange(0, 91, 7)
    years = np.arange(2020, 2031)
    K, kap = bl.project_period_effects(baseline_model, years - baseline_model.years[-1],
                                       [("K", "f"), ("kappa", ("BBB", "f"))])
    expected = np.exp(np.outer(baseline_model.B["f"][ages], K)
                      + baseline_model.alpha[("BBB", "f")][ages][:, None]
                      + np.outer(baseline_model.beta[("BBB", "f")][ages], kap))
    np.testing.assert_array_equal(bl.baseline_mu(baseline_model, "BBB", "f", ages, years),
                                  expected)


def test_baseline_mu_fitted_vs_projected(baseline_model):
    ages = np.array([50, 70])
    mu_fit = bl.baseline_mu(baseline_model, "AAA", "m", ages, np.array([2019]))
    g = "m"
    expected = np.exp(
        baseline_model.B[g][ages] * baseline_model.K[g][-1]
        + baseline_model.alpha[("AAA", g)][ages]
        + baseline_model.beta[("AAA", g)][ages] * baseline_model.kappa[("AAA", g)][-1]
    )
    np.testing.assert_allclose(mu_fit[:, 0], expected, rtol=1e-12)
    mu_next = bl.baseline_mu(baseline_model, "AAA", "m", ages, np.array([2020]))
    # negative drift: projected mortality below the last fitted year
    assert (mu_next[:, 0] < mu_fit[:, 0]).all()


def test_baseline_mu_rejects_out_of_range(baseline_model):
    with pytest.raises(ValidationError):
        bl.baseline_mu(baseline_model, "AAA", "m", np.array([120]), np.array([2019]))
    with pytest.raises(ValidationError):
        bl.baseline_mu(baseline_model, "AAA", "m", np.array([50]), np.array([1950]))


def test_simulate_period_effects_deterministic(baseline_model):
    sims1 = bl.simulate_period_effects(baseline_model, 10, 5, np.random.default_rng(42))
    sims2 = bl.simulate_period_effects(baseline_model, 10, 5, np.random.default_rng(42))
    np.testing.assert_array_equal(sims1, sims2)
    assert sims1.shape == (5, 6, 10)
    # mean path of the common effects should track the drift
    mean_last = sims1[:, 0, -1].mean()
    expected = baseline_model.K["m"][-1] + 10 * baseline_model.theta["m"]
    assert abs(mean_last - expected) < 1.0
