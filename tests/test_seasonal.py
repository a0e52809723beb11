import numpy as np
import pytest

import pandmort.ingest as ig
import pandmort.seasonal as se
import pandmort.synthetic as sy
from pandmort.errors import NumericalError, ValidationError
from util import assert_seasonal_constraints


def make_fractions(phi, years, noise=0.0, seed=0):
    """Weekly fraction vectors consistent with a known seasonal curve."""
    rng = np.random.default_rng(seed)
    out = {}
    for t in years:
        wt = ig.weeks_in_iso_year(t)
        f = phi[:wt].copy()
        if noise:
            f = f * (1.0 + rng.normal(0.0, noise, wt))
        out[t] = f / f.sum() * wt
    return out


def test_weekly_fractions(pandemic_truth, phi_truth):
    mu = np.tile(np.exp(-5.0 + 0.05 * np.arange(91))[:, None], (1, 2))
    # no pandemic: exp(B K) is 1 with K zeroed
    quiet = dict(pandemic_truth, K=np.zeros_like(pandemic_truth["K"]))
    wp = sy.sample_weekly_panel("AAA", "m", quiet, mu, phi=phi_truth, seed=5)
    fr = se.weekly_fractions(wp)
    assert set(fr) == {2020, 2021}
    assert len(fr[2020]) == 53 and len(fr[2021]) == 52
    # scaled fractions average one by construction
    for t, f in fr.items():
        assert abs(f.mean() - 1.0) < 1e-12
    # winter peak visible in the data
    assert fr[2021][:4].mean() > fr[2021][24:30].mean()


def test_weekly_fractions_need_two_years(pandemic_truth, phi_truth):
    mu = np.tile(np.exp(-5.0 + 0.05 * np.arange(91))[:, None], (1, 2))
    wp = sy.sample_weekly_panel("AAA", "m", pandemic_truth, mu, phi=phi_truth, seed=5)
    with pytest.raises(ValidationError):
        se.weekly_fractions(wp.select_years([2020]))


def test_cyclic_design_matrix_partition_of_unity():
    x = np.linspace(0.0, 52.0, 200)
    X = se.cyclic_design_matrix(x, 12)
    np.testing.assert_allclose(X.sum(axis=1), 1.0, atol=1e-12)
    assert X.shape == (200, 12)


def periodic_knots(k):
    """Knots 52/k weeks apart, from 3 spacings below week 0 to 3 above week
    52: an ordinary cubic B-spline basis on them, with column j added into
    column j % k, is the periodic basis."""
    return np.arange(-3, k + 4) * (se.PERIOD / k)


@pytest.mark.parametrize("knots", [4, 12, 20])
def test_cyclic_design_matrix_matches_scipy_bspline(knots):
    from scipy.interpolate import BSpline

    fold = np.arange(knots + 3)[:, None] % knots == np.arange(knots)
    rng = np.random.default_rng(11)
    grids = (np.arange(1.0, 53.0), np.linspace(0.0, 52.0, 1041),
             rng.uniform(0.0, 52.0, 2000), rng.uniform(-60.0, 120.0, 500))
    for x in grids:
        basis = BSpline.design_matrix(np.mod(x, se.PERIOD), periodic_knots(knots), 3).toarray()
        np.testing.assert_allclose(se.cyclic_design_matrix(x, knots), basis @ fold,
                                   rtol=0, atol=1e-14)


def test_cyclic_spline_periodic_to_second_derivative():
    from scipy.interpolate import BSpline

    k = 12
    coeffs = np.random.default_rng(7).normal(1.0, 0.2, k)
    # The periodic basis is the ordinary one with coefficient j % k on column j.
    spline = BSpline(periodic_knots(k), coeffs[np.arange(k + 3) % k], 3)
    x = np.linspace(0.0, 52.0, 1041)
    np.testing.assert_allclose(spline(x), se.cyclic_design_matrix(x, k) @ coeffs,
                               rtol=1e-13, atol=1e-13)
    for nu in (0, 1, 2):
        np.testing.assert_allclose(spline(0.0, nu=nu), spline(52.0, nu=nu), atol=1e-9)


def test_fit_recovers_smooth_curve(phi_truth):
    fr = make_fractions(phi_truth, range(2010, 2020), noise=0.01, seed=1)
    eff = se.fit_seasonal_spline(fr, country="AAA", gender="m")
    assert_seasonal_constraints(eff)
    # cosine is smooth, so a 12-knot cyclic spline should track it closely
    assert np.abs(eff.phi[:52] - phi_truth[:52]).max() < 0.02
    assert eff.phi[52] == eff.phi[51]


def test_fit_folds_week_53(phi_truth):
    fr = make_fractions(phi_truth, [2014, 2015, 2016], seed=2)  # 2015 has 53 weeks
    assert len(fr[2015]) == 53
    eff = se.fit_seasonal_spline(fr)
    assert_seasonal_constraints(eff)


def test_fit_rejects_few_knots(phi_truth):
    fr = make_fractions(phi_truth, range(2010, 2014))
    with pytest.raises(ValidationError):
        se.fit_seasonal_spline(fr, knots=3)


def test_fit_rejects_more_knots_than_weekly_averages(phi_truth):
    fr = make_fractions(phi_truth, range(2010, 2014))
    assert len(se.fit_seasonal_spline(fr, knots=52).coeffs) == 52
    with pytest.raises(ValidationError, match="needs 4 to 52 knots, got 60"):
        se.fit_seasonal_spline(fr, knots=60)


def test_fit_rejects_nonpositive_curve():
    # extreme concentration in one week forces the spline negative elsewhere
    f = np.full(52, 1e-6)
    f[0] = 1.0
    fr = {2010: f / f.sum() * 52, 2011: f / f.sum() * 52}
    with pytest.raises(NumericalError):
        se.fit_seasonal_spline(fr)


def test_mean_one_normalization(phi_truth):
    fr = make_fractions(phi_truth, range(2010, 2020), noise=0.05, seed=3)
    eff = se.fit_seasonal_spline(fr)
    assert abs(eff.phi[:52].mean() - 1.0) < 1e-12


def test_curve_evaluates_between_weeks(phi_truth):
    fr = make_fractions(phi_truth, range(2010, 2020))
    eff = se.fit_seasonal_spline(fr)
    lo, mid, hi = se.cyclic_design_matrix([10.0, 10.5, 11.0], eff.knots) @ eff.coeffs
    assert min(lo, hi) - 1e-9 <= mid <= max(lo, hi) + 1e-9
