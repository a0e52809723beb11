import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pandmort.annualize_forecast as af
import pandmort.synthetic as sy
from pandmort.datastore import CovidLayer, ScenarioSpec
from pandmort.errors import NumericalError, ValidationError
from util import ROOT_TOL, annual_survival_gap, assert_annual_constraints


def make_layer(ages, seed=3, amplitude=0.35):
    pand = sy.make_pandemic_truth(ages, seed=seed, amplitude=amplitude)
    return CovidLayer(
        country="AAA", gender="m", ages=tuple(ages), years=(2020, 2021), method=2,
        B=pand["B"], K=pand["K"],
    )


@pytest.fixture(scope="module")
def annualized():
    ages = np.arange(35, 91)
    layer = make_layer(ages)
    phi = sy.seasonal_phi(0.2)
    rng = np.random.default_rng(7)
    mu = rng.uniform(1e-3, 0.1, (len(ages), 2))
    return layer, af.annualize(layer, phi, mu), phi, mu


def test_annualize_survival_identity(annualized):
    layer, effects, phi, mu = annualized
    gap = annual_survival_gap(layer, effects, phi, mu)
    assert gap.max() < 1e-10
    assert_annual_constraints(effects)
    assert (effects.country, effects.gender, effects.ages, effects.years) == (
        layer.country, layer.gender, layer.ages, layer.years)
    # positive pandemic effect in both years
    assert (effects.X > 0).all()


def test_annualize_renormalization_preserves_products(annualized):
    layer, effects, phi, mu = annualized
    # recompute without the final normalization: V'_x X'_t must match V_x X_t
    m = af.weekly_mean_factor(layer, phi)
    X_raw = np.log(m).sum(axis=0)
    from scipy.optimize import brentq

    V_raw = np.empty(len(layer.ages))
    for i in range(len(layer.ages)):
        V_raw[i] = brentq(
            lambda v: float((mu[i] * (np.exp(v * X_raw) - m[i])).sum()),
            -af.BRACKET, af.BRACKET, xtol=ROOT_TOL,
        )
    np.testing.assert_allclose(
        np.outer(V_raw, X_raw), np.outer(effects.V, effects.X), atol=1e-12
    )


def random_gaps(rng, mixed):
    """Arrays (mu, m, X) of 8 gaps of the form `annualize` solves, g_i(v) =
    sum_t mu[i, t] (exp(v X_t) - m[i, t]), sharing X as the ages of a layer
    do.  With all X_t of one sign each g_i is monotone; with ``mixed`` signs
    it is only convex, and may have no root or two on the bracket."""
    n = rng.integers(2 if mixed else 1, 4)
    sign = rng.choice((-1.0, 1.0), n)
    sign[1:] = -sign[0] if mixed else sign[0]
    X = sign * rng.uniform(0.05, 1.0, n) * rng.choice((1e-3, 0.1, 1.0, 3.0))
    mu = rng.uniform(1e-4, 0.2, (8, n))
    m = np.exp(rng.uniform(-9.5, 9.5, (8, 1)) * X + rng.normal(0.0, 1e-3, (8, n)))
    return mu, m, X


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_gap_roots_match_scipy_brentq(seed, mixed):
    """On every gap that changes sign on the bracket, each root is within
    2 ROOT_TOL of `scipy.optimize.brentq`'s, plus the width of the band of v
    in which rounding the gap's terms, 8 ulps of their sum, can flip its
    sign."""
    from scipy.optimize import brentq

    mu, m, X = random_gaps(np.random.default_rng(seed), mixed)

    def gap(i, v):
        return float((mu[i] * (np.exp(v * X) - m[i])).sum())

    rows = [i for i in range(len(mu))
            if np.sign(gap(i, -af.BRACKET)) * np.sign(gap(i, af.BRACKET)) <= 0]
    assume(rows)
    for i, v in zip(rows, af._gap_roots(mu[rows], m[rows], X)):
        expected = brentq(lambda x: gap(i, x), -af.BRACKET, af.BRACKET, xtol=ROOT_TOL)
        e = np.exp(expected * X)
        band = 8 * np.finfo(float).eps * (mu[i] * (e + m[i])).sum() / abs((mu[i] * X * e).sum())
        assert abs(v - expected) <= 2 * ROOT_TOL + band


def test_annualize_names_the_age_with_a_nan_gap(annualized):
    layer, _, phi, mu = annualized
    mu = mu.copy()
    mu[3, 1] = np.nan
    with pytest.raises(NumericalError, match=r"^annualize: age index 3: the gap is NaN$"):
        af.annualize(layer, phi, mu)


@pytest.mark.parametrize("X, root", [(0.1, af.BRACKET), (-0.1, -af.BRACKET)])
def test_gap_roots_find_a_root_at_an_end_of_the_bracket(X, root):
    """A gap of exactly 0 at one end of the bracket, and of the other sign
    at the other end, has its root at that end."""
    mu, m, X = np.array([[1.0]]), np.array([[np.exp(1.0)]]), np.array([X])
    assert (mu * (np.exp(root * X) - m)).sum() == 0.0
    np.testing.assert_allclose(af._gap_roots(mu, m, X), [root], rtol=1e-15)


def test_annualize_names_the_age_without_a_sign_change(annualized, monkeypatch):
    # So narrow a bracket leaves the gap of every age with one sign at both ends.
    layer, _, phi, mu = annualized
    monkeypatch.setattr(af, "BRACKET", 1e-9)
    with pytest.raises(NumericalError, match=r"annualize: .*age index 0\b"):
        af.annualize(layer, phi, mu)


def test_annualize_degenerate_zero_effect():
    ages = np.arange(40, 60)
    layer = make_layer(ages)
    layer = CovidLayer(
        country="AAA", gender="m", ages=layer.ages, years=layer.years, method=2, B=layer.B,
        K=np.where(np.isnan(layer.K), np.nan, 0.0),
    )
    mu = np.full((20, 2), 0.01)
    out = af.annualize(layer, np.ones(53), mu)
    np.testing.assert_array_equal(out.X, 0.0)  # the sign of a degenerate layer
    assert abs(np.linalg.norm(out.V) - 1.0) < 1e-12


def test_annualize_shape_check(annualized):
    layer, _, phi, mu = annualized
    with pytest.raises(ValidationError):
        af.annualize(layer, phi, mu[:-1])


def test_build_scenario_path():
    spec = ScenarioSpec("s", 1.0, 0.0, 0.5)
    np.testing.assert_allclose(af.build_scenario(spec, 4), [0.5, 0.25, 0.125, 0.0625])
    const = ScenarioSpec("s", 2.0, 2.0, 0.5)
    np.testing.assert_allclose(af.build_scenario(const, 3), 2.0)
    with pytest.raises(ValidationError, match="horizon must be >= 1"):
        af.build_scenario(spec, 0)


def test_standard_scenarios_parameterization():
    scens = {s.name: s for s in af.standard_scenarios(0.8, eta=0.3)}
    assert len(scens) == 6
    assert scens["completely_incidental"].x_start == 0.0
    assert scens["completely_structural"].x_infinity == 0.8
    assert scens["growing_impact"].x_infinity == pytest.approx(1.0)
    assert scens["new_normal"].x_infinity == pytest.approx(0.2)
    assert scens["increased_resilience"].x_infinity == pytest.approx(-0.2)
    for s in scens.values():
        assert s.eta == 0.3


def test_extend_age_effect():
    V = np.array([0.5, 0.6, 0.7])
    ext = af.extend_age_effect(V, np.array([40, 41, 42]), np.arange(38, 46))
    np.testing.assert_allclose(ext, [0.0, 0.0, 0.5, 0.6, 0.7, 0.7, 0.7, 0.7])
    # the calibrated ages must be one ascending range, even where a gap or the
    # order would not show in the requested ages
    for calib_ages, full_ages in [([40, 41, 43], np.arange(40, 44)),
                                  ([40, 41, 43], np.arange(38, 42)),
                                  ([42, 41, 40], np.arange(38, 46))]:
        with pytest.raises(ValidationError):
            af.extend_age_effect(V, np.array(calib_ages), full_ages)


def test_extended_baseline_mu_loglinear_tail(baseline_model):
    # the tail continues each year's least-squares line through ln(mu) at 80..90
    years = np.arange(2022, 2072)
    mu = af.extended_baseline_mu(baseline_model, "AAA", "m", years)
    assert mu.shape == (121, 50)
    lnmu = np.log(mu)
    lo, hi = af.EXTRAP_AGES
    for j in range(len(years)):
        slope, intercept = np.polyfit(np.arange(lo, hi + 1.0), lnmu[lo : hi + 1, j], 1)
        np.testing.assert_allclose(lnmu[91:, j], intercept + slope * np.arange(91.0, 121.0),
                                   rtol=1e-13, atol=1e-13)
    # each year's fit is its own: asking for one year gives its column bit for bit
    one = af.extended_baseline_mu(baseline_model, "AAA", "m", years[7:8])
    assert one[:, 0].tobytes() == mu[:, 7].tobytes()


def test_life_expectancy_flat_rates():
    # constant q: geometric survival, closed form for the truncated table
    q = 0.2
    ages = np.arange(0, 121)
    years = np.arange(2000, 2002)
    table = np.full((121, 2), q)
    e = af.life_expectancy(table, ages, years, 0, 2000, "period")
    # ages 0..119 each add (1 - q)**x * (1 - q / 2); age 120, where q is one, adds half its survival
    expected = (1.0 - q / 2.0) * (1.0 - (1.0 - q) ** 120) / q + (1.0 - q) ** 120 / 2.0
    assert e == pytest.approx(expected, rel=1e-12)


def test_life_expectancy_period_equals_cohort_under_constant_q():
    ages = np.arange(0, 121)
    years = np.arange(2000, 2125)
    rng = np.random.default_rng(0)
    col = rng.uniform(0.01, 0.2, 121)
    table = np.tile(col[:, None], (1, len(years)))
    ep = af.life_expectancy(table, ages, years, 65, 2000, "period")
    ec = af.life_expectancy(table, ages, years, 65, 2000, "cohort")
    assert ep == pytest.approx(ec, rel=1e-12)


def test_life_expectancy_cohort_needs_horizon():
    ages = np.arange(0, 121)
    years = np.arange(2000, 2005)
    table = np.full((121, 5), 0.1)
    with pytest.raises(ValidationError):
        af.life_expectancy(table, ages, years, 0, 2003, "cohort")


@st.composite
def life_tables(draw):
    """A random death-probability table on ages 0..top, where ``top`` is
    ``MAX_AGE`` or one below it, with years enough for the cohort diagonals
    of ``nrep`` start years from age ``x0`` or up to three years too few."""
    top = draw(st.sampled_from((af.MAX_AGE - 1, af.MAX_AGE)))
    le_ages = [x for x in (0, 65, 85) if x <= top]
    x0 = draw(st.one_of(st.sampled_from(le_ages), st.integers(0, top)))
    nrep = draw(st.integers(1, 6))
    nyears = nrep + af.MAX_AGE - x0 + draw(st.integers(-3, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qmax = draw(st.sampled_from((1e-6, 0.05, 0.5, 1.0)))
    q = rng.uniform(0.0, qmax, (top + 1, max(nyears, nrep)))
    years = 1990 + np.arange(q.shape[1])
    return q, np.arange(top + 1), years, x0, years[:nrep]


@settings(max_examples=80, deadline=None)
@given(life_tables())
def test_life_expectancy_kernel_matches_scalar(table):
    q, ages, years, x0, t0s = table
    for kind in ("period", "cohort"):
        try:
            expected = [af.life_expectancy(q, ages, years, x0, t, kind) for t in t0s]
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                af.life_expectancy_by_year(q, ages, years, x0, t0s, kind)
            assert str(err.value) == str(exc)
            assert kind == "cohort"
            continue
        got = af.life_expectancy_by_year(q, ages, years, x0, t0s, kind)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_forecast_scenarios_end_to_end(baseline_model):
    calib_ages = np.arange(35, 91)
    rng = np.random.default_rng(1)
    V = np.abs(rng.normal(0.1, 0.05, len(calib_ages)))
    V /= np.linalg.norm(V)
    scens = af.standard_scenarios(0.8, eta=0.5)
    fs = af.forecast_scenarios(baseline_model, "AAA", "m", V, calib_ages,
                               scens, first_year=2022, report_years=5)
    assert set(fs.mu) == {s.name for s in scens}
    assert fs.mu["new_normal"].shape == (121, 5)
    # structural scenario worsens mortality relative to incidental at V > 0 ages
    V_ext = af.extend_age_effect(V, calib_ages, fs.ages)
    pos = V_ext > 0
    assert (fs.mu["completely_structural"][pos] > fs.mu["completely_incidental"][pos]).all()
    assert (
        fs.e_period["completely_structural"][0, 0]
        < fs.e_period["completely_incidental"][0, 0]
    )
