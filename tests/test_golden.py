"""Golden digests of the raw dataset, the ``run-all`` output directory and
the fits, and golden values of the ``run-all`` outputs.

The synth digest pins every raw file ``synth --seed 1234`` writes, byte for
byte.  The run-all digest pins every output file, so a rewrite of the
file I/O or of a numerical kernel must keep the outputs identical.  The fit
digest pins, bit for bit, the baseline and pandemic-layer fits on a sampled
panel with parts that ``run-all`` never runs: Method 1, individual ages above
90, and an open age group clipped to 90-110.  The masked-fit digest pins the
fit kernel, `loglik` and `score` on panels with unusable cells, which no
other digest has.  The digests bind only under the NumPy build they were
taken with.

The values test binds under every NumPy build.  ``golden_values/`` holds
``report.csv``, the model files (``baseline_model.csv``, ``seasonal_*``,
``covid_*``, ``annual_effects_*``), the ``covid_fit_*`` tables and the
``life_expectancy_*`` tables (the life-table and forecast kernel) of the
run-all digest's run, and a fresh run must match every number in them, by
`util.compare_runs`, within ``1e-10 * max(|x|, |y|) + 1e-12``
(``VALUES_RTOL``, ``VALUES_ATOL``).  A kernel may move last bits within that
bound; then only the digests it moves are re-recorded.  A change beyond it
re-records those files too, copied from a fresh run.
Changing a digest or a golden file needs a stated reason: an intended
change of an output format or of a model result.
"""

import hashlib
import os
import re
import shutil

import numpy as np
import pytest

import pandmort.cli as cli
import pandmort.synthetic as sy
from pandmort import baseline, covid_layer
from pandmort.datastore import GENDERS, SeasonalEffect
from util import compare_runs

# Outputs may legitimately differ in the last bits under other NumPy builds,
# so the digest is only binding for the version it was taken with.  The
# pipeline imports no SciPy, so SciPy's version does not enter the outputs.
GOLDEN_VERSIONS = {"numpy": "2.4.6"}
SYNTH_SHA256 = "892c435e313605970b88153d788366462dffaca7b25a14af127df8309ce5d421"
GOLDEN_SHA256 = "63d34ca2c3cb8baca91ef8e5b3b0237a89d74bbe18506019040119a7ce9fa928"
FIT_SHA256 = "6cf377e640e9774613d390f8cfe1c1782183e1555bc222a5a1c5aa6439eef2ab"
MASKED_FIT_SHA256 = "ed59dec606bbbd2eebfcb15519cdcc615e056d6730849ec7be9ef21268ade13d"
GOLDEN_VALUES = os.path.join(os.path.dirname(__file__), "golden_values")
VALUES_RTOL, VALUES_ATOL = 1e-10, 1e-12

CONFIG = """\
[data]
dir = data

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


def tree_digest(root):
    """SHA-256 over the sorted (file name, file bytes) pairs of a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def skip_unless_golden_versions():
    found = {"numpy": np.__version__}
    if found != GOLDEN_VERSIONS:
        pytest.skip(f"golden digest taken with {GOLDEN_VERSIONS}, running {found}")


def fit_digest():
    """SHA-256 over a baseline fit of 3 countries x ages 0-110 and the
    pandemic-layer fits, Method 1 and 2, on individual ages 40-110 and on
    their 5-year groups with an open group clipped to 90-110."""
    countries = ("AAA", "BBB", "CCC")
    truth = sy.make_baseline_truth(countries, np.arange(0, 111), np.arange(1980, 2020), seed=21)
    model = baseline.calibrate_baseline(sy.sample_annual_panel(truth, exposure=2e5, seed=22))
    h = hashlib.sha256()
    for name in ("A", "B", "K", "alpha", "beta", "kappa", "theta"):
        table = getattr(model, name)
        for key in sorted(table):
            h.update(np.asarray(table[key], dtype=float).tobytes())
    h.update(model.sigma.tobytes())
    pandemic = sy.make_pandemic_truth(np.arange(40, 111), seed=23)
    phi = sy.seasonal_phi(0.18)
    for ci, c in enumerate(countries):
        for gi, g in enumerate(GENDERS):
            mu = np.exp(sy.true_ln_mu(truth, c, g)[40:, -1])
            panel = sy.sample_weekly_panel(c, g, pandemic, np.stack([mu, mu], axis=1), phi=phi,
                                           seed=24 + 2 * ci + gi)
            seasonal = SeasonalEffect(country=c, gender=g, knots=12, coeffs=None, phi=phi)
            grouped = covid_layer.aggregate_to_groups(panel, covid_layer.GRANULARITY_LEVELS[2])
            for work in (panel, grouped):
                mu = covid_layer.group_baseline_mu(model, c, g, work.ages, work.years)
                h.update(mu.tobytes())
                for method in (1, 2):
                    pred = covid_layer.predicted_deaths(work, mu, seasonal=seasonal, method=method)
                    layer = covid_layer.calibrate_covid(work, pred, method)
                    h.update(layer.B.tobytes())
                    h.update(layer.K.tobytes())
    return h.hexdigest()


def masked_fit_digest():
    """SHA-256 over `fit_bilinear_poisson`, `loglik` and `score` on seeded
    panels where some cells have ``E == 0``, some a NaN ``D`` and some a NaN
    ``E``: a level fit with an array offset, and a fit without the level."""
    h = hashlib.sha256()
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        nx, nt = 20, 15
        a = rng.uniform(-6.0, -2.0, nx)
        b = rng.uniform(0.1, 0.4, nx)
        k = np.linspace(2.0, -2.0, nt) + rng.normal(0.0, 0.2, nt)
        base = 0.1 * np.outer(rng.normal(size=nx), rng.normal(size=nt))
        E = rng.uniform(1e4, 1e5, (nx, nt))
        D = rng.poisson(E * np.exp(base + a[:, None] + np.outer(b, k))).astype(float)
        cells = rng.choice(nx * nt, size=24, replace=False)
        E.flat[cells[:8]] = 0.0
        D.flat[cells[8:16]] = np.nan
        E.flat[cells[16:]] = np.nan
        for fit_base, fit_level, E_fit in ((base, True, E), (0.0, False, E * np.exp(base + a[:, None]))):
            fa, fb, fk, trace = baseline.fit_bilinear_poisson(D, E_fit, base=fit_base, fit_level=fit_level)
            for part in (fa, fb, fk, np.array(trace, dtype=float)):
                h.update(part.tobytes())
            for params in ((fa, fb, fk), (fa + 0.01, fb, 1.1 * fk)):
                h.update(np.float64(baseline.loglik(D, E_fit, *params, base=fit_base)).tobytes())
                for part in baseline.score(D, E_fit, *params, base=fit_base):
                    h.update(part.tobytes())
    return h.hexdigest()


def test_synth_golden_digest(tmp_path):
    skip_unless_golden_versions()
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "1234"]) == 0
    assert tree_digest(tmp_path) == SYNTH_SHA256


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The output directory of ``run-all`` under CONFIG on ``synth --seed
    1234`` data."""
    root = tmp_path_factory.mktemp("golden")
    # A relative data directory keeps the config text, and so its hash
    # stamped into every output, independent of where the test runs.
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert cli.main(["synth", "--out", "data", "--seed", "1234"]) == 0
        (root / "run.ini").write_text(CONFIG)
        assert cli.main(["run-all", "--config", "run.ini", "--out", "out"]) == 0
    return root / "out"


def test_run_all_golden_digest(golden_run):
    skip_unless_golden_versions()
    assert tree_digest(golden_run) == GOLDEN_SHA256


def test_run_all_golden_values(golden_run, tmp_path):
    for name in os.listdir(GOLDEN_VALUES):
        shutil.copy(golden_run / name, tmp_path)
    compare_runs(GOLDEN_VALUES, tmp_path, VALUES_RTOL, VALUES_ATOL)


def test_compare_runs_names_what_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, text in ((a, "key,1.0,AAA\n"), (b, "key,1.00000000005,AAA\n")):
        d.mkdir()
        (d / "f.csv").write_text(text)
    assert compare_runs(a, b, 1e-10, 0.0) == pytest.approx(0.5, rel=1e-3)
    for text, message in [("key,1.0,BBB\n", "f.csv: line 1: 'AAA' against 'BBB'"),
                          ("key,1.0,AAA\nkey,2.0,AAA\n", "f.csv: 1 rows against 2"),
                          ("key,1.0\n", "f.csv: line 1: "),
                          ("key,nan,AAA\n", "1.0 against nan, nan times the bound"),
                          ("key,1.0000000002,AAA\n", "2 times the bound")]:
        (b / "f.csv").write_text(text)
        with pytest.raises(AssertionError, match=re.escape(message)):
            compare_runs(a, b, 1e-10, 0.0)
    (b / "f.csv").write_text("key,1.0,AAA\n")
    (b / "g.csv").write_text("")
    with pytest.raises(AssertionError, match="file names differ"):
        compare_runs(a, b, 1e-10, 0.0)


def test_fit_golden_digest():
    skip_unless_golden_versions()
    assert fit_digest() == FIT_SHA256


def test_masked_fit_golden_digest():
    skip_unless_golden_versions()
    assert masked_fit_digest() == MASKED_FIT_SHA256
