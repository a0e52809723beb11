"""The row-wise raw-dataset writers that `pandmort.synthetic` replaced with
block-wise ones, kept verbatim as the reference ``test_synthetic.py``
compares against: one Poisson draw, 19 masked group sums and one ``write``
per (country, gender, week), and one f-string and one ``write`` per cell of
the HMD and population files."""

import os

import numpy as np

from pandmort.datastore import GENDERS
from pandmort.ingest import raw_path, weeks_in_iso_year
from pandmort.synthetic import (
    PANDEMIC_YEARS,
    make_baseline_truth,
    make_pandemic_truth,
    sample_annual_panel,
    seasonal_phi,
    true_ln_mu,
)


def _write_hmd_file(path, years, ages, female, male):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("synthetic 1x1 data\n\n")
        fh.write("  Year          Age             Female            Male           Total\n")
        for j, t in enumerate(years):
            for i, x in enumerate(ages):
                label = "110+" if x == 110 else str(x)
                f, m = female[i, j], male[i, j]
                fh.write(f"  {t}   {label:>5}   {f:.2f}   {m:.2f}   {f + m:.2f}\n")


STMF_GROUPS = [(lo, lo + 4) for lo in range(0, 90, 5)]  # 90+ handled separately


def write_synthetic_dataset(outdir, seed=1234, countries=("AAA", "BBB")):
    """Write a complete raw dataset: annual 1x1 files, a weekly grouped
    deaths file and population snapshot files, all sampled from known
    parameters.  Deterministic for a fixed seed."""
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    ages = np.arange(0, 111)
    years = np.arange(1970, 2020)
    truth = make_baseline_truth(countries, ages, years, seed=seed)
    panel = sample_annual_panel(truth, exposure=2e5, seed=seed + 1)

    for c in countries:
        ci = panel.country_index(c)
        _write_hmd_file(
            raw_path(outdir, "deaths", c), years, ages,
            panel.deaths[ci, 1], panel.deaths[ci, 0],
        )
        _write_hmd_file(
            raw_path(outdir, "exposures", c), years, ages,
            panel.exposures[ci, 1], panel.exposures[ci, 0],
        )

    # Weekly grouped deaths, 2010..2021; pandemic waves only in 2020/2021.
    phi = seasonal_phi(0.18)
    pandemic = make_pandemic_truth(ages, seed=seed + 2)
    group_cols = [f"D{lo}_{hi}" for lo, hi in STMF_GROUPS] + ["D90p"]
    with open(raw_path(outdir, "weekly"), "w", encoding="utf-8") as fh:
        fh.write("CountryCode,Year,Week,Sex," + ",".join(group_cols) + "\n")
        for c in countries:
            ci = panel.country_index(c)
            for gi, g in enumerate(GENDERS):
                mu_2019 = np.exp(true_ln_mu(truth, c, g)[:, -1])
                e_week = panel.exposures[ci, gi, :, -1] * 7.0 / 365.0
                for t in range(2010, 2022):
                    wt = weeks_in_iso_year(t)
                    for w in range(1, wt + 1):
                        if t in PANDEMIC_YEARS:
                            j = PANDEMIC_YEARS.index(t)
                            bk = pandemic["B"] * pandemic["K"][j, w - 1]
                        else:
                            bk = 0.0
                        lam = e_week * mu_2019 * phi[w - 1] * np.exp(bk)
                        dx = rng.poisson(lam)
                        vals = [dx[(ages >= lo) & (ages <= hi)].sum() for lo, hi in STMF_GROUPS]
                        vals.append(dx[ages >= 90].sum())
                        fh.write(f"{c},{t},{w},{g}," + ",".join(str(v) for v in vals) + "\n")

    # Start-of-year population snapshots for 2020 (exposure as head count).
    for c in countries:
        ci = panel.country_index(c)
        with open(raw_path(outdir, "population", c), "w", encoding="utf-8") as fh:
            fh.write("date,age,sex,count\n")
            for gi, g in enumerate(GENDERS):
                for i, x in enumerate(ages):
                    fh.write(f"2020-01-01,{x},{g},{panel.exposures[ci, gi, i, -1]:.2f}\n")
    return truth, pandemic, phi
