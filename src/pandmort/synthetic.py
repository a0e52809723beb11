"""Synthetic dataset generation with known parameters.

Real annual and weekly mortality data cannot be redistributed, so the test
suite and the bundled end-to-end pipeline run on data sampled from known
two-layer baseline parameters, a known seasonal curve and known pandemic
effects, with Poisson observation noise.  Generators also write the raw
file formats the ingest module parses, so parsers are exercised end to end.
"""

from __future__ import annotations

import os

import numpy as np

from .datastore import (
    GENDERS, MAX_WEEKS, PANDEMIC_YEARS, AgeIndex, AnnualPanel, WeeklyPanel, format_rows,
    weeks_in_iso_year, write_table,
)
from .ingest import TOP_AGE, raw_path


def _smooth_noise(n, rng, scale):
    width = 7
    raw = rng.standard_normal(n + 2 * width)
    kernel = np.hanning(2 * width + 1)
    kernel /= kernel.sum()
    return scale * np.convolve(raw, kernel, mode="same")[width:-width]


def make_baseline_truth(countries, ages, years, seed=0):
    """Known two-layer parameters satisfying all identification constraints.

    Returns a dict with per-gender A, B, K and per-(country, gender) alpha,
    beta, kappa, plus a ``ln_mu`` lookup of the true country-level log force.
    """
    rng = np.random.default_rng(seed)
    ages = np.asarray(list(ages))
    years = np.asarray(list(years))
    nx, nt = len(ages), len(years)
    truth = {"ages": ages, "years": years, "countries": tuple(countries)}
    A, B, K = {}, {}, {}
    alpha, beta, kappa = {}, {}, {}
    # Country deviations are small and arranged in opposite-signed pairs so
    # they cancel (to second order) in the aggregated intensity; otherwise
    # the two-stage decomposition is misspecified by construction and
    # recovery tests are meaningless.  With an odd country count the last
    # country carries no deviation.
    for gi, g in enumerate(GENDERS):
        A[g] = -4.6 + 4.4 * (1.0 - np.exp(-ages / 55.0)) + 0.1 * gi + _smooth_noise(nx, rng, 0.02)
        b = 1.0 + 0.5 * np.exp(-ages / 25.0) + _smooth_noise(nx, rng, 0.01)
        B[g] = b / np.linalg.norm(b)
        k = -0.4 * np.arange(nt, dtype=float) + np.cumsum(rng.standard_normal(nt)) * 0.05
        K[g] = k - k.mean()
        for ci, c in enumerate(countries):
            if ci % 2 == 0:
                a = _smooth_noise(nx, rng, 0.02)
                bb = 1.0 + _smooth_noise(nx, rng, 0.15)
                bb = bb / np.linalg.norm(bb)
                if bb.sum() < 0:
                    bb = -bb
                kk = np.cumsum(rng.standard_normal(nt)) * 0.025
                kk = kk - kk.mean()
            if ci == len(countries) - 1 and ci % 2 == 0:
                alpha[(c, g)] = A[g].copy()
                beta[(c, g)] = bb
                kappa[(c, g)] = np.zeros(nt)
            else:
                sgn = 1.0 if ci % 2 == 0 else -1.0
                alpha[(c, g)] = A[g] + sgn * a
                beta[(c, g)] = bb
                kappa[(c, g)] = sgn * kk
    truth.update(A=A, B=B, K=K, alpha=alpha, beta=beta, kappa=kappa)
    return truth


def true_ln_mu(truth, country, gender):
    """True country-level log force of mortality, shape (nages, nyears)."""
    g = gender
    return (
        np.outer(truth["B"][g], truth["K"][g])
        + truth["alpha"][(country, g)][:, None]
        + np.outer(truth["beta"][(country, g)], truth["kappa"][(country, g)])
    )


def sample_annual_panel(truth, exposure=1e7, seed=1, cohort_bump=None):
    """Poisson-sample an AnnualPanel from the truth at constant exposures.

    ``cohort_bump`` = (birth_year, factor) scales the exposures of the
    matching birth cohort, mimicking a baby-boom bulge.
    """
    rng = np.random.default_rng(seed)
    ages, years = truth["ages"], truth["years"]
    countries = truth["countries"]
    expos = np.full((len(countries), 2, len(ages), len(years)), float(exposure))
    if cohort_bump is not None:
        birth, factor = cohort_bump
        for j, t in enumerate(years):
            sel = ages == (t - birth)
            expos[:, :, sel, j] *= factor
    deaths = np.empty_like(expos)
    for ci, c in enumerate(countries):
        for gi, g in enumerate(GENDERS):
            lam = expos[ci, gi] * np.exp(true_ln_mu(truth, c, g))
            deaths[ci, gi] = rng.poisson(lam)
    return AnnualPanel(
        countries=countries, ages=ages, years=years, deaths=deaths, exposures=expos
    ).validate()


def make_pandemic_truth(ages, seed=2, amplitude=0.35):
    """Known pandemic age effect (unit norm, increasing with age) and week
    effect (two waves in 2020, one in 2021), on individual ages."""
    rng = np.random.default_rng(seed)
    ages = np.asarray(list(ages))
    b = 1.0 / (1.0 + np.exp(-(ages - 65.0) / 8.0)) + 0.05 + _smooth_noise(len(ages), rng, 0.01)
    b = np.maximum(b, 0.0)
    b = b / np.linalg.norm(b)
    K = np.full((len(PANDEMIC_YEARS), MAX_WEEKS), np.nan)

    def wave(center, width, height, n):
        w = np.arange(1, n + 1, dtype=float)
        return height * np.exp(-0.5 * ((w - center) / width) ** 2)

    k2020 = wave(14, 3.0, 9.0, 53) + wave(47, 5.0, 7.0, 53)
    k2021 = wave(4, 4.0, 4.0, 52) + wave(48, 4.0, 5.0, 52)
    K[0, :53] = amplitude * k2020
    K[1, :52] = amplitude * k2021
    return {"ages": ages, "B": b, "K": K}


def seasonal_phi(amplitude=0.2):
    """A mean-one cosine seasonal curve peaking in winter, length 53."""
    w = np.arange(1, 54, dtype=float)
    phi = 1.0 + amplitude * np.cos(2.0 * np.pi * (w - 1) / 52.0)
    phi[:52] /= phi[:52].mean()
    phi[52] = phi[51]
    return phi


def sample_weekly_panel(country, gender, pandemic, mu_annual, phi=None, exposure_week=None,
                        seed=3):
    """Poisson-sample a weekly individual-age panel for the pandemic years.

    ``mu_annual`` has shape (nages, 2) for 2020/2021; ``exposure_week`` is
    the weekly exposure per age and year, shape (nages, 2) (defaults to 1e6
    people * 7/365).  The sampling intensity is E * mu * phi * exp(B K).
    """
    rng = np.random.default_rng(seed)
    ages = pandemic["ages"]
    nx = len(ages)
    exposure_week = np.broadcast_to(1e6 * 7.0 / 365.0 if exposure_week is None
                                    else exposure_week, (nx, 2))
    phi = np.ones(MAX_WEEKS) if phi is None else phi
    deaths = np.full((nx, 2, MAX_WEEKS), np.nan)
    expos = np.full((nx, 2, MAX_WEEKS), np.nan)
    for j, t in enumerate(PANDEMIC_YEARS):
        wt = weeks_in_iso_year(t)
        bk = np.outer(pandemic["B"], pandemic["K"][j, :wt])
        lam = exposure_week[:, j : j + 1] * mu_annual[:, j : j + 1] * phi[None, :wt] * np.exp(bk)
        deaths[:, j, :wt] = rng.poisson(lam)
        expos[:, j, :wt] = exposure_week[:, j : j + 1]
    return WeeklyPanel(
        country=country, gender=gender,
        ages=tuple(AgeIndex(a, a) for a in ages),
        years=PANDEMIC_YEARS, deaths=deaths, exposures=expos,
    ).validate()


# ---------------------------------------------------------------------------
# raw-format writers for the end-to-end pipeline


def _write_hmd_file(path, years, ages, female, male):
    labels = [f"{TOP_AGE}+" if x == TOP_AGE else str(x) for x in ages]
    write_table(path, "synthetic 1x1 data\n\n"
                "  Year          Age             Female            Male           Total",
                format_rows("  %s   %5s   %.2f   %.2f   %.2f\n", np.repeat(years, len(ages)),
                            np.tile(labels, len(years)), female.T, male.T, (female + male).T))


# Lower bounds of the 19 STMF age groups 0-4, ..., 85-89 and the open 90+;
# with ages from 0 they are also the column indices `np.add.reduceat` takes.
STMF_LOWER = np.arange(0, 91, 5)


def write_synthetic_dataset(outdir, seed=1234, countries=("AAA", "BBB")):
    """Write a complete raw dataset: annual 1x1 files, a weekly grouped
    deaths file and population snapshot files, all sampled from known
    parameters.  Deterministic for a fixed seed, byte for byte."""
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    ages = np.arange(0, TOP_AGE + 1)
    years = np.arange(1970, 2020)
    truth = make_baseline_truth(countries, ages, years, seed=seed)
    panel = sample_annual_panel(truth, exposure=2e5, seed=seed + 1)

    for c in countries:
        ci = panel.country_index(c)
        for kind, table in (("deaths", panel.deaths), ("exposures", panel.exposures)):
            _write_hmd_file(raw_path(outdir, kind, c), years, ages, table[ci, 1], table[ci, 0])
        # Population snapshot on 1 January of the first pandemic year (exposure as head count).
        write_table(raw_path(outdir, "population", c), "date,age,sex,count",
                    format_rows(f"{PANDEMIC_YEARS[0]}-01-01,%d,%s,%.2f\n",
                                np.tile(ages, len(GENDERS)), np.repeat(GENDERS, len(ages)),
                                panel.exposures[ci, :, :, -1]))

    # Weekly grouped deaths, 2010 to the last pandemic year; waves only in pandemic years.
    # One Poisson call per (country, gender) over its (weeks x ages)
    # intensity fills the draws in C order, the order of one call per week.
    phi = seasonal_phi(0.18)
    pandemic = make_pandemic_truth(ages, seed=seed + 2)
    calendar = [(t, w) for t in range(2010, PANDEMIC_YEARS[-1] + 1)
                for w in range(1, weeks_in_iso_year(t) + 1)]
    t_col, w_col = np.array(calendar).T
    pan = np.isin(t_col, PANDEMIC_YEARS)
    # exp(0) is 1, so the weeks outside the pandemic need no factor.
    k_pan = pandemic["K"][t_col[pan] - PANDEMIC_YEARS[0], w_col[pan] - 1]
    wave = np.exp(np.outer(k_pan, pandemic["B"]))
    group_row = ",".join(["%d"] * len(STMF_LOWER)) + "\n"
    bodies = []
    for c in countries:
        ci = panel.country_index(c)
        for gi, g in enumerate(GENDERS):
            mu_2019 = np.exp(true_ln_mu(truth, c, g)[:, -1])
            e_week = panel.exposures[ci, gi, :, -1] * 7.0 / 365.0
            lam = (e_week * mu_2019)[None, :] * phi[w_col - 1, None]
            lam[pan] *= wave
            groups = np.add.reduceat(rng.poisson(lam), STMF_LOWER, axis=1)
            bodies.append(format_rows(f"{c},%d,%d,{g}," + group_row, t_col, w_col, *groups.T))
    write_table(raw_path(outdir, "weekly"), "CountryCode,Year,Week,Sex," + ",".join(
        [f"D{lo}_{lo + 4}" for lo in STMF_LOWER[:-1]] + ["D90p"]), *bodies)
    return truth, pandemic, phi
