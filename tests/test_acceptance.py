"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The [ACCEPTANCE n] lines print live (outside pytest's capture) in any run
of ``pytest tests/test_acceptance.py``.  Monte Carlo criteria use fixed
seeds, so every run checks identical numbers.
"""

import math
import time

import numpy as np
import pytest

from lfdr_lab import (
    RejectionRegion,
    SimConfig,
    adaptive_bh,
    bh_stepup,
    confusion,
    eq1_default_model,
    estimate_null_ecf,
    fdp_fnp,
    figure1_data,
    figure2_data,
    lfdr_stepup,
    mfdr_of_region,
    mfnr_of_region,
    mixture_model,
    oracle_pvalue_rule,
    rep_seed,
    run_replicated,
    sample_correlated,
    sample_model,
    two_sided_pvalue,
)


@pytest.fixture
def report(capfd):
    def _report(num: int, name: str, ok: bool, detail: str = ""):
        line = f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def figure1_panels():
    start = time.perf_counter()
    panels = {p: figure1_data(p) for p in "abcd"}
    return panels, time.perf_counter() - start


def test_criterion_1_oracle_dominance(report, figure1_panels):
    panels, elapsed = figure1_panels
    worst = math.inf
    for rows in panels.values():
        for row in rows:
            assert row.error is None
            worst = min(worst, row.mfnr_pvalue - row.mfnr_lfdr)
    ok = worst >= -1e-6 and elapsed < 60.0
    report(
        1,
        "oracle dominance on all four panel grids",
        ok,
        f"min margin {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_pvalue_oracle_constancy(report, figure1_panels):
    panels, _ = figure1_panels
    rows = panels["a"]
    pv = np.array([r.mfnr_pvalue for r in rows])
    spread = float(pv.max() - pv.min())
    mid = next(r for r in rows if abs(r.sweep - 0.10) < 1e-9)
    sym_gap = abs(mid.mfnr_pvalue - mid.mfnr_lfdr)
    ok = spread <= 1e-4 and sym_gap <= 1e-6
    report(
        2,
        "p-value oracle mFNR constant on the symmetric sweep",
        ok,
        f"spread {spread:.2e}, gap at p1=p2 {sym_gap:.2e}",
    )


def test_criterion_3_figure2_asymmetry(report):
    start = time.perf_counter()
    fig = figure2_data()
    elapsed = time.perf_counter() - start
    probes = {p.z: p for p in fig.probes}
    pv_ok = (
        abs(probes[-2.0].pvalue - 0.046) <= 5e-4
        and abs(probes[3.0].pvalue - 0.003) <= 5e-4
    )
    one_rejected = probes[-2.0].rejected_by_lfdr != probes[3.0].rejected_by_lfdr
    (_, hi1), (lo2, _) = fig.pvalue_rule.region.intervals
    symmetric = abs(hi1 + lo2) <= 1e-9
    got = sorted([probes[-2.0].lfdr, probes[3.0].lfdr])
    set_ok = abs(got[0] - 0.227) <= 5e-3 and abs(got[1] - 0.543) <= 5e-3
    ok = pv_ok and one_rejected and symmetric and set_ok and elapsed < 5.0
    report(
        3,
        "asymmetric rejection region at the two probes",
        ok,
        f"lfdr set {{{got[0]:.4f}, {got[1]:.4f}}}, runtime {elapsed:.2f}s",
    )


def test_criterion_4_adaptive_lfdr_mfdr_control(report):
    start = time.perf_counter()
    config = SimConfig(
        model=eq1_default_model(),
        m=5_000,
        reps=200,
        alpha=0.10,
        seed=3,
        procedures=("lfdr_estimated",),
    )
    stats = run_replicated(config).per_procedure["lfdr_estimated"]
    elapsed = time.perf_counter() - start
    lo, hi = 0.10 - 3 * stats.mfdr_se, 0.10 + 3 * stats.mfdr_se
    ok = lo <= stats.mfdr <= hi and elapsed < 300.0
    report(
        4,
        "fully estimated lfdr step-up controls mFDR",
        ok,
        f"mFDR {stats.mfdr:.4f} in [{lo:.4f}, {hi:.4f}], runtime {elapsed:.0f}s",
    )


def test_criterion_5_efficiency_vs_bh(report):
    asym = mixture_model(0.8, [(0.18, -3.0, 1.0), (0.02, 6.0, 1.0)])
    config = SimConfig(
        model=asym,
        m=5_000,
        reps=200,
        alpha=0.10,
        seed=3,
        procedures=("bh", "lfdr_estimated"),
    )
    res = run_replicated(config).per_procedure
    gap = res["bh"].mfnr - res["lfdr_estimated"].mfnr
    combined_se = math.hypot(res["bh"].mfnr_se, res["lfdr_estimated"].mfnr_se)
    ok = gap > 2 * combined_se
    report(
        5,
        "adaptive lfdr beats BH on the asymmetric mixture",
        ok,
        f"mFNR gap {gap:.4f} vs 2SE {2 * combined_se:.4f}",
    )


def test_criterion_6_null_estimation(report):
    pure = mixture_model(1.0, [])
    defaults = eq1_default_model()

    est_null = estimate_null_ecf(sample_model(pure, 100_000, 42)[0])
    null_ok = (
        0.95 <= est_null.p0_hat <= 1.0
        and abs(est_null.u0_hat) <= 0.03
        and abs(est_null.sigma0_hat - 1.0) <= 0.03
    )

    est_mix = estimate_null_ecf(sample_model(defaults, 100_000, 42)[0])
    mix_ok = 0.75 <= est_mix.p0_hat <= 0.85 and abs(est_mix.sigma0_hat - 1.0) <= 0.05

    medians = {}
    for m in (1_000, 10_000, 100_000):
        errs = []
        for s in range(20):
            e = estimate_null_ecf(sample_model(defaults, m, 1_000 + s)[0])
            errs.append([abs(e.p0_hat - 0.8), abs(e.u0_hat), abs(e.sigma0_hat - 1.0)])
        medians[m] = np.median(np.array(errs), axis=0)
    trend_ok = all(
        medians[1_000][j] >= medians[10_000][j] >= medians[100_000][j] for j in range(3)
    )
    ok = null_ok and mix_ok and trend_ok
    report(
        6,
        "ECF null estimation tolerances and consistency trend",
        ok,
        f"null ({est_null.p0_hat:.3f}, {est_null.u0_hat:+.3f}, {est_null.sigma0_hat:.3f}), "
        f"mixture ({est_mix.p0_hat:.3f}, {est_mix.sigma0_hat:.3f}), trend {trend_ok}",
    )


def test_criterion_7_validity_under_dependence(report):
    model = eq1_default_model()
    rho = 0.5
    fdps = []
    null_means = []
    for rep in range(500):
        z, nonnull = sample_correlated(model, 2_000, rho, rep_seed(7, rep))
        table = bh_stepup(two_sided_pvalue(z, model.null), 0.10)
        fdps.append(fdp_fnp(confusion(table, nonnull))[0])
        null_means.append(float(z[~nonnull].mean()))
    fdr = float(np.mean(fdps))
    se = float(np.std(fdps, ddof=1) / math.sqrt(len(fdps)))
    sd = float(np.std(null_means))
    fdr_ok = fdr <= 0.10 + 3 * se
    sd_ok = abs(sd - math.sqrt(rho)) <= 0.05
    ok = fdr_ok and sd_ok
    report(
        7,
        "BH stays valid under equicorrelation",
        ok,
        f"FDR {fdr:.4f} (limit {0.10 + 3 * se:.4f}), null z-mean sd {sd:.4f} vs {math.sqrt(rho):.4f}",
    )


def test_criterion_8_region_rates_vs_monte_carlo(report):
    defaults = eq1_default_model()
    fig2 = mixture_model(0.8, [(0.15, -3.0, 1.0), (0.05, 4.0, 1.0)])
    panel_a_mid = mixture_model(0.8, [(0.10, -3.0, 1.0), (0.10, 3.0, 1.0)])
    pairs = [
        (fig2, RejectionRegion(((-math.inf, -2.0), (2.0, math.inf)))),
        (panel_a_mid, oracle_pvalue_rule(panel_a_mid, 0.10).region),
        (defaults, RejectionRegion(((-math.inf, -2.5), (3.0, math.inf)))),
    ]
    draws = 10_000_000
    worst = 0.0
    for i, (model, region) in enumerate(pairs):
        z, nonnull = sample_model(model, draws, 800 + i)
        inside = np.zeros(draws, dtype=bool)
        for lo, hi in region.intervals:
            inside |= (z >= lo) & (z <= hi)
        r = int(inside.sum())
        fdp = float((inside & ~nonnull).sum()) / r
        fdp_se = math.sqrt(fdp * (1.0 - fdp) / r)
        s = draws - r
        fnp = float((~inside & nonnull).sum()) / s
        fnp_se = math.sqrt(fnp * (1.0 - fnp) / s)
        dev_fdr = abs(mfdr_of_region(model, region) - fdp) / fdp_se
        dev_fnr = abs(mfnr_of_region(model, region) - fnp) / fnp_se
        worst = max(worst, dev_fdr, dev_fnr)
    ok = worst <= 3.0
    report(
        8,
        "closed-form region rates match 10^7-draw Monte Carlo",
        ok,
        f"worst deviation {worst:.2f} MC standard errors",
    )


def test_criterion_9_procedure_identities(report):
    rng = np.random.default_rng(123)
    identical = True
    for _ in range(1_000):
        p = rng.uniform(size=int(rng.integers(1, 60))) ** 2
        alpha = float(rng.uniform(0.01, 0.5))
        a = bh_stepup(p, alpha).rejected.tolist()
        b = adaptive_bh(p, alpha, 1.0).rejected.tolist()
        if a != b:
            identical = False
            break

    mean_ok = True
    for _ in range(300):
        v = rng.uniform(size=int(rng.integers(1, 100)))
        alpha = float(rng.uniform(0.02, 0.5))
        table = lfdr_stepup(v, alpha)
        rejected = v[table.rejected]
        if rejected.size and np.mean(rejected) > alpha + 1e-12:
            mean_ok = False
            break

    hand_ok = (
        bh_stepup([0.001, 0.2, 0.9], 0.05).rejected.tolist() == [True, False, False]
        and adaptive_bh([0.02, 0.03, 0.9], 0.05, 0.5).rejected.tolist() == [True, True, False]
        and lfdr_stepup([0.01, 0.05, 0.2, 0.9], 0.10).k == 3
    )
    ok = identical and mean_ok and hand_ok
    report(
        9,
        "procedure unit identities",
        ok,
        f"adaptive==bh at p0=1: {identical}, running-mean bound: {mean_ok}, hand examples: {hand_ok}",
    )
