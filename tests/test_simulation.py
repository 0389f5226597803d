import json
import math
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtri

from lfdr_lab import (
    SimConfig,
    bh_stepup,
    concentrated_alternative_demo,
    confusion,
    eq1_default_model,
    fdp_fnp,
    figure1_data,
    figure2_data,
    mixture_model,
    rep_seed,
    run_replicated,
    sample_correlated,
    sample_model,
    two_sided_pvalue,
)
from lfdr_lab import simulation
from lfdr_lab.cli import main as cli_main

PURE_NULL = mixture_model(1.0, [])


class TestSampling:
    def test_pure_null_labels(self):
        z, nonnull = sample_model(PURE_NULL, 5_000, 1)
        assert not nonnull.any()
        assert abs(z.mean()) < 0.05 and abs(z.std() - 1.0) < 0.05

    def test_nonnull_fraction_band(self):
        z, nonnull = sample_model(eq1_default_model(), 100_000, 2)
        band = 3 * math.sqrt(0.2 * 0.8 / 100_000)
        assert abs(nonnull.mean() - 0.2) <= band

    def test_deterministic(self):
        a = sample_model(eq1_default_model(), 1_000, 3)
        b = sample_model(eq1_default_model(), 1_000, 3)
        assert_array_equal(a[0], b[0])
        assert_array_equal(a[1], b[1])

    def test_component_locations(self):
        m = mixture_model(0.5, [(0.5, 10.0, 0.1)])
        z, nonnull = sample_model(m, 10_000, 4)
        assert z[nonnull].min() > 5.0 and z[~nonnull].max() < 6.0


class TestSampleCorrelated:
    def test_rho_zero_equals_independent_sampler(self):
        for seed in (0, 7, 123):
            a_z, a_f = sample_model(eq1_default_model(), 500, seed)
            b_z, b_f = sample_correlated(eq1_default_model(), 500, 0.0, seed)
            assert_array_equal(a_z, b_z)
            assert_array_equal(a_f, b_f)

    def test_zero_weight_component_is_never_drawn(self, monkeypatch):
        # a uniform above the rounded total weight (1 - 9e-13 here) falls past
        # the last cumulative weight; it must land on the last component of
        # positive weight, N(3, 1), not on the trailing weight-0 N(50, 1)
        top = 1.0 - 2.0**-53

        class TopUniforms:
            def random(self, n):
                return np.full(n, top)

        monkeypatch.setattr(simulation.np.random, "default_rng", lambda seed: TopUniforms())
        m = mixture_model(0.5, [(0.5 - 9e-13, 3.0, 1.0), (0.0, 50.0, 1.0)])
        q = ndtri(top)
        for rho in (0.0, 0.5):
            z, nonnull = sample_correlated(m, 4, rho, 1)
            assert_array_equal(z, 3.0 + (math.sqrt(1.0 - rho) * q + math.sqrt(rho) * q))
            assert nonnull.all()
        z, _ = sample_model(m, 4, 1)
        assert_array_equal(z, 3.0 + q)

    def test_zero_uniform_gives_finite_draws(self, monkeypatch):
        # PCG64 can return exactly 0.0, and ndtri(0) = -inf; a zero shared
        # draw must not make every z NaN (rho 0) or -inf (rho > 0)
        class ZeroShared:
            def random(self, n):
                self.calls = getattr(self, "calls", 0) + 1
                return np.full(n, 0.0 if self.calls == 3 else 0.3)

        monkeypatch.setattr(simulation.np.random, "default_rng", lambda seed: ZeroShared())
        m = mixture_model(0.5, [(0.5, 3.0, 1.0)])  # u = 0.3 picks the null N(0, 1)
        for rho in (0.0, 0.5):
            z, _ = sample_correlated(m, 4, rho, 1)
            assert np.all(np.isfinite(z))
            assert_array_equal(z, math.sqrt(1.0 - rho) * ndtri(0.3) + math.sqrt(rho) * ndtri(2.0**-53))

    def test_unit_variance_any_rho(self):
        # the shared factor couples draws within a replication, so the
        # pooled variance estimate needs many replications to settle
        reps = 2_000
        for rho in (0.0, 0.3, 0.9):
            pooled = np.concatenate(
                [
                    sample_correlated(PURE_NULL, 50, rho, rep_seed(5, r))[0]
                    for r in range(reps)
                ]
            )
            tol = 0.02 + 2.0 * rho * math.sqrt(2.0 / reps)
            assert abs(pooled.std() - 1.0) < tol

    def test_pairwise_correlation(self):
        rho = 0.9
        reps = 100
        m = 40
        zs = np.stack(
            [sample_correlated(PURE_NULL, m, rho, rep_seed(6, r))[0] for r in range(reps)]
        )  # reps x m
        corr = np.corrcoef(zs.T)
        off = corr[np.triu_indices(m, k=1)]
        assert abs(off.mean() - rho) < 0.05

    def test_zmean_sd_reflects_shared_factor(self):
        rho = 0.5
        means = [
            sample_correlated(PURE_NULL, 2_000, rho, rep_seed(8, r))[0].mean()
            for r in range(500)
        ]
        assert abs(np.std(means) - math.sqrt(rho)) <= 0.05

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            sample_correlated(PURE_NULL, 10, 1.0, 0)


class TestRepSeed:
    def test_spread_and_determinism(self):
        seeds = {rep_seed(42, r) for r in range(1000)}
        assert len(seeds) == 1000
        assert rep_seed(42, 7) == rep_seed(42, 7)
        assert rep_seed(42, 7) != rep_seed(43, 7)
        assert all(0 <= s < 2**64 for s in seeds)


class TestRunReplicated:
    def test_pure_null_rates(self):
        config = SimConfig(
            model=PURE_NULL, m=200, reps=100, alpha=0.05, seed=11,
            procedures=("bh", "adaptive_bh"),
        )
        result = run_replicated(config)
        for stats in result.per_procedure.values():
            assert stats.mfdr <= 0.06  # fdp is 0/1-ish under the global null
            assert stats.mfnr == 0.0
            assert stats.mean_rejections < 2.0

    def test_bh_controls_mfdr(self):
        config = SimConfig(
            model=eq1_default_model(), m=5_000, reps=200, alpha=0.10, seed=12,
            procedures=("bh",),
        )
        stats = run_replicated(config).per_procedure["bh"]
        assert stats.mfdr <= 0.10 + 2 * stats.mfdr_se
        assert abs(stats.mfdr - 0.08) <= 0.01  # BH sits near p0 * alpha

    def test_oracle_plugin_calibrated(self):
        config = SimConfig(
            model=eq1_default_model(), m=2_000, reps=150, alpha=0.10, seed=13,
            procedures=("lfdr_oracle_plugin",),
        )
        stats = run_replicated(config).per_procedure["lfdr_oracle_plugin"]
        assert stats.mfdr <= 0.10 + 3 * stats.mfdr_se

    def test_single_replication_has_zero_standard_errors(self):
        config = SimConfig(model=eq1_default_model(), m=500, reps=1, alpha=0.10, seed=15,
                           procedures=("bh", "adaptive_bh", "lfdr_oracle_plugin"))
        for stats in run_replicated(config).per_procedure.values():
            assert stats.mfdr_se == stats.mfnr_se == 0.0
            assert stats.mean_rejections > 0.0

    def test_deterministic_and_thread_invariant(self):
        config = SimConfig(
            model=eq1_default_model(), m=500, reps=20, alpha=0.10, seed=14,
            procedures=("bh", "lfdr_oracle_plugin"),
        )
        base = run_replicated(config)
        again = run_replicated(config)
        assert base == again
        os.environ["LFDR_LAB_THREADS"] = "4"
        try:
            threaded = run_replicated(config)
        finally:
            del os.environ["LFDR_LAB_THREADS"]
        assert base == threaded

    def test_mfdr_fdr_gap_shrinks_with_m(self):
        # mean(fdp) and the ratio-of-means estimate converge together
        model = eq1_default_model()
        gaps = {}
        for m in (500, 5_000, 50_000):
            fdps, n10, r_tot = [], 0, 0
            reps = 150 if m < 50_000 else 60
            for rep in range(reps):
                z, nonnull = sample_model(model, m, rep_seed(777, rep))
                table = bh_stepup(two_sided_pvalue(z, model.null), 0.10)
                c = confusion(table, nonnull)
                fdps.append(fdp_fnp(c)[0])
                n10 += c.n10
                r_tot += c.r
            gaps[m] = abs(float(np.mean(fdps)) - n10 / r_tot)
        assert gaps[50_000] <= gaps[5_000] <= gaps[500]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(model=PURE_NULL, m=0, reps=1, alpha=0.1, seed=1)
        with pytest.raises(ValueError, match="^reps must be >= 1, got 0$"):
            SimConfig(model=PURE_NULL, m=1, reps=0, alpha=0.1, seed=1)
        with pytest.raises(ValueError):
            SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, rho=1.0)
        with pytest.raises(ValueError):
            SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, procedures=("nope",))
        with pytest.raises(ValueError, match="at least one procedure"):
            SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, procedures=())
        with pytest.raises(ValueError, match="not the string 'bh'"):
            SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, procedures="bh")
        # a dict would run its keys, and a nested list fail on hashing
        for procedures in ({"bh": 7}, [["bh"]]):
            with pytest.raises(ValueError, match=f"^procedures must be a list of names, got {re.escape(repr(procedures))}$"):
                SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, procedures=procedures)

    @pytest.mark.parametrize("key, value", [("m", 200.5), ("m", True), ("m", 200.0), ("m", "200"),
                                            ("reps", 2.5), ("reps", np.float64(2.0)), ("seed", 1.5),
                                            ("seed", False), ("alpha", "0.1"), ("alpha", None),
                                            ("rho", "0"), ("rho", False), ("rho", np.bool_(True))])
    def test_counts_must_be_integers(self, key, value):
        # and alpha and rho real numbers: a comparison would raise TypeError
        # on a string, and a bool would be stored as it is
        settings = {"model": PURE_NULL, "m": 200, "reps": 2, "alpha": 0.1, "seed": 1, key: value}
        kind = "a number" if key in ("alpha", "rho") else "an integer"
        with pytest.raises(ValueError, match=f"^{key} must be {kind}, got {re.escape(repr(value))}$"):
            SimConfig(**settings)

    def test_real_alpha_and_rho_are_floats(self):
        config = SimConfig(model=PURE_NULL, m=200, reps=2, alpha=np.float32(0.25), seed=1, rho=0)
        assert [(v, type(v)) for v in (config.alpha, config.rho)] == [(0.25, float), (0.0, float)]

    def test_numpy_integer_counts_are_python_ints(self):
        config = SimConfig(model=PURE_NULL, m=np.int32(200), reps=np.uint8(2), alpha=0.1,
                           seed=np.uint64(2**63 + 1))
        assert [(v, type(v)) for v in (config.m, config.reps, config.seed)] == [
            (200, int), (2, int), (2**63 + 1, int)]

    def test_csv_rendering(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p0": 1.0, "components": [], "m": 100, "reps": 5,
                                   "alpha": 0.1, "seed": 15, "procedures": ["bh"]}))
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "replication.csv").read_text().strip().split("\n")
        assert lines[0] == "procedure,mfdr,mfdr_se,mfnr,mfnr_se,mean_rejections"
        assert lines[1].startswith("bh,")


class TestFigureData:
    def test_panel_row_counts(self):
        assert len(figure1_data("a")) == 19
        assert len(figure1_data("c")) == 21
        assert len(figure1_data("d")) == 15

    def test_panel_a_properties(self):
        rows = figure1_data("a")
        pv = np.array([r.mfnr_pvalue for r in rows])
        lf = np.array([r.mfnr_lfdr for r in rows])
        assert pv.max() - pv.min() <= 1e-4  # constancy of the p-value oracle
        assert np.all(lf <= pv + 1e-6)  # dominance
        mid = [r for r in rows if abs(r.sweep - 0.10) < 1e-9][0]
        assert abs(mid.mfnr_pvalue - mid.mfnr_lfdr) <= 1e-6  # symmetric point

    def test_csv_header(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"figure": "1d"}))
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "figure1_d.csv").read_text().strip().split("\n")
        assert lines[0] == "panel,sweep,mfnr_pvalue,mfnr_lfdr"
        assert len(lines) == 16

    def test_bad_panel(self):
        with pytest.raises(ValueError):
            figure1_data("e")

    def test_figure2_probe_report(self):
        fig = figure2_data()
        assert len(fig.curve) == 19
        probes = {p.z: p for p in fig.probes}
        assert abs(probes[-2.0].pvalue - 0.046) <= 5e-4
        assert abs(probes[3.0].pvalue - 0.003) <= 5e-4
        # the lfdr rule rejects exactly one probe; the p-value region is
        # symmetric so its two probe decisions follow |z| alone
        assert probes[-2.0].rejected_by_lfdr != probes[3.0].rejected_by_lfdr
        (_, hi1), (lo2, _) = fig.pvalue_rule.region.intervals
        assert_allclose(hi1, -lo2, atol=1e-9)


class TestConcentratedDemo:
    def test_lfdr_ranking_beats_pvalues(self):
        demo = concentrated_alternative_demo()
        assert demo.capture_by_lfdr > demo.capture_by_pvalue
        assert demo.capture_by_lfdr > 0.5
        assert demo.capture_by_pvalue < 0.1

    def test_moderate_z_scores_better_than_extreme(self):
        demo = concentrated_alternative_demo()
        assert demo.lfdr_at_mode < demo.lfdr_at_far_tail
