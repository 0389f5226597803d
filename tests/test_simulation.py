import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtri

from lfdr_lab import (
    GaussianComponent,
    SimConfig,
    TwoGroupModel,
    bh_stepup,
    concentrated_alternative_demo,
    confusion,
    eq1_default_model,
    fdp_fnp,
    figure1_data,
    figure2_data,
    mixture_model,
    mfdr_of_region,
    oracle_lfdr_rule,
    oracle_pvalue_rule,
    region_from_pvalue_threshold,
    rep_seed,
    run_replicated,
    sample_correlated,
    sample_model,
    two_sided_pvalue,
)
from lfdr_lab import core_model, simulation
from lfdr_lab.cli import main as cli_main
from lfdr_lab.procedures import decide

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

    @pytest.mark.parametrize("m", [-1, 2.5, 3.0, True, False, "3", None, np.float64(2.0)])
    def test_m_must_be_a_count(self, m):
        # numpy would refuse -1 as a negative dimension and 2.5 with a
        # TypeError about sequences, and take a bool as 0 or 1
        for draw in (lambda: sample_correlated(PURE_NULL, m, 0.5, 0), lambda: sample_model(PURE_NULL, m, 0)):
            with pytest.raises(ValueError, match=f"^m must be an integer >= 0, got {re.escape(repr(m))}$"):
                draw()

    def test_m_zero_and_numpy_integers(self):
        for draw in (sample_model, lambda model, m, seed: sample_correlated(model, m, 0.5, seed)):
            z, nonnull = draw(eq1_default_model(), 0, 1)
            assert (z.shape, z.dtype, nonnull.shape, nonnull.dtype) == ((0,), np.float64, (0,), np.bool_)
            for m in (np.int32(5), np.uint8(5)):
                assert_array_equal(draw(eq1_default_model(), m, 1)[0], draw(eq1_default_model(), 5, 1)[0])


# the three models whose draws are pinned: eq1, figure 2 at p1 = 0.15, and six
# nonnull components of unequal sd with a row of weight 0
PINNED_DRAW_MODELS = {
    "eq1": eq1_default_model(),
    "figure2_p1_0.15": simulation._figure2_model(0.15),
    "six_nonnull": mixture_model(0.7, [(0.05, -4.0, 0.5), (0.08, -2.0, 1.5), (0.0, 1.0, 1.0), (0.03, 1.5, 0.2),
                                       (0.04, 3.0, 2.0), (0.06, 5.0, 0.8), (0.04, 7.0, 0.3)]),
}


def draw_digest(model) -> str:
    h = hashlib.sha256()
    for rho in (0.0, 0.5):
        for m in (1, 777):
            for k in range(3):
                z, nonnull = sample_correlated(model, m, rho, rep_seed(2008, k))
                h.update(z.tobytes())
                h.update(nonnull.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name, want", [
    ("eq1", "3ace3508afceee453ddfc34bc0ca94a506f55658098b71dbefd082deac3749a2"),
    ("figure2_p1_0.15", "1cca77903a495bb2df7ab481108ac527bb18f9e87659b6b8c75348f7e72a7917"),
    ("six_nonnull", "70047fbe28e60e82582a04e0b2de01a369c11a6bf35a3fb622bd0ec9fb6b36a8"),
])
def test_draw_bits_pinned(name, want):
    # the digests are of the draws made while labels came from a binary
    # search of the cumulative weights
    assert draw_digest(PINNED_DRAW_MODELS[name]) == want


@pytest.mark.parametrize("rho, procedures, want", [
    (0.0, ("lfdr_estimated",), "327b42e7b91bc8220444e9c317d0984e9308ba6aafebe1de33b34b4c5eed1377"),
    (0.5, ("bh", "adaptive_bh", "lfdr_oracle_plugin"), "90f7a55e3f89b824e3d7d2746d200f0c93d97fbc2455ca91a583e545542b77f4"),
])
def test_replication_study_bits_pinned(rho, procedures, want):
    # the benchmark's two replication studies (eq1, m = 5000, alpha 0.1) at
    # three replications, by the repr of every rate
    config = SimConfig(model=eq1_default_model(), m=5000, reps=3, alpha=0.1, seed=20081000, rho=rho,
                       procedures=procedures)
    assert hashlib.sha256(repr(run_replicated(config)).encode()).hexdigest() == want


class ScriptedUniforms:
    """A generator whose first draw is ``u`` and every later one 0.5, so
    that the noise is ndtri(0.5) = 0 and each z is its component's mean."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        u, self.u = self.u, None
        return np.full(n, 0.5) if u is None else u


@st.composite
def weights_and_uniforms(draw):
    """Up to 40 component weights, some tiny (down to 1e-300) or 0, and
    uniforms at 0, at each cumulative weight and one ulp either side of it,
    at 1 - 2^-53, and some drawn freely."""
    raw = draw(st.lists(st.just(0.0) | st.floats(1e-300, 1e-250) | st.floats(1e-6, 1.0), max_size=39))
    scale = draw(st.floats(0.0, 0.99)) / sum(raw) if sum(raw) > 0.0 else 0.0
    nonnull = [r * scale for r in raw]
    model = TwoGroupModel(1.0 - sum(nonnull), GaussianComponent(0.0, 1.0),
                          tuple((w, GaussianComponent(float(j + 1), 1.0)) for j, w in enumerate(nonnull)))
    edges = np.cumsum(core_model._components(model)[0, :, 0])
    u = [0.0, 1.0 - 2.0**-53, *draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))]
    for edge in edges:
        u += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)]
    return model, np.array([x for x in u if 0.0 <= x < 1.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=weights_and_uniforms())
@example(case=(mixture_model(0.5, [(0.5 - 9e-13, 1.0, 1.0), (0.0, 50.0, 1.0)]), np.array([0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53])))
def test_labels_are_those_of_a_right_sided_search(case):
    model, u = case
    weights, means = core_model._components(model)[:2, :, 0]
    want = np.minimum(np.searchsorted(np.cumsum(weights), u, side="right"), weights.size - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation.np.random, "default_rng", lambda seed: ScriptedUniforms(u.copy()))
        z, nonnull = sample_correlated(model, u.size, 0.0, 1)
    assert_array_equal(z, means[want])
    assert_array_equal(nonnull, want > 0)


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
        # run_replicated would fail later with an AttributeError
        with pytest.raises(ValueError, match="^model must be a TwoGroupModel, got 'x'$"):
            SimConfig(model="x", m=10, reps=1, alpha=0.1, seed=1)
        with pytest.raises(ValueError):
            SimConfig(model=PURE_NULL, m=0, reps=1, alpha=0.1, seed=1)
        with pytest.raises(ValueError, match="^reps must be >= 1, got 0$"):
            SimConfig(model=PURE_NULL, m=1, reps=0, alpha=0.1, seed=1)
        with pytest.raises(ValueError):
            SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, rho=1.0)
        known = "bh, adaptive_bh, lfdr_oracle_plugin, lfdr_estimated"
        with pytest.raises(ValueError, match=re.escape(f"unknown procedures: ['by', 'nope']; known: {known}") + "$"):
            SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, procedures=("nope", "bh", "by"))
        with pytest.raises(ValueError, match="at least one procedure"):
            SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, procedures=())
        with pytest.raises(ValueError, match="not the string 'bh'"):
            SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, procedures="bh")
        # a dict would run its keys, and a nested list fail on hashing
        for procedures in ({"bh": 7}, [["bh"]]):
            with pytest.raises(ValueError, match=f"^procedures must be a list of names, got {re.escape(repr(procedures))}$"):
                SimConfig(model=PURE_NULL, m=1, reps=1, alpha=0.1, seed=1, procedures=procedures)

    def test_repeated_procedures_are_kept_once_in_first_seen_order(self):
        # as decide keeps them, and as the result holds one row per name
        config = SimConfig(model=eq1_default_model(), m=500, reps=2, alpha=0.1, seed=3,
                           procedures=["lfdr_estimated", "bh", "lfdr_estimated", "bh"])
        assert config.procedures == ("lfdr_estimated", "bh")
        assert tuple(run_replicated(config).per_procedure) == config.procedures

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


@pytest.mark.parametrize("name, model", [
    ("eq1", eq1_default_model()),
    ("figure 2, p1 = 0.15", mixture_model(0.8, [(0.15, -3.0, 1.0), (0.05, 4.0, 1.0)])),
])
def test_data_driven_lfdr_rules_reach_the_oracle(name, model, capfd):
    # Sun & Cai (2007): the step-up on the true lfdr attains the exact oracle
    # lfdr rule's mFNR, and the fully estimated rule approaches it as m
    # grows while its mFDR stays at alpha; seeds 5 and 6 both pass
    alpha = 0.1
    oracle = oracle_lfdr_rule(model, alpha).mfnr
    # the p-value side, on the same draws: BH at alpha tends to the p-value
    # rule at mFDR p0 alpha (Genovese & Wasserman 2002), and adaptive BH to
    # that rule at alpha p0/p0_inf, where its tail estimate tends to p0_inf
    # = min(1, 2 P(p > 1/2)) (Storey 2002)
    below_half = model.p0 * 0.5 / mfdr_of_region(model, region_from_pvalue_threshold(model.null, 0.5))
    p0_inf = min(1.0, 2.0 * (1.0 - below_half))
    limits = {"bh": oracle_pvalue_rule(model, model.p0 * alpha),
              "adaptive_bh": oracle_pvalue_rule(model, alpha * model.p0 / p0_inf)}
    stats = {}
    for m, reps in ((1_000, 200), (10_000, 60), (100_000, 12)):
        config = SimConfig(model=model, m=m, reps=reps, alpha=alpha, seed=5,
                           procedures=("lfdr_oracle_plugin", "lfdr_estimated", "bh", "adaptive_bh"))
        result = stats[m] = run_replicated(config).per_procedure
        plugin, est = result["lfdr_oracle_plugin"], result["lfdr_estimated"]
        with capfd.disabled():
            print(f"[ORACLE GAP] {name}, m = {m} ({reps} reps): plug-in mFNR {plugin.mfnr:.4f} "
                  f"+- {plugin.mfnr_se:.4f}, estimated mFDR {est.mfdr:.4f} +- {est.mfdr_se:.4f}, "
                  f"mFNR {est.mfnr:.4f} +- {est.mfnr_se:.4f}, oracle mFNR {oracle:.4f}", flush=True)
            for proc, limit in limits.items():
                got = result[proc]
                print(f"[ORACLE GAP] {name}, m = {m}: {proc} mFDR {got.mfdr:.4f} +- {got.mfdr_se:.4f} "
                      f"(limit {limit.mfdr:.4f}), mFNR {got.mfnr:.4f} +- {got.mfnr_se:.4f} "
                      f"(limit {limit.mfnr:.4f}; p0_inf {p0_inf:.5f})", flush=True)
    for m, result in stats.items():
        plugin = result["lfdr_oracle_plugin"]
        assert abs(plugin.mfnr - oracle) <= 3.0 * plugin.mfnr_se, m
        for proc, limit in limits.items():
            got = result[proc]
            assert abs(got.mfnr - limit.mfnr) <= 3.0 * got.mfnr_se, (m, proc)
            assert abs(got.mfdr - limit.mfdr) <= 3.0 * got.mfdr_se, (m, proc)
    assert abs(limits["bh"].mfdr - model.p0 * alpha) <= 1e-8
    est = {m: result["lfdr_estimated"] for m, result in stats.items()}
    assert abs(est[100_000].mfnr - oracle) < abs(est[1_000].mfnr - oracle)
    assert est[100_000].mfdr <= alpha + 3.0 * est[100_000].mfdr_se


# A nonnull component narrower than the null breaks the ECF null's
# assumption (Jin & Cai 2007): the null estimate measures the spike, and the
# fully estimated lfdr rule's mean FDP over seeds 11-13 reads 0.585 at sd
# 0.01 and 0.369 at sd 0.3, against 0.097 at sd 1.  The marks come off
# when the pipeline detects the spike or holds its FDR there.
_FOOLS_THE_NULL = pytest.mark.xfail(strict=True, reason="a narrow nonnull component fools the ECF null")


@pytest.mark.parametrize("sd", [pytest.param(0.01, marks=_FOOLS_THE_NULL),
                                pytest.param(0.3, marks=_FOOLS_THE_NULL), 1.0])
def test_estimated_lfdr_rule_holds_fdr_beside_a_narrow_nonnull(sd):
    model = mixture_model(0.9, [(0.1, 2.5, sd)])
    fdps = []
    for seed in (11, 12, 13):
        z, nonnull = sample_model(model, 5000, seed)
        fdps.append(fdp_fnp(confusion(decide(z, ("lfdr",), 0.1, None)["lfdr"], nonnull))[0])
    assert np.mean(fdps) <= 0.2
