import functools
import hashlib
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from lfdr_lab import (
    EmptyRegion,
    FullRegion,
    GaussianComponent,
    Infeasible,
    InvalidModel,
    RejectionRegion,
    TwoGroupModel,
    figure2_data,
    lfdr,
    mixture_model,
    mfdr_of_region,
    mfnr_of_region,
    oracle_lfdr_rule,
    oracle_pvalue_rule,
    oracle_sweep,
    region_from_lfdr_threshold,
    region_from_pvalue_threshold,
    sample_model,
)
from lfdr_lab import oracle
from lfdr_lab.core_model import _components
from lfdr_lab.oracle import (
    _GRIDS,
    _LFDR_SETUPS,
    _MAX_STEPS,
    _PVALUE_ENDS,
    _T_CHUNK_ENDS,
    _T_GRID,
    _T_QUANTILES,
    SweepRow,
    _bracketed_newton,
    _interval_mass,
    _lfdr_excess,
    _log_lfdr_slope,
    _pvalue_tails,
    _region_masses,
    _scan_grid,
    _sublevel_region,
    _tail_masses,
    _tail_masses_at,
)
from lfdr_lab.simulation import figure1_data

STD = GaussianComponent(0.0, 1.0)


def fig2_model():
    return mixture_model(0.8, [(0.15, -3.0, 1.0), (0.05, 4.0, 1.0)])


def symmetric_model(p1=0.10):
    return mixture_model(0.8, [(p1, -3.0, 1.0), (0.2 - p1, 3.0, 1.0)])


def quad_mfdr(model, region):
    """Independent quadrature oracle for mFDR of a region."""
    def null_part(z):
        return model.p0 * math.exp(-0.5 * (z - model.null.mean) ** 2) / math.sqrt(2 * math.pi)

    def density(z):
        return sum(w * math.exp(-0.5 * ((z - c.mean) / c.sd) ** 2) / (c.sd * math.sqrt(2 * math.pi))
                   for w, c in model.components)

    num = den = 0.0
    for lo, hi in region.intervals:
        lo, hi = max(lo, -14.0), min(hi, 15.0)
        num += quad(null_part, lo, hi, limit=300)[0]
        den += quad(density, lo, hi, limit=300)[0]
    return num / den


class TestRejectionRegion:
    def test_sorted_disjoint_enforced(self):
        with pytest.raises(ValueError):
            RejectionRegion(((0.0, 2.0), (1.0, 3.0)))
        with pytest.raises(ValueError):
            RejectionRegion(((2.0, 1.0),))
        with pytest.raises(ValueError):
            RejectionRegion(((1.0, 2.0), (-1.0, 0.0)))

    def test_contains_and_complement(self):
        r = RejectionRegion(((-math.inf, -2.0), (2.0, math.inf)))
        assert r.contains(-2.0) and r.contains(5.0) and not r.contains(0.0)
        assert r.complement().intervals == ((-2.0, 2.0),)
        assert RejectionRegion(()).complement().intervals == ((-math.inf, math.inf),)


class TestRegionFromPvalueThreshold:
    @pytest.mark.parametrize("t", [0.0, 1.0, math.nan])
    def test_threshold_outside_open_unit_interval_is_refused(self, t):
        with pytest.raises(ValueError, match=rf"^p-value threshold must be in \(0, 1\), got {t}$"):
            region_from_pvalue_threshold(STD, t)

    def test_near_one_covers_the_line(self):
        r = region_from_pvalue_threshold(STD, 1.0 - 1e-9)
        (lo1, hi1), (lo2, hi2) = r.intervals
        assert hi1 < 0.0 < lo2 and lo2 - hi1 < 1e-8

    def test_probe_threshold_gives_two_sigma_tails(self):
        r = region_from_pvalue_threshold(STD, 0.0455)
        (_, hi1), (lo2, _) = r.intervals
        assert abs(hi1 + 2.0) <= 1e-3 and abs(lo2 - 2.0) <= 1e-3

    def test_t_005_cutoff(self):
        # oracle: bisect Phi (math.erf) for the 0.975 quantile
        lo, hi = 0.0, 10.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if 0.5 * (1 + math.erf(mid / math.sqrt(2))) < 0.975:
                lo = mid
            else:
                hi = mid
        q = 0.5 * (lo + hi)
        assert_allclose(q, 1.959963984540054, atol=1e-9)  # frozen
        r = region_from_pvalue_threshold(STD, 0.05)
        assert_allclose(r.intervals[1][0], q, atol=1e-9)

    def test_scaled_null(self):
        r = region_from_pvalue_threshold(GaussianComponent(1.0, 2.0), 0.05)
        assert_allclose(r.intervals[1][0], 1.0 + 2.0 * 1.959963984540054, atol=1e-8)


class TestRegionFromLfdrThreshold:
    @pytest.mark.parametrize("lam", [0.0, 1.0, math.nan])
    def test_threshold_outside_open_unit_interval_is_refused(self, lam):
        with pytest.raises(ValueError, match=rf"^lfdr threshold must be in \(0, 1\), got {lam}$"):
            region_from_lfdr_threshold(symmetric_model(), lam)

    def test_pure_null_empty(self):
        m = mixture_model(1.0, [])
        assert region_from_lfdr_threshold(m, 0.5).is_empty
        assert region_from_lfdr_threshold(m, 0.999).is_empty

    def test_symmetric_model_symmetric_region(self):
        r = region_from_lfdr_threshold(symmetric_model(0.10), 0.2)
        (lo1, hi1), (lo2, hi2) = r.intervals
        assert lo1 == -math.inf and hi2 == math.inf
        assert_allclose(hi1, -lo2, atol=1e-7)

    def test_boundaries_sit_on_level_set(self):
        m = fig2_model()
        lam = 0.35
        r = region_from_lfdr_threshold(m, lam)
        for lo, hi in r.intervals:
            for edge in (lo, hi):
                if math.isfinite(edge):
                    assert abs(lfdr(m, edge) - lam) <= 1e-6

    def test_region_is_sublevel_set(self):
        m = fig2_model()
        lam = 0.4
        r = region_from_lfdr_threshold(m, lam)
        rng = np.random.default_rng(3)
        z = rng.uniform(-10, 11, 500)
        inside = np.array([r.contains(v) for v in z])
        vals = lfdr(m, z)
        # away from the boundary the indicator must match the inequality
        away = np.abs(vals - lam) > 1e-6
        assert np.all((vals[away] <= lam) == inside[away])


class TestRegionRates:
    def test_whole_line_mfdr_is_p0(self):
        m = fig2_model()
        whole = RejectionRegion(((-math.inf, math.inf),))
        assert_allclose(mfdr_of_region(m, whole), 0.8, rtol=1e-12)

    def test_empty_region_raises(self):
        with pytest.raises(EmptyRegion):
            mfdr_of_region(fig2_model(), RejectionRegion(()))

    def test_full_region_mfnr_raises(self):
        with pytest.raises(FullRegion):
            mfnr_of_region(fig2_model(), RejectionRegion(((-math.inf, math.inf),)))

    def test_massless_region_raises(self):
        # [60, 61] lies 57 sd past every component: its mass underflows to 0
        far = RejectionRegion(((60.0, 61.0),))
        with pytest.raises(EmptyRegion, match="^rejection region carries no probability mass$"):
            mfdr_of_region(symmetric_model(), far)
        with pytest.raises(FullRegion, match="^acceptance set carries no probability mass$"):
            mfnr_of_region(symmetric_model(), far.complement())

    def test_empty_rejection_mfnr_is_nonnull_proportion(self):
        m = symmetric_model()
        assert_allclose(mfnr_of_region(m, RejectionRegion(())), 0.2, rtol=1e-12)

    def test_pure_null_mfnr_zero(self):
        m = mixture_model(1.0, [])
        r = RejectionRegion(((2.0, math.inf),))
        assert mfnr_of_region(m, r) == 0.0

    def test_matches_quadrature_oracle(self):
        m = fig2_model()
        r = RejectionRegion(((-math.inf, -2.0), (2.0, math.inf)))
        assert_allclose(mfdr_of_region(m, r), quad_mfdr(m, r), rtol=1e-8)

    def test_small_interval_limit_is_lfdr(self):
        m = fig2_model()
        eps = 1e-4
        for z0 in (-2.0, 0.5, 3.0):
            r = RejectionRegion(((z0 - eps / 2, z0 + eps / 2),))
            assert abs(mfdr_of_region(m, r) - lfdr(m, z0)) <= 1e-3


class TestOraclePvalueRule:
    def test_pure_null_infeasible(self):
        with pytest.raises(Infeasible):
            oracle_pvalue_rule(mixture_model(1.0, []), 0.10)

    def test_reject_everything_when_p0_below_alpha(self):
        m = mixture_model(0.05, [(0.95, 3.0, 1.0)])
        rule = oracle_pvalue_rule(m, 0.10)
        assert rule.threshold > 0.999
        assert rule.mfdr <= 0.10 + 1e-9

    def test_threshold_monotone_in_alpha(self):
        m = fig2_model()
        ts = [oracle_pvalue_rule(m, a).threshold for a in (0.02, 0.05, 0.10, 0.20)]
        assert all(t1 <= t2 + 1e-12 for t1, t2 in zip(ts, ts[1:]))

    def test_mfdr_at_level(self):
        m = symmetric_model(0.07)
        rule = oracle_pvalue_rule(m, 0.10)
        assert rule.mfdr <= 0.10 + 1e-6
        assert rule.mfdr >= 0.10 - 1e-6  # the search is tight for this model

    def test_region_symmetric(self):
        rule = oracle_pvalue_rule(fig2_model(), 0.10)
        (_, hi1), (lo2, _) = rule.region.intervals
        assert_allclose(hi1, -lo2, atol=1e-9)

    def test_t_grid_built_once_read_only(self):
        # every rule scans the same module-level grid and its quantiles, so no
        # rule may write them; the quantiles are those each cutoff gives alone
        assert _T_GRID.size == 10_000 and np.all(np.diff(_T_GRID) > 0.0)
        assert_allclose(_T_GRID[[0, -1]], [1e-10, 1.0 - 1e-12], rtol=1e-12)
        assert _T_CHUNK_ENDS[0] == 0 and _T_CHUNK_ENDS[-1] == _T_GRID.size - 1
        assert _T_QUANTILES.tobytes() == (-ndtri(_T_GRID / 2)).tobytes()
        assert [-float(ndtri(t / 2.0)) for t in _T_GRID[::97].tolist()] == _T_QUANTILES[::97].tolist()
        for grid in (_T_GRID, _T_CHUNK_ENDS, _T_QUANTILES):
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = grid[1]


class TestOracleLfdrRule:
    def test_pure_null_infeasible(self):
        with pytest.raises(Infeasible):
            oracle_lfdr_rule(mixture_model(1.0, []), 0.10)

    def test_symmetric_model_matches_pvalue_rule(self):
        m = symmetric_model(0.10)
        lr = oracle_lfdr_rule(m, 0.10)
        pr = oracle_pvalue_rule(m, 0.10)
        assert abs(lr.mfnr - pr.mfnr) <= 1e-6

    def test_fig2_rejects_exactly_one_probe(self):
        rule = oracle_lfdr_rule(fig2_model(), 0.10)
        rejected = [rule.region.contains(-2.0), rule.region.contains(3.0)]
        assert sum(rejected) == 1

    def test_dominates_pvalue_rule(self):
        for m in (fig2_model(), symmetric_model(0.18),
                  mixture_model(0.8, [(0.02, -3.0, 1.0), (0.18, 1.0, 1.0)])):
            lr = oracle_lfdr_rule(m, 0.10)
            pr = oracle_pvalue_rule(m, 0.10)
            assert lr.mfnr <= pr.mfnr + 1e-6

    def test_mfdr_within_tolerance(self):
        rule = oracle_lfdr_rule(fig2_model(), 0.10)
        assert rule.mfdr <= 0.10 + 1e-6

    @pytest.mark.parametrize("alpha, outcome", [(0.01, Infeasible), (0.1, Infeasible), (0.3, Infeasible),
                                                (0.59, Infeasible), (0.7, FullRegion)])
    def test_flat_lfdr(self, alpha, outcome):
        # the nonnull equals the null: lfdr is p0 = 0.6 up to rounding, its
        # slope is zero, and every nonempty region has mFDR 0.6
        with pytest.raises(outcome):
            oracle_lfdr_rule(mixture_model(0.6, [(0.4, 0.0, 1.0)]), alpha)

    def test_massless_region_is_infeasible(self):
        # a nonnull weight of 1e-305 at mean 50: the sublevel set at the top
        # cutoff is nonempty but carries under 1e-300 of mass
        tiny = mixture_model(1.0 - 1e-305, [(1e-305, 50.0, 1.0)])
        with pytest.raises(Infeasible, match=r"^no lfdr region with positive mass attains mFDR <= 0\.1$"):
            oracle_lfdr_rule(tiny, 0.1)
        # at 1e-290 the same region carries mass, all of it nonnull
        rule = oracle_lfdr_rule(mixture_model(1.0 - 1e-290, [(1e-290, 50.0, 1.0)]), 0.1)
        assert rule.threshold == 1.0 - 1e-12 and rule.mfdr == 0.0
        # at mean 20 the nonnull outweighs the null only past the scan grid's
        # end, so no cutoff below 1 - 1e-12 gives a nonempty region
        with pytest.raises(Infeasible, match="^even the smallest nonempty lfdr region exceeds mFDR 0.1 "):
            oracle_lfdr_rule(mixture_model(1.0 - 1e-305, [(1e-305, 20.0, 1.0)]), 0.1)


class TestOracleSweep:
    def test_rows_ordered_and_complete(self):
        sweep = [0.05, 0.10, 0.15]
        rows = oracle_sweep(
            lambda p1: symmetric_model(p1), sweep, 0.10
        )
        assert [r.sweep for r in rows] == sweep
        assert all(r.error is None for r in rows)

    def test_infeasible_rows_flagged_not_dropped(self):
        def model_for(v):
            if v == 1.0:
                return mixture_model(1.0, [])
            return symmetric_model(0.1)

        rows = oracle_sweep(model_for, [0.5, 1.0], 0.10)
        assert len(rows) == 2
        assert rows[0].error is None
        assert rows[1].error is not None and math.isnan(rows[1].mfnr_lfdr)

    def test_full_region_rows_flagged_not_raised(self):
        # p0 below alpha and a nonnull wider than the null in both tails:
        # the feasible lfdr region is the whole line, so its mFNR is
        # undefined; the row is flagged like an infeasible one
        def model_for(v):
            return mixture_model(v, [(1.0 - v, 0.0, 2.0)])

        rows = oracle_sweep(model_for, [0.05, 0.5], 0.1)
        assert [r.sweep for r in rows] == [0.05, 0.5]
        assert "everything is rejected" in rows[0].error
        assert math.isnan(rows[0].mfnr_pvalue) and math.isnan(rows[0].mfnr_lfdr)
        assert rows[1].error is None and math.isfinite(rows[1].mfnr_lfdr)

    def test_alpha_callable(self):
        rows = oracle_sweep(lambda _: symmetric_model(0.1), [0.05, 0.2], lambda a: a)
        assert rows[0].mfnr_pvalue > rows[1].mfnr_pvalue  # looser level, fewer misses

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            oracle_sweep(lambda _: symmetric_model(0.1), [], 0.10)


class TestMonteCarloAgreement:
    def test_mfdr_vs_monte_carlo_moderate(self):
        # a faster version of the acceptance check (10^6 draws here)
        m = fig2_model()
        r = RejectionRegion(((-math.inf, -2.0), (2.0, math.inf)))
        z, nonnull = sample_model(m, 1_000_000, 99)
        inside = (z <= -2.0) | (z >= 2.0)
        n_rej = int(inside.sum())
        fdp = float((inside & ~nonnull).sum()) / n_rej
        se = math.sqrt(fdp * (1 - fdp) / n_rej)
        assert abs(mfdr_of_region(m, r) - fdp) <= 3 * se


# Reference: the lfdr rule as it was before its Newton searches, a
# 31-step bisection on lambda over regions whose boundaries are bisected
# to 1e-9 on the same scan grid (region rates from the library's
# mfdr_of_region and mfnr_of_region).
def uniform_scan_grid(m):
    """All component means +- 12 max sd in steps of min(0.01, min sd/10)."""
    means = [c.mean for _, c in m.components]
    sds = [c.sd for _, c in m.components]
    lo, hi = min(means) - 12.0 * max(sds), max(means) + 12.0 * max(sds)
    step = min(0.01, min(sds) / 10.0)
    return np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)


def reference_region(m, lam):
    zs = uniform_scan_grid(m)
    n = zs.size
    inside = lfdr(m, zs) <= lam
    if not inside.any():
        return RejectionRegion(())
    flips = np.diff(inside.astype(np.int8))
    starts = ([0] if inside[0] else []) + (np.nonzero(flips == 1)[0] + 1).tolist()
    ends = (np.nonzero(flips == -1)[0] + 1).tolist() + ([n] if inside[-1] else [])
    brackets = [(zs[i0 - 1], zs[i0], False) for i0 in starts if i0 > 0]
    brackets += [(zs[i1 - 1], zs[i1], True) for i1 in ends if i1 < n]
    edges = []
    if brackets:
        a = np.array([br[0] for br in brackets])
        b = np.array([br[1] for br in brackets])
        a_inside = np.array([br[2] for br in brackets])
        while float((b - a).max()) > 1e-9:
            mid = 0.5 * (a + b)
            same = (lfdr(m, mid) <= lam) == a_inside
            a, b = np.where(same, mid, a), np.where(same, b, mid)
        edges = (0.5 * (a + b)).tolist()
    n_entry = sum(1 for i0 in starts if i0 > 0)
    entry, exit_ = iter(edges[:n_entry]), iter(edges[n_entry:])
    return RejectionRegion(tuple(
        (-math.inf if i0 == 0 else next(entry), math.inf if i1 == n else next(exit_))
        for i0, i1 in zip(starts, ends)
    ))


def reference_lfdr_rule(m, alpha):
    """(lambda, mfdr, mfnr) of the bisection rule."""
    def feasible(lam):
        region = reference_region(m, lam)
        try:
            return region.is_empty or mfdr_of_region(m, region) <= alpha
        except EmptyRegion:
            return True

    lam_hi = 1.0 - 1e-12
    if feasible(lam_hi):
        lam = lam_hi
    else:
        a, b = 0.0, lam_hi
        while b - a > 1e-9:
            c = 0.5 * (a + b)
            a, b = (c, b) if feasible(c) else (a, c)
        lam = a
    region = reference_region(m, lam)
    if region.is_empty:
        raise Infeasible("empty")
    return lam, mfdr_of_region(m, region), mfnr_of_region(m, region)


def compare_with_reference(m, alpha):
    """The library's rule and the bisection reference on one model: both
    infeasible, or cutoffs within 2e-9 with the library's mFDR <= alpha
    and its boundaries on the cutoff's level set.  Returns (rule,
    reference), or None when both are infeasible."""
    try:
        want = reference_lfdr_rule(m, alpha)
    except Infeasible:
        with pytest.raises(Infeasible):
            oracle_lfdr_rule(m, alpha)
        return None
    rule = oracle_lfdr_rule(m, alpha)
    assert abs(rule.threshold - want[0]) <= 2e-9
    assert rule.mfdr <= alpha
    for lo, hi in rule.region.intervals:
        for edge in (lo, hi):
            if math.isfinite(edge):
                assert abs(lfdr(m, edge) - rule.threshold) <= 1e-9
    return rule, want


P1_GRID = [round(0.01 * k, 2) for k in range(1, 20)]
# the (model, alpha) pairs of figure 1 panels a-d and the figure-2 sweep
FIGURE_MODELS = (
    [(mixture_model(0.8, [(p1, -3.0, 1.0), (0.2 - p1, 3.0, 1.0)]), 0.10) for p1 in P1_GRID]
    + [(mixture_model(0.8, [(p1, -3.0, 1.0), (0.2 - p1, 6.0, 1.0)]), 0.10) for p1 in P1_GRID]
    + [(mixture_model(0.8, [(0.18, -3.0, 1.0), (0.02, mu2, 1.0)]), 0.10)
       for mu2 in [1.0 + 0.25 * k for k in range(21)]]
    + [(mixture_model(0.8, [(0.02, -3.0, 1.0), (0.18, 1.0, 1.0)]), a)
       for a in [round(0.02 * k, 2) for k in range(1, 16)]]
    + [(mixture_model(0.8, [(p1, -3.0, 1.0), (0.2 - p1, 4.0, 1.0)]), 0.10) for p1 in P1_GRID]
)


class TestStepUpMatchesBisection:
    def test_figure_models(self):
        for m, alpha in FIGURE_MODELS:
            rule, want = compare_with_reference(m, alpha)
            assert abs(rule.mfnr - want[2]) <= 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        p0=st.floats(0.5, 0.97),
        split=st.floats(0.0, 1.0),
        means=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        sds=st.tuples(st.floats(0.3, 2.0), st.floats(0.3, 2.0)),
        three=st.booleans(),
        alpha=st.floats(0.02, 0.3),
    )
    def test_random_mixtures(self, p0, split, means, sds, three, alpha):
        w = 1.0 - p0
        if three:
            comps = [(w * split, means[0], sds[0]), (w * (1.0 - split), means[1], sds[1])]
        else:
            comps = [(w, means[0], sds[0])]
        m = mixture_model(p0, comps)
        pair = compare_with_reference(m, alpha)
        if pair is not None:
            # The reference resolves lambda only to 1e-9, and where a region
            # boundary sits on a flat stretch of lfdr, mFNR moves by up to
            # ~100 per unit lambda; so mFNR is compared at the reference's
            # own cutoff, which checks the region and rate computations.
            want = pair[1]
            region = region_from_lfdr_threshold(m, want[0])
            assert abs(mfnr_of_region(m, region) - want[2]) <= 1e-9

    # (nonnull sd, lambda, mFDR, mFNR, mFDR tolerance) of the bisection rule
    # for mixture_model(0.9, [(0.1, 2.5, sd)]) at alpha 0.1.  The last two
    # reach the 1 - 1e-12 cap with mFDR far below alpha; there the upper
    # boundary sits where 1 - lfdr = 1e-12, which the bisection rule placed
    # from exp(log ratio) rounded to 1e-16, i.e. to 1e-4 of 1 - lfdr, off by
    # 2.7e-7 in z at sd = 0.01.  The library's rule refines it from
    # -log1p(odds) and lands within 2.3e-17 of the cap (40-digit check), so
    # its capped mFDR differs from the bisection rule's by up to 3.3e-8.
    @pytest.mark.parametrize("sd, lam, mfdr, mfnr, tol", [
        (1.0, 0.28188758809091274, 0.09999999993901292, 0.05305792140625793, 1e-9),
        (0.1, 0.9202848635604717, 0.09999999995642865, 0.00010880177976962027, 1e-9),
        (0.01, 0.999999999999, 0.02517983576425374, 0.0, 5e-8),
        (0.001, 0.999999999999, 0.002650392514798093, 0.0, 5e-8),
    ])
    def test_narrow_component(self, sd, lam, mfdr, mfnr, tol):
        rule = oracle_lfdr_rule(mixture_model(0.9, [(0.1, 2.5, sd)]), 0.10)
        assert abs(rule.threshold - lam) <= 2e-9
        assert abs(rule.mfdr - mfdr) <= tol and rule.mfdr <= 0.10
        assert abs(rule.mfnr - mfnr) <= 1e-9


def exhaustive_pvalue_threshold(m, alpha):
    """The p-value rule without pruning: closed-form tail masses at all 10^4
    grid points, then the bisection to 1e-9 through ``mfdr_of_region``."""
    ts = np.exp(np.linspace(math.log(1e-10), math.log(1.0 - 1e-12), 10_000))
    q = -ndtri(ts / 2.0)
    lo, hi = m.null.mean - q * m.null.sd, m.null.mean + q * m.null.sd
    masses = [w * (ndtr((lo - c.mean) / c.sd) + ndtr((c.mean - hi) / c.sd))
              for w, c in m.components]
    i = int(np.flatnonzero(masses[0] / sum(masses) <= alpha)[-1])
    a = ts[i]
    if i < ts.size - 1:
        b = ts[i + 1]
        while b - a > 1e-9:
            c = 0.5 * (a + b)
            if mfdr_of_region(m, region_from_pvalue_threshold(m.null, c)) <= alpha:
                a = c
            else:
                b = c
    return a


class TestPvalueScanMatchesExhaustive:
    def test_figure_models(self):
        for m, alpha in FIGURE_MODELS:
            assert oracle_pvalue_rule(m, alpha).threshold == exhaustive_pvalue_threshold(m, alpha)

    # mFDR(t) is not monotone near the top of the grid: at alpha 0.85 it
    # exceeds alpha from index 9848 to 9982, and the answer t = 1 - 1e-12
    # lies past that stretch; at alpha 0.8 the answer lies below it, several
    # chunks down from the first chunk the bound admits
    @pytest.mark.parametrize("alpha, at_top", [(0.85, True), (0.87, True), (0.8, False)])
    def test_mfdr_not_monotone_in_t(self, alpha, at_top):
        m = mixture_model(0.8, [(0.1, -3.0, 1.0), (0.1, 0.0, 0.05)])
        ts = np.exp(np.linspace(math.log(1e-10), math.log(1.0 - 1e-12), 10_000))
        rates = [mfdr_of_region(m, region_from_pvalue_threshold(m.null, t)) for t in ts[9800:]]
        assert max(rates) > alpha
        threshold = oracle_pvalue_rule(m, alpha).threshold
        assert threshold == exhaustive_pvalue_threshold(m, alpha)
        assert (threshold == ts[-1]) == at_top


def loop_log_lfdr_slope(m, z):
    """log lfdr and its z-derivative at one float z by a loop over
    components, in scalar ``math`` arithmetic with correctly rounded sums."""
    logs, scores = [], []
    for w, c in m.components:
        if w > 0.0:
            u = (z - c.mean) / c.sd
            logs.append(math.log(w) + (-0.5 * u * u - math.log(c.sd) - 0.5 * math.log(2.0 * math.pi)))
            scores.append((c.mean - z) / (c.sd * c.sd))
    odds = [log - logs[0] for log in logs[1:]]
    peak = max(odds)
    log_odds = peak + math.log(math.fsum(math.exp(log - peak) for log in odds))
    log_lfdr = -(log_odds + math.log1p(math.exp(-log_odds)) if log_odds > 0.0
                 else math.log1p(math.exp(log_odds)))
    posterior = [math.exp(log + log_lfdr) for log in odds]
    return log_lfdr, -math.fsum(p * (score - scores[0]) for p, score in zip(posterior, scores[1:]))


def test_log_lfdr_slope_matches_component_loop():
    models = [m for m, _ in FIGURE_MODELS[::10]] + [
        mixture_model(0.9, [(0.1, 2.5, 0.001)]),
        mixture_model(0.7, [(0.2, -1.0, 0.3), (0.0, 5.0, 1.0), (0.1, 2.0, 2.0)]),
    ]
    z = np.linspace(-8.0, 9.0, 69)
    for m in models:
        at = _log_lfdr_slope(_components(m)[:, :, 0].tolist())
        value, slope = np.array([at(x)[:2] for x in z.tolist()]).T
        want_value, want_slope = np.array([loop_log_lfdr_slope(m, x) for x in z.tolist()]).T
        assert np.array_equal(value, want_value) and np.array_equal(slope, want_slope)
        assert_allclose(np.exp(value), lfdr(m, z), rtol=1e-12, atol=1e-300)


class TestBracketedNewton:
    """The scalar root search behind region edges and the lfdr cutoff."""

    @staticmethod
    def search(fun, lo, hi, lo_low, tol=1e-13):
        calls = []

        def traced(x):
            calls.append(x)
            return fun(x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = _bracketed_newton(traced, lo, hi, lo_low, tol)
        assert isinstance(lo, float) and isinstance(hi, float)
        assert hi - lo <= tol and len(calls) < _MAX_STEPS
        return lo, hi, calls

    @pytest.mark.parametrize("slope_at_mid", [0.0, -0.0, math.nan, math.inf])
    def test_flat_or_nonfinite_slope_bisects(self, slope_at_mid):
        # g(0.5) = 0.2 > 0 with no usable slope: the next point bisects
        # [0, 0.5]; Newton then lands on the root 0.3
        lo, hi, calls = self.search(lambda x: (x - 0.3, slope_at_mid if x == 0.5 else 1.0), 0.0, 1.0, True)
        assert calls[:2] == [0.5, 0.25]
        assert lo <= 0.3 <= hi

    def test_zero_over_zero_at_a_triple_root(self):
        # g = (x - 0.5)^3 has g = dg = 0 at the midpoint; no ZeroDivisionError
        lo, hi, calls = self.search(lambda x: ((x - 0.5) ** 3, 3.0 * (x - 0.5) ** 2), 0.0, 1.0, True)
        assert calls[:2] == [0.5, 0.75]
        assert lo == 0.5

    @pytest.mark.parametrize("fun, lo, hi, lo_low, root", [
        (lambda x: (x, 1.0), 0.0, 1.0, True, 0.0),
        (lambda x: (1.0 - x, -1.0), 0.0, 1.0, False, 1.0),
        (lambda x: (math.expm1(x), math.exp(x)), 0.0, 2.0, True, 0.0),
        (lambda x: (-math.log(x), -1.0 / x), 0.5, 1.0, False, 1.0),
    ])
    def test_root_on_a_bracket_end(self, fun, lo, hi, lo_low, root):
        lo, hi, calls = self.search(fun, lo, hi, lo_low)
        assert lo <= root <= hi
        # bisection alone would take ~43 steps to reach 1e-13
        assert len(calls) <= 10

    def test_zero_slope_bisects_as_a_plain_loop(self):
        # the p-value rule's search: a zero slope takes the same midpoints
        # as a loop that bisects while the bracket is wider than tol, and
        # g <= 0 exactly where the feasibility test holds
        feasible = lambda t: t * t * t <= 0.3
        a, b = 0.5, 0.9
        while b - a > 1e-9:
            c = 0.5 * (a + b)
            a, b = (c, b) if feasible(c) else (a, c)
        lo, hi, _ = self.search(lambda t: (t * t * t - 0.3, 0.0), 0.5, 0.9, True, tol=1e-9)
        assert (lo, hi) == (a, b)

    def test_far_edge_search_ends_at_adjacent_floats(self):
        # near z = 5000 one ulp (9.1e-13) is wider than the edge tolerance
        # 1e-13: the level search in the scan grid's gap cell stops once its
        # ends are adjacent floats, where it ran all _MAX_STEPS calls before
        m = mixture_model(0.9, [(0.1, 1e4, 1.0)])
        zs = _scan_grid(m)
        i = int(np.searchsorted(zs, 12.0))
        assert (zs[i], zs[i + 1]) == (12.0, 9988.0)
        at = _log_lfdr_slope(_components(m)[:, :, 0].tolist())
        calls = []

        def level(z):
            calls.append(z)
            log_lfdr, slope, _ = at(z)
            return log_lfdr - math.log(0.5), slope

        lo, hi = _bracketed_newton(level, 12.0, 9988.0, False, 1e-13)
        assert hi == math.nextafter(lo, math.inf) and len(calls) <= 20
        assert level(hi)[0] <= 0.0 < level(lo)[0]

    def test_search_that_lands_on_its_root_ends(self):
        # the Newton step lands on the root, where g = 0 and the next step is
        # -0.0: nudges of tol/4 and tol/2 rounded back onto that point at
        # |x| >= 256, which the search then took for all _MAX_STEPS calls and
        # returned (root, 5001.0); nudges of at least one ulp close it
        root = 5000.123456789
        calls = []

        def fun(x):
            calls.append(x)
            return x - root, 1.0

        lo, hi = _bracketed_newton(fun, 4999.0, 5001.0, True, 1e-13)
        assert lo <= root <= hi and hi == math.nextafter(lo, math.inf)
        assert len(calls) <= 5

    # a nonnull mean mu of sd 1 beside N(0, 1) at p0 0.9: log odds are
    # log(1/9) + z mu - mu^2/2, so lfdr = lam at one edge; the means 4.29e9
    # and 1e10 gave edges of 1.07e9 and 2500000006.0 when a search that
    # landed on the edge stalled there
    FAR_MEANS = (np.geomspace(50.0, 1.6e10, 120).tolist() + (-np.geomspace(50.0, 1.6e10, 120)).tolist()
                 + [4288892828.8823166, 1e10])

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_far_edges_at_their_closed_form(self, lam):
        for mean in self.FAR_MEANS:
            (lo, hi), = region_from_lfdr_threshold(mixture_model(0.9, [(0.1, mean, 1.0)]), lam).intervals
            edge, end = (lo, hi) if mean > 0 else (hi, lo)
            want = mean / 2.0 + (math.log((1.0 - lam) / lam) - math.log(1.0 / 9.0)) / mean
            assert math.isinf(end) and abs(edge - want) <= max(1e-13, 4 * math.ulp(want)), mean


@st.composite
def models_and_intervals(draw):
    """A mixture of 1-10 nonnull components with sds from 0.001 to 3, and
    either 1-8 p-value cutoffs t (``ts``) or a union of up to 11 intervals,
    which may reach -inf or +inf, whose finite ends lie on either side of a
    component's mean, out to 40 of its sd."""
    k = draw(st.integers(1, 10))
    p0 = draw(st.floats(0.05, 0.95))
    m = mixture_model(p0, [((1.0 - p0) / k, draw(st.floats(-5.0, 5.0)), draw(st.floats(0.001, 3.0)))
                           for _ in range(k)])
    if draw(st.booleans()):
        return m, draw(st.lists(st.floats(1e-10, 1.0 - 1e-12), min_size=1, max_size=8)), None
    ends = set()
    for _ in range(draw(st.integers(0, 20))):
        _, c = draw(st.sampled_from(m.components))
        offset = draw(st.sampled_from([-40.0, -1e-9, 0.0, 1e-9, 40.0]) | st.floats(-40.0, 40.0))
        ends.add(c.mean + offset * c.sd)
    ends = [-math.inf] * draw(st.booleans()) + sorted(ends) + [math.inf] * draw(st.booleans())
    ends = ends[: len(ends) // 2 * 2]
    return m, None, tuple(zip(ends[::2], ends[1::2]))


# eight nonnull components, as in the CI's oracle run
EIGHT_NONNULL = mixture_model(0.84, [(0.02, mean, sd) for mean, sd in [
    (-4.0, 1.0), (-3.0, 0.5), (-2.0, 2.0), (-1.0, 0.3), (1.0, 0.3), (2.0, 2.0), (3.0, 0.5), (4.0, 1.0)]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(models_and_intervals())
@example((mixture_model(1.0, []), None, ((-math.inf, -40.0), (40.0, math.inf))))
@example((fig2_model(), None, ()))
@example((EIGHT_NONNULL, [1e-10, 1e-4, 0.05, 0.3, 1.0 - 1e-12], None))
@example((EIGHT_NONNULL, [0.05], None))
@example((EIGHT_NONNULL, None, tuple((x, x + 0.5) for x in range(-5, 5))))
# the grid's ends, and cuts just below a nonnull mean, where the upper
# tail's 1 - ndtr(a) differs from ndtr(-a) in its last bit: 1.96 < 2.03 at
# t = 0.05, and ~1e-12 < 0.04 near t = 1
@example((mixture_model(0.8, [(0.1, 2.03, 1.0), (0.1, 0.04, 0.2)]), [1e-10, 0.05, 1.0 - 1e-12], None))
def test_scalar_masses_equal_array_masses(case):
    # region rates and the lfdr search use the scalar interval masses, the
    # p-value scan the array tails and its bisection the scalar tails: all
    # equal bit for bit, one by one and summed left to right over intervals
    # and then components
    m, ts, intervals = case
    rows = _components(m)[:, :, 0].tolist()
    if ts is not None:
        # the scan's own arithmetic, on a vector of cutoffs as it runs it,
        # or on a single cutoff, and the bisection's, one cutoff at a time
        null, total = _tail_masses(_components(m), m.null, -ndtri(np.asarray(ts) / 2.0))
        want = [(n.hex(), t.hex()) for n, t in zip(null.tolist(), total.tolist())]
        for masses_at in (lambda t: _region_masses(rows, _pvalue_tails(m.null, t)),
                          lambda t: _tail_masses_at(rows, m.null, t)):
            got = [masses_at(t) for t in ts]
            assert all(type(x) is float for pair in got for x in pair)
            assert [(n.hex(), t.hex()) for n, t in got] == want
        return
    null, total = _region_masses(rows, intervals)
    if not intervals:
        assert (null, total) == (0.0, 0.0)
        return
    left_to_right = functools.partial(functools.reduce, operator.add)
    per_component = [float(left_to_right([_interval_mass(w, mean, sd, lo, hi) for lo, hi in intervals]))
                     for w, mean, sd in zip(*rows[:3])]
    assert type(null) is float and type(total) is float
    assert (null.hex(), total.hex()) == (per_component[0].hex(), left_to_right(per_component).hex())


def test_pvalue_rules_frozen_at_every_figure_point():
    # (threshold, mFDR, mFNR) by repr at the 93 sweep points of figures 1a-d
    # and 2, and of figure 2's p1 = 0.15 rule; the digest is of the values
    # the rule gave with array masses throughout
    rules = [oracle_pvalue_rule(m, alpha) for m, alpha in FIGURE_MODELS] + [figure2_data().pvalue_rule]
    text = "\n".join(repr((r.threshold, r.mfdr, r.mfnr)) for r in rules)
    assert len(rules) == 94
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f49393ba49cfff6cbf40b278f69ef7423cf6fec2665279cb8ff41040b350a8e4")


class TestScanGrid:
    def test_wide_components_keep_the_uniform_grid(self):
        # widest sd 1 and every sd >= 0.1: the grid of step min(0.01, min
        # sd/10) over the whole span, bit for bit
        models = [m for m, _ in FIGURE_MODELS[::10]] + [mixture_model(0.9, [(0.1, 2.5, 0.1)])]
        for m in models:
            assert np.array_equal(_scan_grid(m), uniform_scan_grid(m))
        # widest sd 2: the step is max sd/100 = 0.02 over [-1 - 24, 2 + 24]
        zs = _scan_grid(mixture_model(0.7, [(0.2, -1.0, 0.3), (0.1, 2.0, 2.0)]))
        assert zs.size == 2551 and np.array_equal(zs, np.linspace(-25.0, 26.0, 2551))

    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0, 1e4])
    def test_grid_size_does_not_depend_on_scale(self, scale):
        # steps in units of the widest sd: a fixed step of 0.01 laid 482,
        # 2651, 265,001 and 26,500,001 points
        m = TwoGroupModel(0.9, GaussianComponent(0.0, scale), ((0.1, GaussianComponent(2.5 * scale, scale)),))
        assert _scan_grid(m).size == 2651

    def test_wide_nonnull_stays_small(self):
        # a nonnull of sd 1000 beside the N(0, 1) null: 2,400,251 points at
        # a fixed step of 0.01, whose lfdr rule this one matches
        m = mixture_model(0.9, [(0.1, 2.5, 1000.0)])
        assert _scan_grid(m).size <= 2 * 2651
        rule = oracle_lfdr_rule(m, 0.1)
        assert abs(rule.threshold - 0.9974597441423804) <= 1e-12
        assert abs(rule.mfnr - 0.00022460062805203167) <= 1e-12

    def test_narrow_component_refined_locally(self):
        m = mixture_model(0.9, [(0.1, 2.5, 0.001)])
        zs = _scan_grid(m)
        assert zs.size < 10_000
        steps = np.diff(zs)
        near = np.abs(zs[:-1] - 2.5) < 0.012
        assert steps.min() > 0.0 and steps[near].max() <= 1e-4 * (1 + 1e-9)
        assert steps.max() <= 0.01 * (1 + 1e-9)
        rule = oracle_lfdr_rule(m, 0.10)
        assert rule.region == region_from_lfdr_threshold(m, rule.threshold)

    @pytest.mark.parametrize("mean", [1e4, 1e6, -1e6])
    def test_far_mean_costs_no_more_grid_than_a_near_one(self, mean):
        # windows around each component, not one span between the means: a
        # mean of 1e4 took 1,002,401 points, one of 1e6 would take ~1e8
        near = _scan_grid(mixture_model(0.9, [(0.1, 2.5, 1.0)])).size
        zs = _scan_grid(mixture_model(0.9, [(0.1, mean, 1.0)]))
        assert near == 2651 and zs.size <= 2 * near
        assert np.all(np.diff(zs) > 0.0)

    def test_far_mean_keeps_its_region(self):
        # the edge found in the one cell between the windows is the one the
        # dense grid found
        rule = oracle_lfdr_rule(mixture_model(0.9, [(0.1, 1e4, 1.0)]), 0.1)
        assert rule.region.intervals == ((4999.997456618134, math.inf),)

    # from ~3.5e9 on, the edge's lfdr slope underflowed to 0 at its
    # search's last point, and the lambda search divided by it
    @pytest.mark.parametrize("mean", [1e6, -1e6, 3481817630.6889663, 3827494478.516315, -3827494478.516315])
    def test_far_mean_edge_at_its_closed_form(self, mean):
        # with equal sds, log odds are linear in z: log(w/p0) + z mean -
        # mean^2/2 meets log((1 - lam)/lam) at one z
        rule = oracle_lfdr_rule(mixture_model(0.9, [(0.1, mean, 1.0)]), 0.1)
        lam = rule.threshold
        want = mean / 2.0 + (math.log((1.0 - lam) / lam) - math.log(0.1 / 0.9)) / mean
        (lo, hi), = rule.region.intervals
        edge = lo if mean > 0 else hi
        assert math.isinf(hi if mean > 0 else lo)
        assert abs(edge - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("mean, sd", [(2.5, 1e-20), (2.5, 1e-17), (-3.0, 1e-13), (40.0, 1e-12),
                                          (2e4, 5e-11)])
    def test_unresolvable_component_is_invalid(self, mean, sd):
        # a step sd/10 under 2^12 ulps of |mean| + 12 sd: refused by name,
        # where the rule divided by zero or spanned millions of sd
        m = mixture_model(0.9, [(0.1, mean, sd)])
        for call in (lambda: oracle_lfdr_rule(m, 0.1), lambda: region_from_lfdr_threshold(m, 0.5)):
            with pytest.raises(InvalidModel, match=r"step sd/10 = .* cannot be represented"):
                call()

    @pytest.mark.parametrize("mean", [1e14, -1e14, 1e300, 2.0**34 - 12.0])
    def test_unresolvable_coarse_step_is_invalid(self, mean):
        # the step 0.01 under 2^12 ulps of |mean| + 12 max sd, from 2^34 on:
        # refused by name, where 1e14 laid a grid with repeated points and
        # 1e300 overflowed to the region [1e300, inf) with mFNR 0.0526
        m = mixture_model(0.9, [(0.1, mean, 1.0)])
        for call in (lambda: oracle_lfdr_rule(m, 0.1), lambda: region_from_lfdr_threshold(m, 0.5)):
            with pytest.raises(InvalidModel, match=r"step 0.01 of the component .* cannot be represented"):
                call()

    def test_largest_resolvable_mean_keeps_its_grid(self):
        zs = _scan_grid(mixture_model(0.9, [(0.1, 2.0**34 - 13.0, 1.0)]))
        assert np.all(np.diff(zs) > 0.0)
        rule = oracle_lfdr_rule(mixture_model(0.9, [(0.1, 1e10, 1.0)]), 0.1)
        assert rule.region.intervals == ((5000000000.0, math.inf),)

    @pytest.mark.parametrize("mean", [2.5, -3.0, 40.0])
    def test_finest_resolvable_component_keeps_its_region(self, mean):
        # 2^13 ulps per step: the grid is kept, and the region spans tens of
        # sd, as it does at sd = 0.001
        sd = 10 * 2**13 * math.ulp(abs(mean))
        m = mixture_model(0.9, [(0.1, mean, sd)])
        (lo, hi), = oracle_lfdr_rule(m, 0.1).region.intervals
        assert lo < mean < hi and 10.0 < (hi - lo) / sd < 100.0


@pytest.mark.parametrize("m", [
    mixture_model(0.9, [(0.1, 2.5, 1.0), (0.0, 3.0, 1e-20)]),
    mixture_model(0.9, [(0.1, 2.5, 1.0), (0.0, 1e4, 1.0)]),
])
def test_zero_weight_component_changes_no_rule(m):
    # a component of weight 0 is in no row of the table, so neither in the
    # scan grid: an sd of 1e-20 is not refused, a mean of 1e4 does not
    # stretch the grid, and both rules equal those without the component
    plain = mixture_model(0.9, [(0.1, 2.5, 1.0)])
    zs = _scan_grid(m)
    assert zs.size == 2651 and np.array_equal(zs, _scan_grid(plain))
    for rule in (oracle_pvalue_rule, oracle_lfdr_rule):
        for alpha in (0.05, 0.1, 0.2):
            assert repr(rule(m, alpha)) == repr(rule(plain, alpha))


@st.composite
def far_flung_models(draw):
    """A mixture of 1-3 nonnull components beside the N(0, 1) null, with
    Dirichlet(1, ..., 1) weights, |mean| log-uniform in [0.1, 1e9] of
    either sign and sd log-uniform in [1e-6, 1e6].  Returns (model, alpha)."""
    alpha = draw(st.sampled_from([0.01, 0.1, 0.3]))
    k = draw(st.integers(1, 3))
    gamma = [-math.log(draw(st.floats(1e-6, 1.0, exclude_max=True))) for _ in range(k + 1)]
    weights = [g / math.fsum(gamma) for g in gamma]
    log_uniform = lambda lo, hi: 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))
    return mixture_model(weights[0], [(w, draw(st.sampled_from([-1.0, 1.0])) * log_uniform(0.1, 1e9),
                                       log_uniform(1e-6, 1e6)) for w in weights[1:]]), alpha


@settings(max_examples=400, deadline=None, derandomize=True)
@given(far_flung_models())
@example((mixture_model(0.5, [(0.5, 0.0, 1.0)]), 0.3))  # flat: the nonnull equals the null
@example((mixture_model(0.9, [(0.1, 2.5, 1e6)]), 0.1))
@example((mixture_model(0.9, [(0.1, 1e9, 1e-6)]), 0.1))
def test_rules_on_far_flung_models(case):
    # every rule either is refused by name or is a finite cutoff whose
    # rates are in range, and no grid outgrows 2643 points per component
    m, alpha = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert _scan_grid(m).size <= 2643 * _components(m).shape[1]
        except InvalidModel:
            pass
        for rule_for in (oracle_pvalue_rule, oracle_lfdr_rule):
            try:
                rule = rule_for(m, alpha)
            except (Infeasible, FullRegion, InvalidModel):
                continue
            assert math.isfinite(rule.threshold)
            assert 0.0 <= rule.mfdr <= alpha and 0.0 <= rule.mfnr <= 1.0


def test_figure2_rules_frozen():
    data = figure2_data()
    rule = data.lfdr_rule
    (lo0, hi0), (lo1, hi1) = rule.region.intervals
    assert lo0 == -math.inf and hi1 == math.inf
    for got, want in [(rule.threshold, 0.5025981828238999), (rule.mfnr, 0.037684280875078406),
                      (hi0, -2.0545278676727006), (lo1, 2.690548810042233)]:
        assert abs(got - want) <= 1e-12
    assert data.pvalue_rule.threshold == 0.02256425475985649
    assert data.pvalue_rule.mfnr == 0.04580598705830405


def clear_reuse():
    for cache in (_GRIDS, _LFDR_SETUPS, _PVALUE_ENDS):
        cache.clear()


def both_rules(m, alpha, fresh):
    # both rules by repr; if fresh, as a first call makes them, with nothing
    # reused
    out = []
    for rule_for in (oracle_pvalue_rule, oracle_lfdr_rule):
        if fresh:
            clear_reuse()
        try:
            out.append(repr(rule_for(m, alpha)))
        except (Infeasible, FullRegion) as exc:
            out.append(repr(exc))
    return out


def fresh_row(value, m, alpha):
    # oracle_sweep's row at one point, from rules made with nothing reused
    clear_reuse()
    try:
        p_rule, l_rule = oracle_pvalue_rule(m, alpha), oracle_lfdr_rule(m, alpha)
    except (Infeasible, FullRegion) as exc:
        return SweepRow(float(value), math.nan, math.nan, error=str(exc))
    return SweepRow(float(value), p_rule.mfnr, l_rule.mfnr)


# the same means, and sds that give different scan grids
ALTERNATING = [mixture_model(0.8, [(0.02, -3.0, 1.0), (0.18, 1.0, sd)]) for sd in (1.0, 0.05)]


class TestReuse:
    # a rule reuses the scan grid, lfdr setup and tail masses of a model with
    # the same component table (the grid: the same means and sds)
    @pytest.mark.parametrize("model_for, sweep, alpha", [
        # alpha over one model (panel d)
        (lambda _: mixture_model(0.8, [(0.02, -3.0, 1.0), (0.18, 1.0, 1.0)]),
         [round(0.02 * k, 2) for k in range(1, 16)], lambda a: a),
        # p1 with means and sds fixed (figure 2): one grid, a profile and
        # tail masses each
        (lambda p1: mixture_model(0.8, [(p1, -3.0, 1.0), (0.2 - p1, 4.0, 1.0)]), P1_GRID[::-1], 0.10),
        # mu2 varying (panel c): nothing reused
        (lambda mu2: mixture_model(0.8, [(0.18, -3.0, 1.0), (0.02, mu2, 1.0)]),
         [1.0 + 0.25 * k for k in range(21)], 0.10),
        # two models alternating, at levels that make some points infeasible
        (lambda k: ALTERNATING[k % 2], list(range(12)), lambda k: [0.001, 0.05, 0.1, 0.2][k % 4]),
    ], ids=["alpha", "p1", "mu2", "alternating"])
    def test_sweeps_equal_fresh_single_rule_calls(self, model_for, sweep, alpha):
        alpha_for = alpha if callable(alpha) else (lambda _: alpha)
        clear_reuse()
        rows = oracle_sweep(model_for, sweep, alpha)
        assert [repr(r) for r in rows] == [repr(fresh_row(v, model_for(v), alpha_for(v))) for v in sweep]
        fresh = [both_rules(model_for(v), alpha_for(v), fresh=True) for v in sweep]
        clear_reuse()
        assert [both_rules(model_for(v), alpha_for(v), fresh=False) for v in sweep] == fresh

    def test_reused_arrays_are_read_only(self):
        clear_reuse()
        for panel in "ad":
            figure1_data(panel)
        region_from_lfdr_threshold(fig2_model(), 0.5)
        arrays = [zs for zs in _GRIDS.values()]
        arrays += [a for _, zs, profile in _LFDR_SETUPS.values() for a in (zs, profile)]
        arrays += [a for ends in _PVALUE_ENDS.values() for a in ends]
        assert len(_GRIDS) == 3 and len(_LFDR_SETUPS) == len(_PVALUE_ENDS) == 4
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_caches_keep_four_inputs(self):
        clear_reuse()
        figure1_data("c")  # 21 models, 21 grids
        assert len(_GRIDS) == len(_LFDR_SETUPS) == len(_PVALUE_ENDS) == 4

    def test_alpha_sweep_builds_one_profile_and_one_grid(self, monkeypatch):
        calls = {"lfdr": 0, "_scan_grid": 0}

        def counted(name):
            fn = getattr(oracle, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(oracle, name, counted(name))
        clear_reuse()
        rows = figure1_data("d")
        assert len(rows) == 15 and calls == {"lfdr": 1, "_scan_grid": 1}
        figure1_data("a")  # 19 profiles on one grid
        assert calls == {"lfdr": 20, "_scan_grid": 2}


# a narrow component beside a wide one: the grid mixes fine and coarse cells
NARROW_BESIDE_WIDE = [
    (mixture_model(0.8, [(0.15, 3.0, 1.0), (0.05, -2.0, 0.05)]), 0.10),
    (mixture_model(0.8, [(0.15, 3.0, 1.0), (0.05, 0.0, 0.01)]), 0.10),
    (mixture_model(0.8, [(0.1, -3.0, 1.0), (0.1, 2.0, 0.03)]), 0.05),
]


def test_lfdr_rule_returns_the_region_it_searched():
    for m, alpha in FIGURE_MODELS + NARROW_BESIDE_WIDE:
        rule = oracle_lfdr_rule(m, alpha)
        assert rule.region == region_from_lfdr_threshold(m, rule.threshold)
        assert rule.mfdr == mfdr_of_region(m, rule.region) <= alpha


def test_far_edge_under_a_lambda_search():
    # the far edge's lfdr slope underflows to 0 at its search's last point,
    # where the lambda search's derivative divided by it; the rule is that
    # of a nearer far component but for the far edge, at its closed form
    far = -3216876753.875484
    rule = oracle_lfdr_rule(mixture_model(0.8, [(0.1, 2.5, 1.0), (0.1, far, 1.0)]), 0.1)
    near = oracle_lfdr_rule(mixture_model(0.8, [(0.1, 2.5, 1.0), (0.1, -1e6, 1.0)]), 0.1)
    lam = rule.threshold
    assert lam < 1.0 - 1e-12 and (lam, rule.mfdr, rule.mfnr) == (near.threshold, near.mfdr, near.mfnr)
    (_, edge), upper = rule.region.intervals
    assert upper == near.region.intervals[1]
    want = far / 2.0 + (math.log((1.0 - lam) / lam) - math.log(0.1 / 0.8)) / far
    assert abs(edge - want) <= 4 * math.ulp(want)


# figure 2's model, panel d's model at alpha 0.2, and the narrow models
@pytest.mark.parametrize("m, alpha", [(fig2_model(), 0.10), FIGURE_MODELS[68]] + NARROW_BESIDE_WIDE)
def test_lfdr_excess_slope_matches_central_difference(m, alpha):
    # the lambda search's Newton steps take d mFDR/dlambda from the edge
    # searches' last points; a wrong slope would only slow the search, so
    # it is checked against a central difference of mFDR(R(lambda))
    lam = oracle_lfdr_rule(m, alpha).threshold
    rows = _components(m)[:, :, 0].tolist()
    zs = _scan_grid(m)
    intervals, edge_terms = _sublevel_region(_log_lfdr_slope(rows), zs, lfdr(m, zs), lam)
    region = RejectionRegion(intervals)
    excess, slope = _lfdr_excess(*_region_masses(rows, intervals), edge_terms, lam, alpha)
    assert excess == mfdr_of_region(m, region) - alpha
    assert len(edge_terms) == sum(math.isfinite(e) for iv in region.intervals for e in iv)
    h = 1e-6
    up, down = (mfdr_of_region(m, region_from_lfdr_threshold(m, lam + d)) for d in (h, -h))
    assert_allclose(slope, (up - down) / (2.0 * h), rtol=1e-5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    points=st.lists(st.floats(-1e6, 1e6), unique=True, max_size=10),
    from_minus_inf=st.booleans(),
    to_plus_inf=st.booleans(),
)
@example(points=[], from_minus_inf=True, to_plus_inf=True)
@example(points=[], from_minus_inf=False, to_plus_inf=False)
def test_complement_is_an_involution(points, from_minus_inf, to_plus_inf):
    ends = [-math.inf] * from_minus_inf + sorted(points) + [math.inf] * to_plus_inf
    ends = ends[: len(ends) // 2 * 2]
    region = RejectionRegion(tuple(zip(ends[::2], ends[1::2])))
    assert region.complement().complement() == region


# The exact price of the theoretical null (Efron 2008, Stat. Sci. 23): both
# rules are built under the assumed N(0, 1) null at alpha 0.1, and their
# regions are priced under a true null N(0, s0^2).  Per s0: the p-value
# rule's true mFDR and mFNR, the lfdr rule's, and the mFNR of the lfdr rule
# built under the true model.  On eq1, which is symmetric, the two rules
# have the same region.
THEORETICAL_NULL_PRICE = {
    "eq1": (symmetric_model(0.10), {
        0.8: (0.0203, 0.0578, 0.0203, 0.0578, 0.0286),
        0.9: (0.0518, 0.0582, 0.0518, 0.0582, 0.0417),
        1.1: (0.1596, 0.0596, 0.1596, 0.0596, 0.0804),
        1.2: (0.2237, 0.0607, 0.2237, 0.0607, 0.1068),
        1.3: (0.2864, 0.0620, 0.2864, 0.0620, 0.1379),
    }),
    "figure 2": (fig2_model(), {
        0.8: (0.0210, 0.0450, 0.0253, 0.0370, 0.0175),
        0.9: (0.0526, 0.0453, 0.0562, 0.0373, 0.0260),
        1.1: (0.1581, 0.0465, 0.1526, 0.0382, 0.0531),
        1.2: (0.2202, 0.0474, 0.2089, 0.0389, 0.0731),
        1.3: (0.2810, 0.0485, 0.2647, 0.0397, 0.0981),
    }),
}


@pytest.mark.parametrize("name", THEORETICAL_NULL_PRICE)
def test_exact_price_of_the_theoretical_null(name, capfd):
    alpha = 0.1
    m, table = THEORETICAL_NULL_PRICE[name]
    rules = (oracle_pvalue_rule(m, alpha), oracle_lfdr_rule(m, alpha))
    mfdrs = []
    for s0, want in table.items():
        true = TwoGroupModel(m.p0, GaussianComponent(0.0, s0), m.nonnull)
        got = tuple(rate(true, rule.region) for rule in rules for rate in (mfdr_of_region, mfnr_of_region))
        got += (oracle_lfdr_rule(true, alpha).mfnr,)
        with capfd.disabled():
            print(f"[THEORETICAL NULL] {name}, s0 = {s0}: p-value rule mFDR {got[0]:.3f} mFNR {got[1]:.3f}, "
                  f"lfdr rule mFDR {got[2]:.3f} mFNR {got[3]:.3f}, true oracle mFNR {got[4]:.3f}", flush=True)
        assert_allclose(got, want, rtol=0.0, atol=5e-4)
        # a null wider than assumed pushes the nominal rules past alpha
        assert (got[0] > alpha, got[2] > alpha) == (s0 > 1.0, s0 > 1.0)
        mfdrs.append((got[0], got[2]))
    assert np.all(np.diff(mfdrs, axis=0) > 0.0)
