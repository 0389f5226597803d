import cmath
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import lfdr_lab
from lfdr_lab import (
    DegenerateCF,
    DegenerateData,
    EmptyInput,
    InvalidPValue,
    MarginalDensityEstimate,
    NonFiniteInput,
    NotEnoughData,
    bh_stepup,
    estimate_marginal_kde,
    estimate_null_ecf,
    estimate_p0_tail,
    eq1_default_model,
    mixture_model,
    sample_model,
)
from lfdr_lab.estimation import (
    _ecf_pass_tables,
    _ecf_scan,
    _kde_transfer,
    _kernel_sum,
    _median_filter,
    _Sample,
)


def empirical_cf(z, t):
    """Empirical characteristic function (1/m) * sum_j exp(i t z_j) by the
    direct sum, the reference for the ECF scan.  ``t`` may be a scalar or
    an array; the frequencies are taken in chunks to bound memory."""
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise EmptyInput("empirical_cf needs at least one observation")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(ts.size, dtype=complex)
    chunk = max(1, int(4_000_000 // z.size))
    for i in range(0, ts.size, chunk):
        arg = np.multiply.outer(ts[i : i + chunk], z)
        out[i : i + chunk] = np.cos(arg).mean(axis=1) + 1j * np.sin(arg).mean(axis=1)
    return complex(out[0]) if np.ndim(t) == 0 else out


def draw(model, m, seed):
    return sample_model(model, m, seed)[0]


PURE_NULL = mixture_model(1.0, [])
# eq1 draws at the 100-observation floor and at the acceptance-4 size
EQ1_SEED7 = {m: draw(eq1_default_model(), m, 7) for m in (100, 5_000)}


class TestEmpiricalCf:
    def test_t_zero_is_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=50)
        assert empirical_cf(z, 0.0) == 1.0 + 0.0j

    def test_degenerate_data(self):
        z = np.zeros(10)
        for t in (0.5, 3.0, 11.0):
            assert empirical_cf(z, t) == 1.0 + 0.0j

    def test_single_point_at_pi(self):
        val = empirical_cf([1.0], math.pi)
        assert abs(val - (-1.0 + 0.0j)) <= 1e-12

    def test_matches_direct_sum(self):
        # oracle: cmath loop
        rng = np.random.default_rng(1)
        z = rng.normal(size=200)
        t = 1.7
        want = sum(cmath.exp(1j * t * v) for v in z) / len(z)
        assert abs(empirical_cf(z, t) - want) <= 1e-12

    def test_modulus_bounded(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=500)
        ts = np.linspace(0.1, 20.0, 100)
        assert np.all(np.abs(empirical_cf(z, ts)) <= 1.0 + 1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=300)
        for t in (0.3, 2.2, 7.7):
            assert abs(empirical_cf(z, -t) - empirical_cf(z, t).conjugate()) <= 1e-14

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            empirical_cf([], 1.0)


class TestEstimateNullEcf:
    def test_pure_null_recovery(self):
        est = estimate_null_ecf(draw(PURE_NULL, 100_000, 42))
        assert 0.95 <= est.p0_hat <= 1.0
        assert abs(est.u0_hat) <= 0.03
        assert abs(est.sigma0_hat - 1.0) <= 0.03

    def test_default_mixture_recovery(self):
        est = estimate_null_ecf(draw(eq1_default_model(), 100_000, 42))
        assert 0.75 <= est.p0_hat <= 0.85
        assert abs(est.sigma0_hat - 1.0) <= 0.05

    def test_not_enough_data(self):
        with pytest.raises(NotEnoughData):
            estimate_null_ecf(np.zeros(99))

    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateCF):
            estimate_null_ecf(np.full(1000, 2.5))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.sampled_from(sorted(EQ1_SEED7)),
        log10_a=st.floats(-3.0, 3.0),
        negative=st.booleans(),
        b=st.floats(-10.0, 10.0),
    )
    @example(m=100, log10_a=-3.0, negative=True, b=10.0)
    def test_affine_equivariance(self, m, log10_a, negative, b):
        # a in +-[1e-3, 1e3], b in [-10, 10], at the 100-observation floor
        # and at m = 5000
        a = -(10.0**log10_a) if negative else 10.0**log10_a
        assert_affine_equivariant(EQ1_SEED7[m], a, b)

    @pytest.mark.parametrize("a, b", [(a, b) for a in (-2.0, 1e-3, -1e-3, 0.05, 50.0, 1e3)
                                      for b in (0.3, -10.0, 400.0)]
                             + [(a, 0.0) for a in (1e-300, -1e-300, 1e-200, 1e200, 1e300, -1e300)])
    @pytest.mark.parametrize("m", [100, 5_000])
    def test_affine_equivariance_far_scales_and_shifts(self, m, a, b):
        # a fixed frequency grid truncates the window at small a, puts t*
        # on the first grid points at large a, and aliases the phase step
        # when b*dt exceeds pi; squares of z underflow at |a| <= 1e-200 and
        # overflow at |a| >= 1e200
        assert_affine_equivariant(EQ1_SEED7[m], a, b)

    def test_standardized_overflow_is_degenerate(self):
        # the spread is ~1e-300, so the point at 1e10 lies ~1e310 spreads out
        z = np.append(1e-300 * draw(PURE_NULL, 500, 3), 1e10)
        with pytest.raises(DegenerateCF, match="null estimation: the data lie over 1.8e"):
            estimate_null_ecf(z)

    def test_estimate_overflow_is_degenerate(self):
        # at a spread of ~1e-310 (subnormal) t* ~ 1e310 overflows
        with pytest.raises(DegenerateCF, match="null estimation: an estimate overflows"):
            estimate_null_ecf(1e-310 * draw(PURE_NULL, 500, 3))

    @pytest.mark.parametrize("scale", [0.05, 1.0, 50.0])
    def test_scan_matches_direct_sum(self, scale):
        # the Taylor-moment scan against the transcendental reference on a
        # whole 3000-point grid (all three passes), with no early stop
        z = scale * draw(eq1_default_model(), 5_000, 11)
        psi = _ecf_scan(z, 0.01, 3000, 0.0)
        assert psi.size == 3000
        ts = 0.01 * np.arange(1, 3001)
        assert np.max(np.abs(psi - empirical_cf(z, ts))) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        z = draw(PURE_NULL, 1_000, 13)
        z[17] = bad
        with pytest.raises(NonFiniteInput, match=r"^null estimation: 1 non-finite z value\(s\), first .* at index 17$"):
            estimate_null_ecf(z)
        assert issubclass(NonFiniteInput, ValueError)

    def test_cf_that_stays_high_is_degenerate(self):
        # 95 zeros and 5 ones: |ECF| = |0.95 + 0.05 e^{it}| >= 0.9, above the
        # crossing level 100^-0.1 = 0.631 at every frequency
        with pytest.raises(DegenerateCF, match=r"^\|ECF\| never fell below 0.631 for t <= "):
            estimate_null_ecf([0.0] * 95 + [1.0] * 5)

    def test_list_and_array_give_identical_estimates(self):
        z = EQ1_SEED7[5_000]
        assert estimate_null_ecf(z.tolist()) == estimate_null_ecf(z)
        got, want = estimate_marginal_kde(z.tolist()), estimate_marginal_kde(z)
        assert got.bandwidth == want.bandwidth
        for name in ("starts", "cells", "values", "data"):
            assert_array_equal(getattr(got, name), getattr(want, name))

    def test_shift_recovered(self):
        z = draw(PURE_NULL, 50_000, 9) + 1.3
        est = estimate_null_ecf(z)
        assert abs(est.u0_hat - 1.3) <= 0.05

    def test_diagnostics_populated(self):
        est = estimate_null_ecf(draw(eq1_default_model(), 10_000, 1))
        assert est.t_star > 0.0
        assert 0.0 < est.cf_magnitude_at_t_star <= 1.0

    def test_consistency_trend(self):
        # median absolute errors over 20 seeds are nonincreasing in m
        model = eq1_default_model()
        med = {}
        for m in (1_000, 10_000, 100_000):
            errs = np.array(
                [
                    [
                        abs(e.p0_hat - 0.8),
                        abs(e.u0_hat),
                        abs(e.sigma0_hat - 1.0),
                    ]
                    for e in (
                        estimate_null_ecf(draw(model, m, 1000 + s)) for s in range(20)
                    )
                ]
            )
            med[m] = np.median(errs, axis=0)
        for j, name in enumerate(["p0", "u0", "sigma0"]):
            assert med[1_000][j] >= med[10_000][j] >= med[100_000][j], name


def assert_affine_equivariant(z, a, b):
    # sigma0, p0, t* and |psi(t*)| transform to 1e-9 relative, u0 to 1e-9
    # sigma0; the shift b costs z's low digits when |a z| << |b|
    est = estimate_null_ecf(z)
    got = estimate_null_ecf(a * z + b)
    assert_allclose(got.sigma0_hat / abs(a), est.sigma0_hat, rtol=1e-9, atol=0)
    assert_allclose(got.p0_hat, est.p0_hat, rtol=1e-9, atol=0)
    assert_allclose(got.t_star * abs(a), est.t_star, rtol=1e-9, atol=0)
    assert_allclose(got.cf_magnitude_at_t_star, est.cf_magnitude_at_t_star, rtol=1e-9, atol=0)
    assert abs((got.u0_hat - b) / a - est.u0_hat) <= 1e-9 * est.sigma0_hat


@settings(max_examples=200, deadline=None, derandomize=True)
@given(z=st.lists(st.floats(-1e3, 1e3).map(lambda v: round(v, 1)), min_size=2, max_size=60))
@example(z=[0.2, 0.2, 0.2])
def test_center_spread_matches_np_percentile(z):
    # reference: the median and Silverman's spread from np.percentile
    # (rounded values give ties and zero IQRs); constant data have spread 0,
    # where np.std reads their mean's rounding (3.4e-17 for three 0.2s)
    z = np.array(z)
    sd = float(np.std(z, ddof=1))
    q75, q50, q25 = np.percentile(z, [75.0, 50.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.34)
    center, got = _Sample(z, "test").center_spread
    assert center == q50
    assert got == (0.0 if z.min() == z.max() else spread if spread > 0.0 else sd)


@pytest.mark.parametrize("value", [1.0, 0.1, 0.3, 2.5])
def test_constant_data_have_zero_spread(value):
    # np.std of 1000 copies of 0.1 or 0.3 reads their mean's rounding
    # (1.4e-17, 1.1e-16), which each estimator took for a spread
    z = np.full(1_000, value)
    assert _Sample(z, "test").center_spread == (value, 0.0)
    with pytest.raises(DegenerateCF, match=r"^the data have zero spread, so \|ECF\| is 1 at every t$"):
        estimate_null_ecf(z)
    with pytest.raises(DegenerateData, match=r"^kernel density estimation: the data have zero spread$"):
        estimate_marginal_kde(z)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    z=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=300),
    dt=st.floats(1e-4, 1.0),
    n=st.integers(1, 400),
    floor=st.floats(0.0, 1.0),
)
def test_ecf_scan_matches_empirical_cf(z, dt, n, floor):
    # unsorted z, spanning up to 16 periods 2 pi/dt at dt = 1
    z = np.array(z)
    ts = dt * np.arange(1, n + 1)
    psi = _ecf_scan(z, dt, n, floor)
    # both sides carry phase rounding ~ eps * |t z|, the Taylor sums also
    # ~ eps per term
    tol = 1e-14 * (n + ts[-1] * np.max(np.abs(z)))
    assert np.max(np.abs(psi - empirical_cf(z, ts[: psi.size]))) <= tol
    # the scan stops at the first frequency below the floor, or at the end
    mag = np.abs(psi)
    assert np.all(mag[:-1] >= floor)
    assert psi.size == n or mag[-1] < floor


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    x=st.lists(st.floats(-1e3, 1e3).map(lambda v: round(v, 1)), max_size=60),
    width=st.sampled_from([3, 5, 9]),
)
def test_median_filter_matches_np_median(x, width):
    # reference: np.median over the same edge-padded windows (rounded
    # values give ties)
    x = np.array(x, dtype=float)
    got = _median_filter(x, width)
    if x.size < width:
        assert got is x
        return
    pad = width // 2
    padded = np.concatenate([np.full(pad, x[0]), x, np.full(pad, x[-1])])
    want = np.array([np.median(padded[i : i + width]) for i in range(x.size)])
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.5, -1.5]), max_size=40))
def test_median_filter_matches_partitioned_windows(x):
    # bit for bit against np.partition over sliding_window_view, signed
    # zeros and ties included; below the width x comes back unchanged
    x = np.array(x, dtype=float)
    got = _median_filter(x, 9)
    if x.size < 9:
        assert got is x
        return
    padded = np.pad(x, 4, mode="edge")
    want = np.partition(np.lib.stride_tricks.sliding_window_view(padded, 9), 4, axis=1)[:, 4]
    assert got.tobytes() == want.tobytes()


def test_shape_tables_are_read_only():
    for table in (_kde_transfer(1024), *_ecf_pass_tables(0, 256)):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_kde_alternating_sizes_match_fresh_process():
    # an m = 100 and an m = 5000 draw use FFTs of different lengths; builds
    # that alternate between them read the cached transforms and must give
    # the bytes of a process that builds each once
    small, large = EQ1_SEED7[100], EQ1_SEED7[5_000]
    sizes = {int(estimate_marginal_kde(z).values.size) for z in (small, large)}
    assert len({1 << (n - 1).bit_length() for n in sizes}) == 2
    code = (
        "import hashlib\n"
        "from lfdr_lab import eq1_default_model, estimate_marginal_kde, sample_model\n"
        "for m in (100, 5_000):\n"
        "    z = sample_model(eq1_default_model(), m, 7)[0]\n"
        "    print(hashlib.sha256(estimate_marginal_kde(z).values.tobytes()).hexdigest())\n"
    )
    src = str(Path(lfdr_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=env).stdout.split()
    for _ in range(3):
        for z, want in zip((small, large), fresh):
            assert hashlib.sha256(estimate_marginal_kde(z).values.tobytes()).hexdigest() == want


def test_ecf_scan_later_passes_warm_equal_cold():
    # tied data whose |psi_m| stays above a floor of 0 through all three
    # passes: built afresh or read from the cache, the tables give one psi
    z = np.sort(np.random.default_rng(4).integers(0, 5, size=5_000).astype(float))
    _ecf_pass_tables.cache_clear()
    cold = _ecf_scan(z, 0.002, 3000, 0.0)
    warm = _ecf_scan(z, 0.002, 3000, 0.0)
    assert cold.size == 3000
    assert _ecf_pass_tables.cache_info().hits == 3
    assert warm.tobytes() == cold.tobytes()


@pytest.mark.parametrize("n", [1, 15, 16, 255, 256, 257, 1024, 1025, 3000])
@pytest.mark.parametrize("m", [100, 1023, 1024, 1025, 5000])
def test_ecf_scan_block_edges(m, n):
    # the scan works in passes up to frequencies 256, 1024 and 4096; n sits
    # on both sides of those edges
    z = np.random.default_rng(m + n).normal(size=m)
    ts = 0.01 * np.arange(1, n + 1)

    def tolerance(z):
        return 1e-14 * (n + ts[-1] * np.max(np.abs(z)))

    def check(z, floor, stop):
        psi = _ecf_scan(z, 0.01, n, floor)
        assert psi.size == stop + 1
        assert np.max(np.abs(psi - empirical_cf(z, ts[: psi.size]))) <= tolerance(z)
        mag = np.abs(psi)
        assert np.all(mag[:-1] >= floor)
        assert psi.size == n or mag[-1] < floor

    check(z, 0.0, n - 1)
    # a sample whose range times t_max is below pi has |psi_m| strictly
    # decreasing on the grid, so a floor between two neighbours stops the
    # scan exactly at the second: in the first pass, at both sides of the
    # first pass edge, and in later passes
    narrow = z * (2.0 / (ts[-1] * np.ptp(z)))
    mag = np.abs(empirical_cf(narrow, ts))
    for stop in sorted({k for k in (0, 100, 255, 256, 1000, 1023, 1024, n - 1) if k < n}):
        if stop:
            assert mag[stop - 1] - mag[stop] > 4.0 * tolerance(narrow)
        check(narrow, 1.0 if stop == 0 else 0.5 * (mag[stop - 1] + mag[stop]), stop)


@pytest.mark.parametrize("m", [100, 5_000])
def test_ecf_scan_over_many_periods(m):
    # at dt = 1 the period is 2 pi, so z in [-50, 50] spans 16 periods and
    # every pass folds cells from several of them
    z = np.random.default_rng(m).uniform(-50.0, 50.0, size=m)
    ts = np.arange(1.0, 3001.0)
    psi = _ecf_scan(z, 1.0, 3000, 0.0)
    assert np.max(np.abs(psi - empirical_cf(z, ts))) <= 1e-14 * (3000 + ts[-1] * np.max(np.abs(z)))


def test_ecf_scan_stop_past_first_pass_on_ties():
    # 5000 draws from 5 values: long runs share a cell, and |psi_m| falls
    # below the floor only in the second pass
    z = np.sort(np.random.default_rng(4).integers(0, 5, size=5_000).astype(float))
    dt, n, floor = 0.002, 3000, 0.5
    ts = dt * np.arange(1, n + 1)
    mag = np.abs(empirical_cf(z, ts))
    stop = int(np.flatnonzero(mag < floor)[0])
    assert 256 <= stop < 1024 and mag[stop - 1] - floor > 1e-9 and floor - mag[stop] > 1e-9
    psi = _ecf_scan(z, dt, n, floor)
    assert psi.size == stop + 1
    assert np.max(np.abs(psi - empirical_cf(z, ts[: psi.size]))) <= 1e-14 * (n + ts[-1] * 4.0)


@pytest.mark.parametrize("far", [1e4, 1e12, 1e300])
def test_far_point_estimate_is_finite(far):
    # the scan reduces z modulo its period, so a point at any finite
    # distance leaves every Taylor power bounded
    z = np.append(draw(PURE_NULL, 500, 3), far)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = estimate_null_ecf(z)
    assert all(map(math.isfinite, astuple(est)))
    assert abs(est.sigma0_hat - 1.0) <= 0.2 and 0.9 <= est.p0_hat <= 1.0


def test_ecf_scan_blas_thread_invariant():
    # no stage of the scan or of the estimate may depend on the BLAS thread
    # count: not a bit of psi_m or of the estimate may change
    code = (
        "import hashlib, numpy as np\n"
        "from lfdr_lab import eq1_default_model, estimate_null_ecf, sample_model\n"
        "from lfdr_lab.estimation import _ecf_scan\n"

        "for m in (5_000, 100_000):\n"
        "    z = sample_model(eq1_default_model(), m, 21)[0]\n"
        "    print(hashlib.sha256(_ecf_scan(z, 0.01, 3000, 0.0).tobytes()).hexdigest())\n"
        "    print(repr(estimate_null_ecf(z)))\n"
    )
    src = str(Path(lfdr_lab.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        outs.append(run.stdout)
    assert outs[0].count("NullEstimate(") == 2
    assert outs[0] == outs[1]


class TestEstimateMarginalKde:
    def test_density_at_zero(self):
        z = draw(PURE_NULL, 100_000, 3)
        est = estimate_marginal_kde(z)
        value = est.evaluate(0.0)[0]
        assert 0.38 <= value <= 0.42

    def test_normalized_and_nonnegative(self):
        z = draw(eq1_default_model(), 5_000, 4)
        est = estimate_marginal_kde(z)
        assert np.all(est.values >= 0.0)
        integral = np.trapezoid(est.values, est.grid)
        assert abs(integral - 1.0) <= 0.01

    def test_symmetric_data(self):
        rng = np.random.default_rng(5)
        half = rng.normal(size=500)
        c = 0.4
        z = np.concatenate([c + half, c - half])  # exactly symmetric about c
        est = estimate_marginal_kde(z)
        # mirrored grid points: grid is symmetric about c by construction
        mirrored = est.evaluate(2 * c - est.grid)
        assert np.max(np.abs(mirrored - est.values)) <= 1e-10

    def test_grid_span(self):
        # one segment spaced h/100, centred on the data's midpoint and
        # reaching 8h plus one to two steps past its extreme points; a point
        # over 16h away gets its own segment, centred on it
        z = draw(PURE_NULL, 1_000, 7)
        for data, centres in ((z, [0.5 * (z.min() + z.max())]),
                              (np.append(z, 1e3), [0.5 * (z.min() + z.max()), 1e3])):
            est = estimate_marginal_kde(data)
            h, step = est.bandwidth, est.bandwidth / 100
            gaps = np.diff(est.grid)
            jumps = np.flatnonzero(gaps > 1.5 * step)
            assert_allclose(np.delete(gaps, jumps), step, rtol=1e-9)
            segments = np.split(est.grid, jumps + 1)
            assert len(segments) == len(centres)
            for seg, centre in zip(segments, centres):
                assert_allclose(0.5 * (seg[0] + seg[-1]), centre, rtol=0, atol=1e-9)
            steps_past = (np.array([data.min() - est.grid[0], est.grid[-1] - data.max()]) - 8 * h) / step
            assert np.all((steps_past > 1.0 - 1e-6) & (steps_past < 2.0))

    def test_off_grid_fallback_continuous(self):
        z = draw(PURE_NULL, 2_000, 8)
        est = estimate_marginal_kde(z)
        edge = est.grid[-1]
        inside, outside = est.evaluate([edge - 1e-9, edge + 1e-9])
        assert abs(inside - outside) <= 1e-6

    @pytest.mark.parametrize("m", [5_000, 100_000])
    def test_binned_values_match_exact_kernel_sum(self, m):
        # at the data and at grid points in [min - 4h, max + 4h]; further out
        # the values fall towards 1e-14 of the peak, where relative error is
        # FFT rounding
        z = draw(eq1_default_model(), m, 14)
        est = estimate_marginal_kde(z)
        h = est.bandwidth
        near = np.flatnonzero((est.grid >= z.min() - 4 * h) & (est.grid <= z.max() + 4 * h))
        near = near[np.linspace(0, near.size - 1, 500).astype(int)]
        at_data = z[:: m // 500]
        for at, got in ((at_data, est.evaluate(at_data)), (est.grid[near], est.values[near])):
            exact = _kernel_sum(z, at, h)
            assert np.max(np.abs(got - exact) / exact) <= 5e-5

    def test_far_outlier_bounded_fine_grid(self):
        # one point at 1e4 gets a short segment of its own; one grid spaced
        # h/100 across the whole range would need ~6e6 points
        z = np.append(draw(eq1_default_model(), 5_000, 15), 1e4)
        tracemalloc.start()
        try:
            est = estimate_marginal_kde(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48e6
        assert np.all(np.isfinite(est.values))
        assert np.max(est.values) > 0.0
        assert_allclose(np.trapezoid(est.values, est.grid), 1.0)

    def test_heavy_tails_bounded_memory(self):
        # 10^5 standard Cauchy draws leave hundreds of tail points alone in
        # their own segments; a grid across their whole range would be
        # spaced hundreds of bandwidths apart
        z = np.random.default_rng(19).standard_cauchy(100_000)
        tracemalloc.start()
        try:
            est = estimate_marginal_kde(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6
        at = z[::200]
        assert_allclose(est.evaluate(at), _kernel_sum(z, at, est.bandwidth), rtol=5e-5)

    def test_million_point_build(self):
        z = draw(eq1_default_model(), 1_000_000, 23)
        tracemalloc.start()
        try:
            est = estimate_marginal_kde(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96e6
        at = z[::20_000]
        assert_allclose(est.evaluate(at), _kernel_sum(z, at, est.bandwidth), rtol=5e-5)

    def test_spacing_below_resolution_is_degenerate(self):
        # data spread over three doubles next to 0.1 have an sd of about one
        # ulp, and doubles near 1e16 are 2 apart: neither holds a grid spaced
        # h/100
        with pytest.raises(DegenerateData, match="kernel density estimation: spacing h/100 = "):
            estimate_marginal_kde(0.1 + math.ulp(0.1) * (np.arange(1_000) % 3))
        with pytest.raises(DegenerateData, match="cannot be represented at"):
            estimate_marginal_kde(np.append(draw(PURE_NULL, 500, 3), 1e16))

    def test_segment_table_checked(self):
        # two segments of 2 cells spaced 1 (bandwidth 100), from 0 and 5;
        # each case breaks one field of that valid table
        def build(starts=(0.0, 5.0), cells=(2, 2), values=(0.0, 0.5, 0.0) * 2, bandwidth=100.0):
            return MarginalDensityEstimate(starts=starts, cells=cells, values=values,
                                           bandwidth=bandwidth, data=[])

        est = build()
        assert est.spacing == 1.0
        assert_array_equal(est.grid, [0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
        assert_allclose(est.evaluate([1.5, 5.5]), [0.25, 0.25])
        for kwargs, message in (
            ({"bandwidth": 0.0}, "bandwidth must be positive"),
            ({"cells": (2,)}, "a start and at least one cell"),
            ({"cells": (2, 0), "values": (0.0, 0.5, 0.0, 0.5)}, "a start and at least one cell"),
            ({"starts": [[0.0, 5.0]]}, "a start and at least one cell"),
            ({"starts": (), "cells": (), "values": ()}, "one or more"),
            ({"starts": (0.0, 2.0)}, "ascending without overlap"),
            ({"starts": (5.0, 0.0)}, "ascending without overlap"),
            ({"values": (0.0, 0.5, 0.0, 0.5, 0.0)}, "one value per segment point"),
            ({"values": (0.0, 0.5, 0.0, 0.0, 0.5, -0.01)}, "nonnegative"),
            ({"values": (0.0, 1.0, 0.0) * 2}, "integrates to 2.0000"),
        ):
            with pytest.raises(ValueError, match=message):
                build(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        z = draw(PURE_NULL, 1_000, 16)
        z[-1] = bad
        with pytest.raises(NonFiniteInput,
                           match=r"^kernel density estimation: 1 non-finite z value\(s\), first .* at index 999$"):
            estimate_marginal_kde(z)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData, match=r"^kernel density estimation: the data have zero spread$"):
            estimate_marginal_kde(np.full(50, 1.0))
        # a spread of 5e-324 is not zero, but 0.9 * 5e-324 * 300^-0.2 rounds to 0
        z = np.random.default_rng(0).normal(size=300) * 5e-324
        with pytest.raises(DegenerateData, match=r"^kernel density estimation: Silverman's bandwidth "
                                                 r"0\.9 \* 4\.94e-324 \* 300\^-0\.2 underflows to 0$"):
            estimate_marginal_kde(z)
        with pytest.raises(DegenerateData):
            estimate_marginal_kde([1.0])


class TestEstimateP0Tail:
    def test_all_above_lambda_capped(self):
        assert estimate_p0_tail([0.6, 0.7, 0.8, 0.9]) == 1.0

    def test_all_below_lambda(self):
        assert estimate_p0_tail([0.1, 0.2, 0.3]) == 0.0

    def test_hand_count(self):
        assert estimate_p0_tail([0.1, 0.6, 0.7, 0.9]) == 1.0  # min(1, 3/2)

    def test_unbiased_under_uniform(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(size=200_000)
        assert abs(estimate_p0_tail(p) - 1.0) <= 0.01

    def test_mixture_estimate(self):
        # two-sided p-values under the default mixture: nonnulls mostly fall
        # below 0.5, so the tail estimate is close to p0
        from lfdr_lab import two_sided_pvalue

        model = eq1_default_model()
        z, _ = sample_model(model, 100_000, 10)
        p = two_sided_pvalue(z, model.null)
        est = estimate_p0_tail(p)
        assert 0.75 <= est <= 0.88

    def test_empty(self):
        with pytest.raises(EmptyInput):
            estimate_p0_tail([])

    @pytest.mark.parametrize("p", [[math.nan] * 4, [2.0, 3.0, -1.0], [0.0, 0.7], [0.6, math.inf]])
    def test_refuses_what_bh_refuses(self, p):
        # one check for both: a tail count over values outside (0, 1] is
        # no estimate
        for estimate in (estimate_p0_tail, lambda p: bh_stepup(p, 0.1)):
            with pytest.raises(InvalidPValue, match=r"^p-values must lie in \(0, 1\]$"):
                estimate(p)
