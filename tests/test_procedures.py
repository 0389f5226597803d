import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lfdr_lab import (
    ConfusionCounts,
    DecisionTable,
    GaussianComponent,
    InvalidLfdr,
    InvalidPValue,
    LengthMismatch,
    adaptive_bh,
    bh_stepup,
    confusion,
    decide,
    estimate_marginal_kde,
    estimated_lfdr_values,
    fdp_fnp,
    lfdr_stepup,
    estimate_p0_tail,
    mixture_model,
    lfdr as exact_lfdr,
    sample_model,
    two_sided_pvalue,
)
from lfdr_lab import procedures as procedures_module
from lfdr_lab.errors import DegenerateData, DegenerateMarginal


STD = GaussianComponent(0.0, 1.0)


def rejected_indices(table):
    return np.flatnonzero(table.rejected).tolist()


class TestBhStepup:
    def test_hand_example(self):
        # cutoffs at alpha=0.05, m=3: 0.0167, 0.0333, 0.05
        table = bh_stepup([0.001, 0.2, 0.9], 0.05)
        assert rejected_indices(table) == [0]
        assert table.k == 1

    def test_all_ones_reject_none(self):
        table = bh_stepup([1.0, 1.0, 1.0, 1.0], 0.05)
        assert table.k == 0

    def test_all_below_bonferroni_reject_all(self):
        m = 5
        table = bh_stepup([0.05 / m * 0.9] * m, 0.05)
        assert table.k == m

    def test_rejects_are_smallest_pvalues(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(size=200) ** 3
        table = bh_stepup(p, 0.2)
        k = table.k
        if k:
            cut = np.sort(p)[k - 1]
            got = set(rejected_indices(table))
            assert got == set(np.nonzero(p <= cut)[0]) or len(got) == k

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(size=100) ** 2
        ks = [bh_stepup(p, a).k for a in (0.01, 0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_rejects_invalid(self):
        with pytest.raises(InvalidPValue):
            bh_stepup([0.0, 0.5], 0.05)
        with pytest.raises(InvalidPValue):
            bh_stepup([0.5, 1.5], 0.05)
        with pytest.raises(InvalidPValue):
            bh_stepup([], 0.05)
        with pytest.raises(ValueError):
            bh_stepup([0.5], 1.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidPValue, match=r"p-values must lie in \(0, 1\]"):
            bh_stepup([0.5, bad, 0.01], 0.05)

    def test_preserves_input_order(self):
        table = bh_stepup([0.9, 0.001, 0.2], 0.05)
        assert table.rejected.tolist() == [False, True, False]


class TestAdaptiveBh:
    def test_p0_one_identical_to_bh(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = rng.uniform(size=50)
            a = bh_stepup(p, 0.07)
            b = adaptive_bh(p, 0.07, 1.0)
            assert rejected_indices(a) == rejected_indices(b)

    def test_doubled_level(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(size=80) ** 2
        assert rejected_indices(adaptive_bh(p, 0.05, 0.5)) == rejected_indices(
            bh_stepup(p, 0.10)
        )

    def test_hand_example(self):
        # effective level 0.1: cutoffs 0.0333, 0.0667, 0.1
        table = adaptive_bh([0.02, 0.03, 0.9], 0.05, 0.5)
        assert rejected_indices(table) == [0, 1]

    def test_superset_of_bh(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.uniform(size=60) ** 2
            base = set(rejected_indices(bh_stepup(p, 0.1)))
            ada = set(rejected_indices(adaptive_bh(p, 0.1, 0.6)))
            assert base <= ada

    def test_tiny_p0_hat_capped(self):
        table = adaptive_bh([0.9999999, 0.5], 0.5, 1e-12)
        assert table.k == 2  # effective level capped just below 1

    def test_invalid_p0_hat(self):
        with pytest.raises(ValueError):
            adaptive_bh([0.5], 0.05, 0.0)


class TestLfdrStepup:
    def test_hand_example(self):
        # running means 0.01, 0.03, 0.08667, 0.29
        table = lfdr_stepup([0.01, 0.05, 0.2, 0.9], 0.10)
        assert table.k == 3
        assert rejected_indices(table) == [0, 1, 2]

    def test_all_zero_rejects_all(self):
        assert lfdr_stepup([0.0] * 7, 0.05).k == 7

    def test_min_above_alpha_rejects_none(self):
        assert lfdr_stepup([0.3, 0.5, 0.9], 0.2).k == 0

    def test_running_mean_constraint(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = rng.uniform(size=rng.integers(1, 80))
            alpha = float(rng.uniform(0.02, 0.5))
            table = lfdr_stepup(v, alpha)
            rej = v[table.rejected]
            if rej.size:
                assert np.mean(rej) <= alpha + 1e-12

    def test_lower_set_property(self):
        # rejection set is a lower set of the (value, index) order
        rng = np.random.default_rng(7)
        for _ in range(30):
            v = np.round(rng.uniform(size=40), 2)  # force ties
            table = lfdr_stepup(v, 0.25)
            rej = table.rejected
            order = np.lexsort((np.arange(v.size), v))
            seen_accept = False
            for idx in order:
                if not rej[idx]:
                    seen_accept = True
                elif seen_accept:
                    pytest.fail("rejected hypothesis after an accepted one in sort order")

    def test_tie_block_at_boundary_split_by_index(self):
        # values [0.05, 0.2, 0.2] at alpha=0.13: running means 0.05, 0.125,
        # 0.15 -> k = 2; the tied 0.2s split, lower index rejected
        table = lfdr_stepup([0.2, 0.05, 0.2], 0.13)
        assert rejected_indices(table) == [0, 1]

    def test_tie_block_included_when_feasible(self):
        # same values at alpha=0.15: running mean at 3 is 0.15 <= alpha
        table = lfdr_stepup([0.2, 0.05, 0.2], 0.15)
        assert table.k == 3

    def test_invalid_values(self):
        with pytest.raises(InvalidLfdr):
            lfdr_stepup([-0.1, 0.5], 0.1)
        with pytest.raises(InvalidLfdr):
            lfdr_stepup([0.5, 1.2], 0.1)
        with pytest.raises(InvalidLfdr):
            lfdr_stepup([], 0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidLfdr, match=r"lfdr values must lie in \[0, 1\]"):
            lfdr_stepup([0.5, bad, 0.01], 0.1)


class TestEstimatedLfdrValues:
    def test_cap_active(self):
        m = mixture_model(0.8, [(0.2, 3.0, 1.0)])
        z, _ = sample_model(m, 2000, 0)
        marginal = estimate_marginal_kde(z)
        # at the mode the unmixed null density exceeds the mixture marginal
        vals = estimated_lfdr_values(np.array([0.0]), 1.0, STD, marginal)
        assert vals[0] == 1.0

    def test_zero_p0_gives_zero(self):
        m = mixture_model(0.8, [(0.2, 3.0, 1.0)])
        z, _ = sample_model(m, 2000, 0)
        marginal = estimate_marginal_kde(z)
        vals = estimated_lfdr_values(z[:10], 1e-6, STD, marginal)
        assert np.all(vals < 1e-3)

    def test_exact_inputs_reproduce_lfdr(self):
        # true null parameters plus the true marginal tabulated on a fine
        # grid give back the exact lfdr up to interpolation error
        from lfdr_lab import MarginalDensityEstimate, marginal_density

        model = mixture_model(0.8, [(0.1, -3.0, 1.0), (0.1, 3.0, 1.0)])
        grid = np.linspace(-9.0, 9.0, 8001)
        marginal = MarginalDensityEstimate(
            grid=grid,
            values=marginal_density(model, grid),
            bandwidth=0.1,
            data=np.array([]),
        )
        z = np.linspace(-6.0, 6.0, 241)
        vals = estimated_lfdr_values(z, 0.8, STD, marginal)
        assert np.max(np.abs(vals - exact_lfdr(model, z))) <= 1e-6

    def test_matches_exact_lfdr_with_true_inputs(self):
        # feeding the true null and (approximately) the true marginal
        # reproduces the exact lfdr up to estimator error
        model = mixture_model(0.8, [(0.1, -3.0, 1.0), (0.1, 3.0, 1.0)])
        z, _ = sample_model(model, 100_000, 21)
        marginal = estimate_marginal_kde(z)
        vals = estimated_lfdr_values(z, 0.8, STD, marginal)
        central = np.abs(z) <= 4.0
        err = np.abs(vals[central] - exact_lfdr(model, z[central]))
        assert err.mean() <= 0.05

    def test_degenerate_marginal_detected(self):
        m = mixture_model(0.8, [(0.2, 3.0, 1.0)])
        z, _ = sample_model(m, 500, 0)
        marginal = estimate_marginal_kde(z, bandwidth=0.05)
        with pytest.raises(DegenerateMarginal):
            estimated_lfdr_values(np.array([80.0]), 0.8, STD, marginal)


class TestConfusion:
    def test_no_rejections_all_null(self):
        table = bh_stepup([1.0] * 4, 0.05)
        c = confusion(table, [False] * 4)
        assert (c.n00, c.n01, c.n10, c.n11) == (4, 0, 0, 0)
        assert c.r == 0 and c.s == 4 and c.m == 4

    def test_all_rejected_all_nonnull(self):
        table = lfdr_stepup([0.0] * 3, 0.05)
        c = confusion(table, [True] * 3)
        assert c.n11 == 3 and c.m == 3 and c.r == 3

    def test_hand_count(self):
        table = lfdr_stepup([0.0, 1.0, 0.0], 0.10)
        assert table.rejected.tolist() == [True, False, True]
        c = confusion(table, [True, False, False])
        assert (c.n11, c.n10, c.n00, c.n01) == (1, 1, 1, 0)

    def test_cells_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            table = lfdr_stepup(rng.uniform(size=n), 0.3)
            truth = rng.random(n) < 0.3
            c = confusion(table, truth)
            assert c.n00 + c.n01 + c.n10 + c.n11 == n
            assert c.r + c.s == c.m == n

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion(bh_stepup([0.5], 0.05), [True, False])


class TestFdpFnp:
    def test_conventions(self):
        assert fdp_fnp(ConfusionCounts(5, 0, 0, 0)) == (0.0, 0.0)
        fdp, _ = fdp_fnp(ConfusionCounts(0, 0, 1, 3))
        assert_allclose(fdp, 0.25)
        _, fnp = fdp_fnp(ConfusionCounts(6, 2, 0, 0))
        assert_allclose(fnp, 0.25)

    def test_everything_rejected_fnp_zero(self):
        assert fdp_fnp(ConfusionCounts(0, 0, 2, 2))[1] == 0.0


DECIDE_PROCEDURES = ("bh", "adaptive_bh", "lfdr")
DECIDE_SUBSETS = [
    tuple(p for bit, p in enumerate(DECIDE_PROCEDURES) if mask >> bit & 1)
    for mask in range(1, 2 ** len(DECIDE_PROCEDURES))
]


@pytest.fixture(scope="module")
def eq1_z():
    model = mixture_model(0.8, [(0.1, -3.0, 1.0), (0.1, 3.0, 1.0)])
    z, _ = sample_model(model, 2_000, 31)
    return z


class TestDecide:
    def test_unknown_procedure(self):
        with pytest.raises(ValueError):
            decide([0.5, 1.0], "abh", 0.1, STD)

    @pytest.mark.parametrize("procedures", ["bh", "lfdr", (), ("bh", "abh"), ["lfdr", "oracle"]])
    def test_rejects_bad_procedures(self, procedures):
        with pytest.raises(ValueError, match="procedures must be"):
            decide([0.5, 1.0, -0.3], procedures, 0.1, STD)

    @pytest.mark.parametrize("null", [STD, None], ids=["known", "estimated"])
    @pytest.mark.parametrize("procedures", DECIDE_SUBSETS, ids="+".join)
    def test_shared_evidence_matches_single_calls(self, eq1_z, procedures, null):
        tables = decide(eq1_z, procedures, 0.1, null)
        assert tuple(tables) == procedures
        for procedure, table in tables.items():
            alone = decide(eq1_z, (procedure,), 0.1, null)[procedure]
            assert table.k == alone.k
            assert np.array_equal(table.rejected, alone.rejected)
            for name in ("pvalue", "lfdr_hat"):
                got, want = getattr(table, name), getattr(alone, name)
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("null", [STD, None], ids=["known", "estimated"])
    def test_evidence_computed_at_most_once(self, eq1_z, null, monkeypatch):
        calls = {}

        def counted(name):
            original = getattr(procedures_module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(procedures_module, name, wrapper)

        for name in ("two_sided_pvalue", "estimate_p0_tail", "estimate_null_ecf",
                     "estimate_marginal_kde"):
            counted(name)
        for subset in DECIDE_SUBSETS:
            calls.clear()
            decide(eq1_z, subset + subset, 0.1, null)
            assert calls and max(calls.values()) == 1, (subset, calls)
        # with a known null bh, adaptive BH and the lfdr rule share one
        # p-value vector and one tail p0
        calls.clear()
        decide(eq1_z, DECIDE_PROCEDURES, 0.1, null)
        expected = {"two_sided_pvalue": 1, "estimate_marginal_kde": 1}
        expected.update({"estimate_p0_tail": 1} if null is STD else {"estimate_null_ecf": 1})
        assert calls == expected

    def test_bh_levels_share_one_checked_copy(self, eq1_z):
        tables = decide(eq1_z, ("adaptive_bh", "bh"), 0.1, STD)
        assert tables["bh"].pvalue is tables["adaptive_bh"].pvalue
        # still checked: the two-sided p-value of z = 40 underflows to 0
        with pytest.raises(InvalidPValue):
            decide(np.append(eq1_z, 40.0), ("bh", "adaptive_bh"), 0.1, STD)

    def test_single_observation_lfdr_skips_tail_p0(self):
        # the tail p0 of [3.0] under N(0, 1) is 0, but one observation gets
        # lfdr 1 before any p0 is needed
        tables = decide([3.0], ("lfdr",), 0.1, STD)
        assert tables["lfdr"].k == 0
        assert tables["lfdr"].lfdr_hat.tolist() == [1.0]
        with pytest.raises(DegenerateData, match="adaptive BH: tail p0 estimate is 0"):
            decide([3.0], ("lfdr", "adaptive_bh"), 0.1, STD)

    def test_zero_tail_p0_is_degenerate_for_adaptive_bh(self):
        # no p-value above 0.5, so the tail p0 estimate is 0
        z = [3.0, -4.0, 5.0, 2.5]
        assert estimate_p0_tail(two_sided_pvalue(np.array(z), STD)) == 0.0
        with pytest.raises(DegenerateData, match="adaptive BH: tail p0 estimate is 0"):
            decide(z, ("adaptive_bh",), 0.1, STD)["adaptive_bh"]

    def test_zero_tail_p0_is_degenerate_for_lfdr(self):
        # the same condition would give every lfdr_hat the value 0 and
        # reject everything
        with pytest.raises(DegenerateData, match="lfdr rule: tail p0 estimate is 0"):
            decide([3.0, -4.0, 5.0, 2.5], ("lfdr",), 0.1, STD)["lfdr"]

    def test_zero_tail_p0_names_first_rule_that_needs_it(self):
        z = [3.0, -4.0, 5.0, 2.5]
        with pytest.raises(DegenerateData, match="lfdr rule: tail p0 estimate is 0"):
            decide(z, ("bh", "lfdr", "adaptive_bh"), 0.1, STD)
        with pytest.raises(DegenerateData, match="adaptive BH: tail p0 estimate is 0"):
            decide(z, ("adaptive_bh", "lfdr"), 0.1, STD)


# Properties of the shared step-up kernel.  BH ranks p-values in (0, 1],
# the lfdr rule ranks lfdr values in [0, 1].
STEPUPS = {
    "bh": (bh_stepup, st.floats(0.0, 1.0, exclude_min=True)),
    "lfdr": (lfdr_stepup, st.floats(0.0, 1.0)),
}
ALPHAS = st.floats(1e-3, 0.999)


@pytest.mark.parametrize("name", sorted(STEPUPS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), alpha=ALPHAS)
def test_stepup_permutation_equivariant(name, data, alpha):
    # ties are split by input index, so equivariance needs distinct values
    stepup, values = STEPUPS[name]
    v = np.array(data.draw(st.lists(values, min_size=1, max_size=60, unique=True)))
    perm = np.array(data.draw(st.permutations(range(v.size))))
    base, permuted = stepup(v, alpha), stepup(v[perm], alpha)
    assert permuted.k == base.k
    assert np.array_equal(permuted.rejected, base.rejected[perm])


@pytest.mark.parametrize("name", sorted(STEPUPS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), a1=ALPHAS, a2=ALPHAS)
def test_stepup_k_monotone_in_alpha(name, data, a1, a2):
    stepup, values = STEPUPS[name]
    v = data.draw(st.lists(values, min_size=1, max_size=60))
    lo, hi = min(a1, a2), max(a1, a2)
    assert stepup(v, lo).k <= stepup(v, hi).k


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=st.lists(STEPUPS["bh"][1], min_size=1, max_size=60), alpha=ALPHAS)
def test_bh_stepup_self_consistent(p, alpha):
    # BH's k is the largest i with at least i p-values <= alpha*i/m, and it
    # rejects exactly the p-values <= alpha*k/m when they are distinct
    p = np.array(p)
    m = p.size
    passing = [i for i in range(1, m + 1) if np.sum(p <= alpha * i / m) >= i]
    table = bh_stepup(p, alpha)
    assert table.k == max(passing, default=0)
    if table.k and np.unique(p).size == m:
        assert np.array_equal(table.rejected, p <= alpha * table.k / m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=st.lists(STEPUPS["bh"][1], min_size=1, max_size=60), alpha=ALPHAS)
def test_adaptive_bh_at_p0_one_is_bh(p, alpha):
    a, b = adaptive_bh(p, alpha, 1.0), bh_stepup(p, alpha)
    assert a.k == b.k
    assert np.array_equal(a.rejected, b.rejected)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(v=st.lists(STEPUPS["lfdr"][1], min_size=1, max_size=60), alpha=ALPHAS)
def test_lfdr_stepup_running_mean_bound(v, alpha):
    v = np.array(v)
    table = lfdr_stepup(v, alpha)
    assert table.k == int(table.rejected.sum())
    if table.k:
        assert v[table.rejected].mean() <= alpha + 1e-12
    running = np.cumsum(np.sort(v)) / np.arange(1, v.size + 1)
    assert np.all(running[table.k :] > alpha)


def _reference_stepup(v, passes):
    """Test-only reference kernel: the full (value, index) lexsort."""
    order = np.lexsort((np.arange(v.size), v))
    ok = np.flatnonzero(passes(v[order]))
    k = int(ok[-1]) + 1 if ok.size else 0
    rejected = np.zeros(v.size, dtype=bool)
    rejected[order[:k]] = True
    return k, rejected


# values on a coarse lattice, so nearly every draw has exact ties; the lfdr
# lattice holds both zeros, which compare equal
EIGHTHS = st.integers(1, 8).map(lambda i: i / 8)
LFDR_TIES = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, 1.0])
REFERENCE_TESTS = {
    "bh": (bh_stepup, EIGHTHS, lambda a: lambda s: s <= a * np.arange(1, s.size + 1) / s.size),
    "lfdr": (lfdr_stepup, LFDR_TIES, lambda a: lambda s: np.cumsum(s) / np.arange(1, s.size + 1) <= a),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_TESTS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), alpha=ALPHAS)
def test_stepup_matches_lexsort_reference_on_ties(name, data, alpha):
    stepup, values, test_for = REFERENCE_TESTS[name]
    v = np.array(data.draw(st.lists(values, min_size=1, max_size=40)))
    table = stepup(v, alpha)
    k, rejected = _reference_stepup(v, test_for(alpha))
    assert table.k == k
    assert np.array_equal(table.rejected, rejected)


@pytest.mark.parametrize(
    "name, v, alpha, rejected",
    [
        # k = 0, with a tie block at the bottom
        ("bh", [0.5, 0.625, 0.5, 1.0], 0.05, [0, 0, 0, 0]),
        ("lfdr", [0.5, 0.25, 0.25], 0.1, [0, 0, 0]),
        # k = m, all one tie block (signed zeros compare equal)
        ("bh", [0.125, 0.125, 0.125], 0.2, [1, 1, 1]),
        ("lfdr", [0.0, -0.0, 0.0], 0.05, [1, 1, 1]),
        # running means 0, 0, 1/12, 1/8: the 0.25 block straddles k = 3
        # and gives its lowest index
        ("lfdr", [0.25, 0.0, 0.25, 0.25, 0.25, -0.0], 0.1, [1, 1, 0, 0, 0, 1]),
        # a BH cut ends its tie block: once p <= alpha*i/m holds at one rank
        # of a block, it holds at the block's later ranks
        ("bh", [0.25, 0.125, 0.25, 0.25, 1.0, 0.125, 1.0, 1.0], 0.5, [1, 1, 1, 1, 0, 1, 0, 0]),
    ],
)
def test_stepup_tie_cases(name, v, alpha, rejected):
    stepup, _, test_for = REFERENCE_TESTS[name]
    v = np.array(v)
    table = stepup(v, alpha)
    assert table.rejected.tolist() == [bool(r) for r in rejected]
    assert table.k == sum(rejected)
    assert _reference_stepup(v, test_for(alpha))[1].tolist() == table.rejected.tolist()


def _masks(n):
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    return st.one_of(st.just([True] * n), st.just([False] * n), flags)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 50))
def test_confusion_matches_four_sums(data, n):
    truth = np.array(data.draw(_masks(n)))
    reject = np.array(data.draw(_masks(n)))
    c = confusion(DecisionTable(rejected=reject, k=int(reject.sum())), truth)
    cells = (c.n00, c.n01, c.n10, c.n11)
    assert cells == (
        np.sum(~truth & ~reject),
        np.sum(truth & ~reject),
        np.sum(~truth & reject),
        np.sum(truth & reject),
    )
    assert all(type(x) is int for x in cells)
    assert sum(cells) == n
