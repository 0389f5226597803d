import copy
import math
import pickle
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import erfc

import lfdr_lab
from lfdr_lab import (
    GaussianComponent,
    InvalidModel,
    TwoGroupModel,
    gaussian_pdf,
    lfdr,
    marginal_density,
    mixture_model,
    two_sided_pvalue,
)
from lfdr_lab import core_model, errors, estimation, oracle, procedures, simulation

STD = GaussianComponent(0.0, 1.0)


def fig2_model():
    # asymmetric mixture: 0.15 at -3, 0.05 at +4 (see tests below for why
    # the heavier weight sits on the negative component)
    return mixture_model(0.8, [(0.15, -3.0, 1.0), (0.05, 4.0, 1.0)])


def hand_phi(z, mean=0.0, sd=1.0):
    # independent closed-form oracle, pure math module
    return math.exp(-0.5 * ((z - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


class TestGaussianPdf:
    def test_mode_value(self):
        assert_allclose(gaussian_pdf(0.0, STD), 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-15)

    def test_symmetry_about_mean(self):
        assert gaussian_pdf(1.0, STD) == gaussian_pdf(-1.0, STD)
        c = GaussianComponent(2.5, 0.7)
        assert_allclose(gaussian_pdf(2.5 + 0.9, c), gaussian_pdf(2.5 - 0.9, c), rtol=1e-15)

    def test_at_one(self):
        # frozen from the closed form: exp(-1/2)/sqrt(2 pi)
        assert_allclose(gaussian_pdf(1.0, STD), 0.24197072451914337, rtol=1e-14)
        assert_allclose(gaussian_pdf(1.0, STD), hand_phi(1.0), rtol=1e-14)

    def test_strictly_positive_far_tail(self):
        assert gaussian_pdf(-37.0, STD) > 0.0

    def test_vectorized(self):
        z = np.array([-1.0, 0.0, 2.0])
        assert_allclose(gaussian_pdf(z, STD), [hand_phi(v) for v in z], rtol=1e-14)


class TestMarginalDensity:
    def test_pure_null_degenerate(self):
        m = mixture_model(1.0, [])
        for z in (-3.0, 0.0, 1.7, 6.0):
            assert_allclose(marginal_density(m, z), gaussian_pdf(z, STD), rtol=1e-14)

    def test_fig2_hand_sum(self):
        # oracle: three-term hand sum
        want = 0.8 * hand_phi(-2.0) + 0.15 * hand_phi(-2.0, -3.0) + 0.05 * hand_phi(-2.0, 4.0)
        assert_allclose(want, 0.0794883821922161, rtol=1e-12)  # frozen
        assert_allclose(marginal_density(fig2_model(), -2.0), want, rtol=1e-12)

    def test_integrates_to_one(self):
        # quadrature oracle over [min mean - 10, max mean + 10]
        m = fig2_model()
        total, _ = quad(lambda z: marginal_density(m, z), -13.0, 14.0, limit=200)
        assert abs(total - 1.0) <= 1e-6

    def test_integrates_to_one_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.dirichlet([1.0, 1.0, 1.0])
            means = rng.uniform(-4, 4, size=2)
            sds = rng.uniform(0.5, 2.0, size=2)
            m = mixture_model(w[0], [(w[1], means[0], sds[0]), (w[2], means[1], sds[1])])
            lo = min(0.0, *means) - 10 * max(1.0, *sds)
            hi = max(0.0, *means) + 10 * max(1.0, *sds)
            total, _ = quad(lambda z: marginal_density(m, z), lo, hi, limit=200)
            assert abs(total - 1.0) <= 1e-6

    def test_strictly_positive(self):
        m = fig2_model()
        assert marginal_density(m, -12.0) > 0.0


class TestLfdr:
    def test_pure_null_is_one(self):
        m = mixture_model(1.0, [])
        for z in (-5.0, 0.0, 2.3):
            assert lfdr(m, z) == 1.0

    def test_fig2_probe_values(self):
        # oracle: direct ratio of hand sums
        m = fig2_model()
        for z, frozen in ((-2.0, 0.5433847314454477), (3.0, 0.22663482060602386)):
            f = 0.8 * hand_phi(z) + 0.15 * hand_phi(z, -3.0) + 0.05 * hand_phi(z, 4.0)
            want = 0.8 * hand_phi(z) / f
            assert_allclose(want, frozen, rtol=1e-12)
            assert_allclose(lfdr(m, z), frozen, rtol=1e-10)

    def test_reported_pair_is_unordered_set(self):
        # the printed pair {0.227, 0.543} matches the probes as a set
        m = fig2_model()
        got = sorted([lfdr(m, -2.0), lfdr(m, 3.0)])
        assert abs(got[0] - 0.227) <= 5e-3
        assert abs(got[1] - 0.543) <= 5e-3

    def test_swapped_weight_assignment_does_not_match(self):
        # placing 0.15 on the +4 component gives a very different pair
        m = mixture_model(0.8, [(0.05, -3.0, 1.0), (0.15, 4.0, 1.0)])
        got = sorted([lfdr(m, -2.0), lfdr(m, 3.0)])
        assert abs(got[0] - 0.227) > 0.05 and abs(got[1] - 0.543) > 0.05

    def test_in_unit_interval(self):
        rng = np.random.default_rng(11)
        m = fig2_model()
        z = rng.uniform(-10, 10, size=400)
        vals = lfdr(m, z)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0 + 1e-12)

    def test_component_order_invariance(self):
        a = mixture_model(0.8, [(0.15, -3.0, 1.0), (0.05, 4.0, 1.0)])
        b = mixture_model(0.8, [(0.05, 4.0, 1.0), (0.15, -3.0, 1.0)])
        z = np.linspace(-6, 7, 53)
        assert_allclose(lfdr(a, z), lfdr(b, z), rtol=1e-13)


class TestTwoSidedPvalue:
    def test_center_is_one(self):
        assert two_sided_pvalue(0.0, STD) == 1.0

    def test_probe_values(self):
        # the 0.046 / 0.003 probes, exact values frozen
        assert_allclose(two_sided_pvalue(-2.0, STD), 0.04550026389635842, rtol=1e-12)
        assert abs(two_sided_pvalue(-2.0, STD) - 0.046) <= 5e-4
        assert_allclose(two_sided_pvalue(3.0, STD), 0.0026997960632601866, rtol=1e-12)
        assert abs(two_sided_pvalue(3.0, STD) - 0.003) <= 5e-4

    def test_symmetry(self):
        c = GaussianComponent(1.2, 0.8)
        for z in (-3.0, 0.4, 2.8):
            assert_allclose(
                two_sided_pvalue(z, c), two_sided_pvalue(2 * c.mean - z, c), rtol=1e-13
            )

    def test_in_unit_interval(self):
        z = np.linspace(-30, 30, 301)
        p = two_sided_pvalue(z, STD)
        assert np.all(p > 0.0) and np.all(p <= 1.0)

    def test_underflow_clamped_to_smallest_double(self):
        # erfc(|z|/sqrt 2) reaches 0 near |z| = 37.7; below that every value
        # keeps erfc's bits, subnormals included
        z = np.linspace(30.0, 60.0, 3001)
        raw = erfc(z / math.sqrt(2.0))
        assert raw[-1] == 0.0 and raw[0] > 0.0
        p = two_sided_pvalue(np.concatenate([z, -z]), STD)
        want = np.where(raw > 0.0, raw, math.ulp(0.0))
        assert np.array_equal(p, np.concatenate([want, want]))
        assert two_sided_pvalue(-40.0, STD) == math.ulp(0.0)


class TestModelTypes:
    def test_component_validation(self):
        with pytest.raises(InvalidModel):
            GaussianComponent(0.0, 0.0)
        with pytest.raises(InvalidModel):
            GaussianComponent(math.nan, 1.0)

    def test_weight_sum_enforced(self):
        with pytest.raises(InvalidModel):
            mixture_model(0.8, [(0.1, -3.0, 1.0)])

    def test_nonnull_required_unless_pure_null(self):
        # the weight-sum check is what refuses an empty nonnull list
        with pytest.raises(InvalidModel, match="weights must sum to 1"):
            TwoGroupModel(p0=0.9, null=STD, nonnull=())
        assert TwoGroupModel(p0=1.0, null=STD, nonnull=()).p0 == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidModel):
            mixture_model(1.1, [(-0.1, 0.0, 1.0)])
        # weights that sum to 1 with p0 in range still need each to be >= 0
        with pytest.raises(InvalidModel, match="component weight must be >= 0, got -0.1"):
            mixture_model(0.9, [(-0.1, 0.0, 1.0), (0.2, 3.0, 1.0)])

    def test_nan_weight_rejected(self):
        # nan compares false both ways: it used to pass both weight checks,
        # and the component table dropped it, so lfdr read 1.0
        with pytest.raises(InvalidModel, match="component weight must be >= 0, got nan"):
            mixture_model(0.8, [(math.nan, 3.0, 1.0)])

    def test_nonnull_entry_must_be_a_component(self):
        with pytest.raises(InvalidModel, match=r"nonnull entries must be \(weight, GaussianComponent\)"):
            TwoGroupModel(p0=0.9, null=STD, nonnull=((0.1, (3.0, 1.0)),))

    # |z| <= 30 keeps the N(0, 1) null term p0*f0 a normal (not subnormal)
    # float, where the two roundings compared below agree to 1e-12
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        p0=st.floats(0.01, 1.0),
        comps=st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(-10.0, 10.0), st.floats(0.05, 5.0)),
            min_size=1,
            max_size=3,
        ),
        z=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=20),
    )
    @example(p0=0.8, comps=[(0.75, -3.0, 1.0), (0.25, 4.0, 1.0)], z=[-2.0])  # figure-2 model
    def test_lfdr_in_unit_interval_and_marginal_covers_null_term(self, p0, comps, z):
        total = sum(r for r, _, _ in comps)
        m = mixture_model(p0, [((1.0 - p0) * r / total, mu, sd) for r, mu, sd in comps])
        z = np.array(z)
        f = marginal_density(m, z)
        f0_scaled = m.p0 * gaussian_pdf(z, m.null)
        assert np.all(f0_scaled >= 0.0)
        assert np.all(f >= f0_scaled * (1.0 - 1e-12))
        values = lfdr(m, z)
        assert np.all((values >= 0.0) & (values <= 1.0))


def loop_lfdr_and_density(m, z):
    """lfdr and the marginal density by a loop over the components, in the
    arithmetic core_model used before it kept a component table."""

    def log_pdf(c):
        u = (np.asarray(z, dtype=float) - c.mean) / c.sd
        return -0.5 * u * u - math.log(c.sd) - 0.5 * math.log(2.0 * math.pi)

    logs = np.stack([math.log(w) + log_pdf(c) for w, c in m.components if w > 0.0], axis=0)
    peak = logs.max(axis=0)
    log_f = peak + np.log(np.exp(logs - peak).sum(axis=0))
    log_ratio = math.log(m.p0) + log_pdf(m.null) - log_f
    return np.clip(np.exp(log_ratio), 0.0, 1.0), np.exp(log_f)


@st.composite
def mixtures(draw):
    """0-3 nonnull components, some of weight 0, sd in [0.01, 3]."""
    comps = draw(st.lists(
        st.tuples(st.just(0.0) | st.floats(0.01, 1.0), st.floats(-8.0, 8.0), st.floats(0.01, 3.0)),
        max_size=3,
    ))
    total = sum(r for r, _, _ in comps)
    p0 = draw(st.floats(0.05, 0.95)) if total > 0.0 else 1.0
    weights = [(1.0 - p0) * r / total if total else 0.0 for r, _, _ in comps]
    return mixture_model(p0, [(w, mu, sd) for w, (_, mu, sd) in zip(weights, comps)])


class TestComponentTable:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        m=mixtures(),
        point=st.floats(-12.0, 12.0),
        row=st.lists(st.floats(-12.0, 12.0), min_size=6, max_size=6),
    )
    @example(m=mixture_model(0.7, [(0.2, -1.0, 0.3), (0.0, 5.0, 1.0), (0.1, 2.0, 2.0)]),
             point=5.0, row=[-3.0, -1.0, 0.0, 2.0, 5.0, 9.0])
    def test_lfdr_and_density_match_component_loop(self, m, point, row):
        row = np.array(row)
        for z in (point, np.array(point), row, np.array([]), row.reshape(2, 3)):
            for got, want in zip((lfdr(m, z), marginal_density(m, z)), loop_lfdr_and_density(m, z)):
                if np.ndim(z) == 0:
                    assert type(got) is float
                else:
                    assert isinstance(got, np.ndarray) and got.shape == np.shape(z)
                assert np.array_equal(got, want)

    # figure 1 panels a-d, the README's (and figure 2's) model, a nonnull
    # sd of 0.001, and a component of weight 0, which the table leaves out
    @pytest.mark.parametrize("m", [
        mixture_model(0.8, [(0.05, -3.0, 1.0), (0.15, 3.0, 1.0)]),
        mixture_model(0.8, [(0.05, -3.0, 1.0), (0.15, 6.0, 1.0)]),
        mixture_model(0.8, [(0.18, -3.0, 1.0), (0.02, 2.25, 1.0)]),
        mixture_model(0.8, [(0.02, -3.0, 1.0), (0.18, 1.0, 1.0)]),
        fig2_model(),
        mixture_model(0.9, [(0.1, 2.5, 0.001)]),
        mixture_model(0.7, [(0.2, -1.0, 0.3), (0.0, 5.0, 1.0), (0.1, 2.0, 2.0)]),
    ])
    def test_built_once_per_model_and_read_only(self, m):
        table = core_model._components(m)
        assert core_model._components(m) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 0.5
        fresh = np.array([(w, c.mean, c.sd, math.log(w), math.log(c.sd))
                          for w, c in m.components if w > 0.0]).T[:, :, None]
        assert table.shape == fresh.shape and np.array_equal(table, fresh)
        # the table is no field: equality, hashing and repr see none of it
        twin = TwoGroupModel(m.p0, m.null, m.nonnull)
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)

    @pytest.mark.parametrize("make", [
        simulation.eq1_default_model,
        fig2_model,
        lambda: mixture_model(0.9, [(0.1, 2.5, 0.001)]),
    ])
    def test_copies_keep_the_table_read_only(self, make):
        # a shallow copy, a deep copy and a pickle each rebuild the model
        # through its constructor, with a read-only table of its own; the
        # pickle holds the fields alone, as many bytes as a fresh model's
        m = make()
        assert len(pickle.dumps(m)) == len(pickle.dumps(make()))
        for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert copied == m
            copied_table = core_model._components(copied)
            assert not copied_table.flags.writeable
            assert np.array_equal(copied_table, core_model._components(make()))


def test_package_exports_the_module_lists():
    # each public name is listed once, in the __all__ of the module that
    # defines it; the oracle's and the simulator's names are absent from
    # vars(lfdr_lab) until first use, so the package's __all__ is read
    listed = set()
    for module in (core_model, errors, estimation, oracle, procedures, simulation):
        listed.update(module.__all__)
        for name in module.__all__:
            assert getattr(lfdr_lab, name) is getattr(module, name)
    exported = set(lfdr_lab.__all__)
    assert exported == listed
    assert len(exported) == len(lfdr_lab.__all__) == 59
    public = {name for name in dir(lfdr_lab)
              if not name.startswith("_") and not isinstance(getattr(lfdr_lab, name), types.ModuleType)}
    assert public == exported


def test_star_import_binds_every_export_and_lazy_submodules_resolve():
    # a fresh process, so the lazy names are unresolved when the import runs
    code = ("namespace = {}\n"
            "exec('from lfdr_lab import *', namespace)\n"
            "import lfdr_lab\n"
            "print(sorted(set(namespace) - {'__builtins__'}) == sorted(lfdr_lab.__all__),\n"
            "      len(lfdr_lab.__all__), lfdr_lab.simulation.run_replicated.__module__,\n"
            "      lfdr_lab.oracle.oracle_sweep is namespace['oracle_sweep'])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "59", "lfdr_lab.simulation", "True"]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lfdr_lab.no_such_name


def test_lazy_submodule_loads_on_attribute_access():
    # a fresh process, where nothing has imported oracle yet: reading the
    # package's attribute imports the submodule through __getattr__
    code = ("import sys, lfdr_lab\n"
            "print('lfdr_lab.oracle' in sys.modules, lfdr_lab.oracle.__name__,\n"
            "      lfdr_lab.oracle is sys.modules['lfdr_lab.oracle'])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "lfdr_lab.oracle", "True"]
