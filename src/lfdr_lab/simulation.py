"""Seeded Monte Carlo generation from two-group models and replicated
procedure evaluation, including the oracle-comparison figure data.

Reproducibility contract: every normal variate is produced by inverse-CDF
transform of uniforms from a PCG64 stream, and per-replication seeds derive
from (master seed, replication index) via the SplitMix64 mixing function, so
results are bit-identical for a given config.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import ndtri

from .core_model import TwoGroupModel, _components, lfdr, mixture_model, two_sided_pvalue
from .oracle import oracle_lfdr_rule, oracle_pvalue_rule, oracle_sweep
from .procedures import _check_alpha, _k_smallest, confusion, decide, fdp_fnp, lfdr_stepup

__all__ = [
    "PROCEDURES",
    "SimConfig",
    "ProcedureStats",
    "SimResult",
    "Figure2Data",
    "ConcentratedDemo",
    "rep_seed",
    "sample_model",
    "sample_correlated",
    "run_replicated",
    "figure1_data",
    "figure2_data",
    "concentrated_alternative_demo",
    "eq1_default_model",
]

# how each procedure decides a replication: decide's name for it, and the
# null decide runs under, the model's or its ECF estimate; None marks the
# plug-in rule, the step-up on the exact lfdr(model, z)
_RULES = {"bh": ("bh", "model"), "adaptive_bh": ("adaptive_bh", "model"),
          "lfdr_oracle_plugin": None, "lfdr_estimated": ("lfdr", "ecf")}
PROCEDURES = tuple(_RULES)

_DEMO_SEED = 20080101
# the mFDR level of figure 1's panels a-c and of figure 2
_FIGURE_ALPHA = 0.10


def eq1_default_model() -> TwoGroupModel:
    """The default simulation mixture: p0 = 0.8, nonnulls 0.1 at -3 and 0.1
    at +3, all unit width."""
    return mixture_model(0.8, [(0.1, -3.0, 1.0), (0.1, 3.0, 1.0)])


@dataclass
class SimConfig:
    """Settings for one replicated simulation study.

    Every setting is checked here, and a bad one raises ``ValueError``
    naming it: ``model`` must be a ``TwoGroupModel``; ``procedures`` must
    be a list or tuple of names from ``PROCEDURES``, at least one, and is
    stored as a tuple that keeps each name once, in first-seen order; the
    fields annotated ``int`` (``m``, ``reps`` and ``seed``) must be Python
    or NumPy integers, ``m`` and ``reps`` at least 1; ``alpha`` must be a
    real number in (0, 1) and ``rho`` one in [0, 1).  No setting may be a
    bool.  Counts are stored as ``int``, ``alpha`` and ``rho`` as ``float``.
    """

    model: TwoGroupModel
    m: int
    reps: int
    alpha: float
    seed: int
    rho: float = 0.0
    procedures: tuple = PROCEDURES

    def __post_init__(self):
        if not isinstance(self.model, TwoGroupModel):
            raise ValueError(f"model must be a TwoGroupModel, got {self.model!r}")
        if isinstance(self.procedures, str):
            raise ValueError(f"procedures must be a sequence of names, not the string {self.procedures!r}")
        if not (isinstance(self.procedures, (list, tuple)) and all(isinstance(p, str) for p in self.procedures)):
            raise ValueError(f"procedures must be a list of names, got {self.procedures!r}")
        self.procedures = tuple(dict.fromkeys(self.procedures))
        for f in [f for f in fields(self) if f.type in ("int", "float")]:
            value = getattr(self, f.name)
            count = f.type == "int"
            # a bool is an int to Python, and a NumPy integer is Integral
            if isinstance(value, bool) or not isinstance(value, numbers.Integral if count else numbers.Real):
                raise ValueError(f"{f.name} must be {'an integer' if count else 'a number'}, got {value!r}")
            setattr(self, f.name, operator.index(value) if count else float(value))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        _check_alpha(self.alpha)
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if not self.procedures:
            raise ValueError("procedures must name at least one procedure")
        unknown = set(self.procedures) - set(_RULES)
        if unknown:
            raise ValueError(f"unknown procedures: {sorted(unknown)}; known: {', '.join(_RULES)}")


@dataclass(frozen=True)
class ProcedureStats:
    """Monte Carlo summary for one procedure.

    ``mfdr`` is the mean over replications of the false discovery
    proportion V/max(R, 1), that is the FDR, and ``mfnr`` the mean false
    nondiscovery proportion; each ``_se`` is the standard error of that
    mean.  The oracle's ``mfdr_of_region`` is the marginal E[V]/E[R]
    instead.  The two differ by O(1/m) under independence and part under
    dependence: for theoretical-null BH at alpha 0.1 on eq1 with rho 0.5,
    the large-m FDR is 0.069 and E[V]/E[R] about 0.10.
    """

    mfdr: float
    mfdr_se: float
    mfnr: float
    mfnr_se: float
    mean_rejections: float


@dataclass
class SimResult:
    """Per-procedure empirical error rates over all replications."""

    per_procedure: dict = field(default_factory=dict)


def _splitmix64(x: int) -> int:
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0xFFFFFFFFFFFFFFFF


def rep_seed(master_seed: int, rep_index: int) -> int:
    """Derive the seed of one replication: SplitMix64 applied to the master
    seed advanced rep_index + 1 times by the SplitMix64 increment."""
    state = (master_seed + (rep_index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    return _splitmix64(state)


def sample_model(model: TwoGroupModel, m: int, seed: int):
    """Draw m independent z-values; returns (z, nonnull flags).

    Each hypothesis picks a component with the mixture probabilities, then
    draws z from it by inverse-CDF transform; a fixed draw order makes the
    output a deterministic function of the seed.  This is
    ``sample_correlated`` at rho = 0.
    """
    return sample_correlated(model, m, 0.0, seed)


def sample_correlated(model: TwoGroupModel, m: int, rho: float, seed: int):
    """Equicorrelated draw: z_i = mean_i + sd_i*(sqrt(1-rho)*e_i + sqrt(rho)*W)
    with one shared factor W per replication.

    Components are drawn from the cumulative weights of the positive-weight
    components, so a component of weight 0 is never drawn.  A uniform's label
    counts the cumulative weights at or below it, all but the last: the labels
    of a right-sided search, in one pass per component.  ``m`` must be an
    integer >= 0, not a bool; ``m = 0`` gives empty arrays.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 0:
        raise ValueError(f"m must be an integer >= 0, got {m!r}")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    weights, means, sds = _components(model)[:3, :, 0]
    rng = np.random.default_rng(seed)
    u = rng.random(m)
    comp = np.zeros(m, dtype=np.intp)
    for edge in np.cumsum(weights)[:-1]:
        comp += u >= edge
    # PCG64 can return exactly 0.0; its smallest nonzero double is 2^-53, so
    # the clamp keeps ndtri finite and leaves every other draw unchanged
    e = ndtri(np.maximum(rng.random(m), 2.0**-53))
    shared = ndtri(np.maximum(rng.random(1), 2.0**-53))[0]
    e *= math.sqrt(1.0 - rho)
    e += math.sqrt(rho) * shared
    e *= sds.take(comp)
    z = means.take(comp)
    z += e
    return z, comp > 0


def run_replicated(config: SimConfig) -> SimResult:
    """Evaluate the configured procedures over seeded replications, in
    replication index order; a failed replication aborts the run with its
    cause.  Each procedure's ``mfdr`` and ``mfnr`` are means of the
    per-replication FDP and FNP (see ``ProcedureStats``): its FDR and FNR,
    not the marginal E[V]/E[R] of the oracle's ``mfdr_of_region``.  Each
    replication makes one ``decide`` call per null that a procedure runs
    under."""
    calls = {}  # {null: {decide's name: procedure}}, None for the ECF estimate
    for proc in config.procedures:
        if _RULES[proc]:
            name, null = _RULES[proc]
            calls.setdefault(None if null == "ecf" else config.model.null, {})[name] = proc
    outcomes = {proc: [] for proc in config.procedures}  # (fdp, fnp, k) per replication
    for rep in range(config.reps):
        z, nonnull = sample_correlated(config.model, config.m, config.rho, rep_seed(config.seed, rep))
        tables = {names[name]: table for null, names in calls.items()
                  for name, table in decide(z, tuple(names), config.alpha, null).items()}
        for proc in outcomes:
            table = tables[proc] if _RULES[proc] else lfdr_stepup(lfdr(config.model, z), config.alpha)
            outcomes[proc].append((*fdp_fnp(confusion(table, nonnull)), table.k))

    def std_err(x: np.ndarray) -> float:
        if config.reps < 2:
            return 0.0
        return float(np.std(x, ddof=1) / math.sqrt(config.reps))

    per_procedure = {}
    for proc, rows in outcomes.items():
        fdps, fnps, ks = np.array(rows, dtype=float).T
        per_procedure[proc] = ProcedureStats(
            mfdr=float(fdps.mean()),
            mfdr_se=std_err(fdps),
            mfnr=float(fnps.mean()),
            mfnr_se=std_err(fnps),
            mean_rejections=float(ks.mean()),
        )
    return SimResult(per_procedure=per_procedure)


# ---------------------------------------------------------------------------
# Oracle comparison figures
# ---------------------------------------------------------------------------

_P1 = tuple(round(0.01 * k, 2) for k in range(1, 20))
# each figure's oracle sweep: (values, the model at a value, the mFDR level
# or the level at a value), for oracle_sweep
_SWEEPS = {
    "1a": (_P1, lambda p1: mixture_model(0.8, [(p1, -3.0, 1.0), (0.2 - p1, 3.0, 1.0)]), _FIGURE_ALPHA),
    "1b": (_P1, lambda p1: mixture_model(0.8, [(p1, -3.0, 1.0), (0.2 - p1, 6.0, 1.0)]), _FIGURE_ALPHA),
    "1c": (tuple(1.0 + 0.25 * k for k in range(21)),
           lambda mu2: mixture_model(0.8, [(0.18, -3.0, 1.0), (0.02, mu2, 1.0)]), _FIGURE_ALPHA),
    "1d": (tuple(round(0.02 * k, 2) for k in range(1, 16)),
           lambda _: mixture_model(0.8, [(0.02, -3.0, 1.0), (0.18, 1.0, 1.0)]), lambda alpha: alpha),
    "2": (_P1, lambda p1: mixture_model(0.8, [(p1, -3.0, 1.0), (0.2 - p1, 4.0, 1.0)]), _FIGURE_ALPHA),
}


def figure1_data(panel: str) -> list:
    """Oracle mFNR comparison rows for one panel of the four-panel figure.

    Panels: (a) mu = (-3, 3), p1 sweeping 0.01..0.19 with p1 + p2 = 0.2 at
    mFDR 0.10; (b) same with mu2 = 6; (c) p1 = 0.18, p2 = 0.02, mu1 = -3,
    mu2 sweeping 1..6; (d) mu = (-3, 1), p1 = 0.02, p2 = 0.18, alpha
    sweeping 0.02..0.30.  Note panel (d) intentionally places its heavy
    nonnull component at mu2 = 1, inside the null bulk.  ``panel`` is one
    of "a" to "d", in either case; anything else raises ``ValueError``.
    """
    if panel not in tuple("abcdABCD"):
        raise ValueError(f"panel must be one of a, b, c, d; got {panel!r}")
    values, model_for, alpha = _SWEEPS["1" + panel.lower()]
    return oracle_sweep(model_for, values, alpha)


@dataclass(frozen=True)
class ProbePoint:
    """Decisions and statistics of both oracle rules at one z-value."""

    z: float
    pvalue: float
    lfdr: float
    rejected_by_lfdr: bool
    rejected_by_pvalue: bool


@dataclass
class Figure2Data:
    """mFNR sweep and the rejection-region comparison at p1 = 0.15 for the
    asymmetric mixture with nonnull means -3 and 4."""

    curve: list  # SweepRow per p1
    pvalue_rule: object
    lfdr_rule: object
    probes: list  # ProbePoint at z = -2 and z = 3


def figure2_data() -> Figure2Data:
    """Sweep p1 for the mu = (-3, 4) mixture at mFDR 0.10 and report both
    rules' regions and the probe decisions at z = -2 and z = 3 for p1 = 0.15."""
    p1s, model_for, alpha = _SWEEPS["2"]
    curve = oracle_sweep(model_for, p1s, alpha)
    model = model_for(0.15)
    p_rule = oracle_pvalue_rule(model, alpha)
    l_rule = oracle_lfdr_rule(model, alpha)
    probes = []
    for z in (-2.0, 3.0):
        probes.append(
            ProbePoint(
                z=z,
                pvalue=two_sided_pvalue(z, model.null),
                lfdr=lfdr(model, z),
                rejected_by_lfdr=l_rule.region.contains(z),
                rejected_by_pvalue=p_rule.region.contains(z),
            )
        )
    return Figure2Data(curve=curve, pvalue_rule=p_rule, lfdr_rule=l_rule, probes=probes)


@dataclass
class ConcentratedDemo:
    """Nonnull capture among top-ranked hypotheses when the alternative is
    tightly concentrated just outside the null bulk."""

    m: int
    top: int
    capture_by_pvalue: float
    capture_by_lfdr: float
    lfdr_at_mode: float
    lfdr_at_far_tail: float


def concentrated_alternative_demo() -> ConcentratedDemo:
    """Rank 10^4 hypotheses drawn with p0 = 0.9 by p-value and by exact lfdr
    under a concentrated alternative N(1.5, 0.1^2) and compare the nonnull
    fraction among the 100 top-ranked hypotheses of each ordering.

    With the alternative concentrated near 1.5, the most extreme z-values
    (smallest p-values) are mostly nulls, while the smallest lfdr values sit
    where the alternative density dominates.
    """
    m = 10_000
    top = 100
    p0 = 0.9
    model = mixture_model(p0, [(1.0 - p0, 1.5, 0.1)])
    z, nonnull = sample_model(model, m, _DEMO_SEED)
    pvalues = two_sided_pvalue(z, model.null)
    lfdr_values = lfdr(model, z)
    by_p = _k_smallest(pvalues, np.sort(pvalues), top)
    by_l = _k_smallest(lfdr_values, np.sort(lfdr_values), top)
    return ConcentratedDemo(
        m=m,
        top=top,
        capture_by_pvalue=float(nonnull[by_p].mean()),
        capture_by_lfdr=float(nonnull[by_l].mean()),
        lfdr_at_mode=lfdr(model, 1.5),
        lfdr_at_far_tail=lfdr(model, 4.0),
    )
