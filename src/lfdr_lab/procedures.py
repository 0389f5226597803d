"""Data-driven multiple-testing procedures on observed z-values.

Both data-driven rules are one step-up on one kernel, ``_stepup``: sort the
ranked statistic once by value, find the last rank i whose per-rank test
passes, and reject the i smallest in (value, input index) order.  The rules
differ only in that test:

* Benjamini-Hochberg (1995) on p-values: p_(i) <= alpha * i / m; adaptive
  BH runs it at the level alpha / p0_hat;
* the adaptive local-fdr rule (Sun & Cai 2007) on lfdr values: the running
  mean (1/i) * sum of the i smallest values <= alpha, which is the estimated
  false discovery rate of the rejected set.

Only the tie block at the cut needs the index order: every value below the
cut is rejected, and a block of values equal to the cut that straddles the
boundary is split with lower input indices rejected first, so output is a
deterministic function of the input sequence.  ``decide`` runs the whole
data-driven chain (null, p-values, p0, kernel marginal, lfdr, step-up)
once for all the rules the CLI or the simulator asks for; it sorts the
p-values it computes once, for both BH levels, without re-checking them:
for finite z they lie in (0, 1] by construction.  Confusion counts and
fdp/fnp evaluate decisions against known truth.

Every vector a function here ranks or counts (z, p-values, lfdr values,
truth flags) enters through ``estimation._vector``, which refuses any
shape but 1-D by name; ``estimated_lfdr_values`` stays elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import GaussianComponent, gaussian_pdf, two_sided_pvalue
from .errors import (
    DegenerateData,
    DegenerateMarginal,
    EmptyInput,
    InvalidLfdr,
    InvalidPValue,
    LengthMismatch,
)
from .estimation import _checked_pvalues, _Sample, _vector, estimate_marginal_kde, estimate_null_ecf, estimate_p0_tail

__all__ = [
    "DecisionTable",
    "ConfusionCounts",
    "bh_stepup",
    "adaptive_bh",
    "lfdr_stepup",
    "estimated_lfdr_values",
    "decide",
    "confusion",
    "fdp_fnp",
]


@dataclass(frozen=True)
class DecisionTable:
    """Decisions of one step-up run, as arrays in input order.

    ``rejected`` flags the k rejected hypotheses.  ``pvalue`` or
    ``lfdr_hat`` holds the statistic the rule ranked; the other is None.
    """

    rejected: np.ndarray
    k: int
    pvalue: np.ndarray | None = None
    lfdr_hat: np.ndarray | None = None


@dataclass(frozen=True)
class ConfusionCounts:
    """Outcome counts of a procedure against known truth.

    n00/n01 count accepted nulls/nonnulls, n10/n11 rejected nulls/nonnulls.
    """

    n00: int
    n01: int
    n10: int
    n11: int

    @property
    def r(self) -> int:
        """Rejections."""
        return self.n10 + self.n11

    @property
    def s(self) -> int:
        """Acceptances."""
        return self.n00 + self.n01

    @property
    def m(self) -> int:
        return self.r + self.s


def _check_alpha(alpha: float):
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _k_smallest(values: np.ndarray, s: np.ndarray, k: int) -> np.ndarray:
    """Mask, in input order, of the k smallest values in (value, index)
    order; ``s`` is ``np.sort(values)``.  Values below the cut s[k-1] are
    all taken, and the tie block at the cut gives its lowest indices."""
    if k == 0:
        return np.zeros(values.size, dtype=bool)
    cut = s[k - 1]
    taken = values < cut
    ties = np.flatnonzero(values == cut)
    taken[ties[: k - np.count_nonzero(taken)]] = True
    return taken


def _stepup(values: np.ndarray, s: np.ndarray, passes) -> tuple:
    """Reject the k smallest values in (value, index) order, k being the
    last rank whose entry of ``passes(s)`` is true, ``s`` being
    ``np.sort(values)``; returns (boolean mask in input order, k).  One
    value sort suffices: the index order only splits the tie block at the
    cut."""
    ok = np.flatnonzero(passes(s))
    k = int(ok[-1]) + 1 if ok.size else 0
    return _k_smallest(values, s, k), k


def _bh(p: np.ndarray, s: np.ndarray, level: float) -> DecisionTable:
    """BH step-up at ``level`` on checked p-values ``p``, sorted ``s``."""
    rejected, k = _stepup(p, s, lambda s: s <= level * np.arange(1, s.size + 1) / s.size)
    return DecisionTable(rejected=rejected, k=k, pvalue=p)


def _check_p0(p0_hat: float):
    if not (0.0 < p0_hat <= 1.0):  # false on nan
        raise ValueError(f"p0_hat must be in (0, 1], got {p0_hat}")


def _adaptive_level(alpha: float, p0_hat: float) -> float:
    _check_alpha(alpha)
    _check_p0(p0_hat)
    return min(alpha / p0_hat, 1.0 - 1e-12)


def bh_stepup(pvalues, alpha: float) -> DecisionTable:
    """Benjamini-Hochberg step-up at level alpha.

    With sorted p-values p_(1) <= ... <= p_(m), rejects the hypotheses
    carrying the k smallest p-values where k = max{i : p_(i) <= i*alpha/m}.
    ``pvalues`` must be a 1-D vector; the table holds a float copy of it.
    """
    _check_alpha(alpha)
    p = _checked_pvalues(pvalues)
    if p.size == 0:
        raise InvalidPValue("empty p-value vector")
    return _bh(p, np.sort(p), alpha)


def adaptive_bh(pvalues, alpha: float, p0_hat: float) -> DecisionTable:
    """BH at the adapted level min(alpha/p0_hat, 1 - 1e-12).

    With p0_hat = 1 this is exactly bh_stepup; smaller p0_hat enlarges the
    rejection set.
    """
    return bh_stepup(pvalues, _adaptive_level(alpha, p0_hat))


def lfdr_stepup(lfdr_values, alpha: float) -> DecisionTable:
    """Adaptive step-up on estimated local fdr values.

    Sorts the values ascending and rejects through the largest index k at
    which the running mean (1/k) * sum of the k smallest values is <= alpha;
    that running mean is the estimated false discovery rate of the rejected
    set.  ``lfdr_values`` must be a 1-D vector; the table holds a float copy
    of it.
    """
    _check_alpha(alpha)
    v = _vector(lfdr_values, "lfdr values").copy()
    if v.size == 0:
        raise InvalidLfdr("empty lfdr vector")
    if not (v.min() >= 0.0 and v.max() <= 1.0):  # false on nan
        raise InvalidLfdr("lfdr values must lie in [0, 1]")
    rejected, k = _stepup(v, np.sort(v), lambda s: np.cumsum(s) / np.arange(1, s.size + 1) <= alpha)
    return DecisionTable(rejected=rejected, k=k, lfdr_hat=v)


def estimated_lfdr_values(z, p0_hat: float, null: GaussianComponent, marginal) -> np.ndarray:
    """Estimated local fdr min(1, p0_hat * f0(z) / f_hat(z)), elementwise on
    z of any shape.

    ``null`` is the null component f0 (known or estimated); ``marginal`` is
    a MarginalDensityEstimate.  Raises ValueError unless p0_hat lies in
    (0, 1], and DegenerateMarginal when the marginal estimate vanishes at an
    evaluation point, which signals a bandwidth or grid misconfiguration;
    the floor is 1e-300 on f_hat * bandwidth, so it scales with the data.
    """
    _check_p0(p0_hat)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    f0 = gaussian_pdf(z, null)
    fhat = marginal.evaluate(z)
    if np.any(fhat * marginal.bandwidth < 1e-300):
        worst = float(z.flat[np.argmin(fhat)])
        raise DegenerateMarginal(f"marginal estimate vanishes near z = {worst:.6g}")
    return np.minimum(1.0, p0_hat * f0 / fhat)


def decide(z, procedures: tuple, alpha: float, null: GaussianComponent | None) -> dict:
    """Run data-driven procedures on one vector of z-values.

    ``procedures`` is a tuple of ``bh``, ``adaptive_bh`` and ``lfdr``;
    returns ``{procedure: DecisionTable}`` in that order.  ``null`` is a
    known null component, or None to estimate (p0, u0, sigma0) by the ECF
    method.  p-values are two-sided under that null; p0 is the ECF estimate
    when the null is estimated and the tail estimate otherwise; the lfdr
    rule plugs p0, the null and a kernel marginal into
    ``estimated_lfdr_values`` (a single observation gets lfdr 1).  Each
    piece is computed once, and only if a requested procedure needs it;
    both BH levels share the p-values and their one sort.

    Raises ValueError unless z is a 1-D vector, EmptyInput on empty z and
    NonFiniteInput on nan or inf, all before any stage runs; NotEnoughData
    and DegenerateCF from null estimation; and DegenerateData, naming the
    first requested rule that needs p0, when the tail p0 estimate is 0.
    """
    if not procedures or not set(procedures) <= {"bh", "adaptive_bh", "lfdr"}:
        raise ValueError(f"procedures must be a tuple of bh, adaptive_bh, lfdr; got {procedures!r}")
    _check_alpha(alpha)
    sample = _Sample(z, "decide")
    z = sample.z
    if z.size == 0:
        raise EmptyInput("decide needs at least one z-value")
    p0_hat = None
    if null is None:
        est = estimate_null_ecf(sample)
        p0_hat, null = est.p0_hat, GaussianComponent(est.u0_hat, est.sigma0_hat)
    # a single observation gets lfdr 1 without p0
    p0_users = [p for p in procedures if p == "adaptive_bh" or (p == "lfdr" and z.size > 1)]
    tail_p0 = p0_hat is None and bool(p0_users)
    ranks_p = "bh" in procedures or "adaptive_bh" in procedures
    if ranks_p or tail_p0:
        pvalues = two_sided_pvalue(z, null)
    if tail_p0:
        p0_hat = estimate_p0_tail(pvalues)
        if p0_hat == 0.0:  # adaptive BH would be undefined and every lfdr estimate 0
            rule = "adaptive BH" if p0_users[0] == "adaptive_bh" else "lfdr rule"
            raise DegenerateData(f"{rule}: tail p0 estimate is 0, no p-value above 0.5")
    sorted_p = np.sort(pvalues) if ranks_p else None
    tables = {}
    for procedure in dict.fromkeys(procedures):
        if procedure in ("bh", "adaptive_bh"):
            level = alpha if procedure == "bh" else _adaptive_level(alpha, p0_hat)
            tables[procedure] = _bh(pvalues, sorted_p, level)
        elif z.size == 1:
            tables[procedure] = lfdr_stepup([1.0], alpha)
        else:
            lfdr_hat = estimated_lfdr_values(z, p0_hat, null, estimate_marginal_kde(sample))
            tables[procedure] = lfdr_stepup(lfdr_hat, alpha)
    return tables


def confusion(decisions: DecisionTable, truth) -> ConfusionCounts:
    """Cross-tabulate decisions against a 1-D vector of nonnull indicator
    flags: bools, or numbers that are each 0 or 1."""
    truth = _vector(truth, "truth flags", dtype=None)
    if truth.dtype != bool and not np.isin(truth, (0, 1)).all():
        raise ValueError(f"truth flags must be 0 or 1, got {next(v for v in truth.tolist() if v not in (0, 1))!r}")
    truth = truth.astype(bool, copy=False)
    reject = decisions.rejected
    if truth.size != reject.size:
        raise LengthMismatch(f"{truth.size} truth flags for {reject.size} decisions")
    r = int(np.count_nonzero(reject))
    t = int(np.count_nonzero(truth))
    n11 = int(np.count_nonzero(truth & reject))
    return ConfusionCounts(n00=truth.size - r - t + n11, n01=t - n11, n10=r - n11, n11=n11)


def fdp_fnp(c: ConfusionCounts) -> tuple:
    """Per-realization false discovery and false nondiscovery proportions.

    Conventions: fdp = 0 when nothing is rejected, fnp = 0 when everything
    is rejected (matching the conditional definitions of FDR and FNR).
    """
    fdp = c.n10 / c.r if c.r > 0 else 0.0
    fnp = c.n01 / c.s if c.s > 0 else 0.0
    return fdp, fnp
