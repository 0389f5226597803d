"""Optimal mFDR-constrained thresholds and exact mFNR under a known model.

Two families of rejection rules are compared:

* p-value rules reject symmetric tails ``{z : |z - mean|/sd >= q}``; the
  optimal rule takes the largest two-sided cutoff t whose region keeps
  mFDR <= alpha.
* local-fdr rules reject sublevel sets ``{z : lfdr(z) <= lambda}``; the
  optimal rule takes the largest feasible lambda.

mFDR of a region R is (null mass in R)/(total mass in R); mFNR is the
nonnull fraction of the complement.  Because every density involved is a
finite Gaussian mixture, interval masses are computed in closed form from
Gaussian distribution functions.  The tests cross-check these masses
against adaptive quadrature and Monte Carlo.

The p-value rule bisects to 1e-9 above the largest feasible point of a log
grid in t, scanned top down in chunks; a chunk is evaluated only if its
bound (first null mass <= alpha times last total mass) admits it.  The
bisection, not a Newton finish, ends the search because its feasible end
is the rule's result: closing onto the root moves figure mFNRs by 5e-9.

The mFDR of a sublevel set is the mass-weighted mean of lfdr over it, so
the optimal lfdr rule is the adaptive step-up (Sun & Cai 2007) applied to
the known mixture: one scan grid, lfdr and density profile and component
table per rule, grid points sorted by lfdr, the longest prefix whose
cumulative null/total density stays <= alpha, then a safeguarded Newton
finish on lambda over the exact region masses.  Sublevel-set boundaries
are refined the same way, by Newton steps on log lfdr (whose z-derivative
is closed form) kept inside their grid cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .core_model import (
    _LOG_SQRT_2PI,
    GaussianComponent,
    TwoGroupModel,
    _logsumexp,
    gaussian_pdf,
    lfdr,
    marginal_density,
)
from .errors import EmptyRegion, FullRegion, Infeasible

__all__ = [
    "RejectionRegion",
    "OracleRule",
    "SweepRow",
    "region_from_pvalue_threshold",
    "region_from_lfdr_threshold",
    "mfdr_of_region",
    "mfnr_of_region",
    "oracle_pvalue_rule",
    "oracle_lfdr_rule",
    "oracle_sweep",
]

# Interval masses below this are treated as zero rejected mass.
_MASS_FLOOR = 1e-300
# The p-value threshold search scans its grid in chunks of _CHUNK points
# and refines to this absolute tolerance.
_SEARCH_TOL = 1e-9
_CHUNK = 64
# Bracket widths at which the lfdr searches stop (sublevel-set boundaries
# in z, and the lfdr cutoff lambda), and a cap on their steps; bisection
# alone needs ~40 steps to reach either width.
_EDGE_TOL = 1e-13
_LAMBDA_TOL = 1e-12
_MAX_STEPS = 200


@dataclass(frozen=True)
class RejectionRegion:
    """A finite union of closed z-intervals, sorted and pairwise disjoint.

    Interval ends may be ``-inf``/``+inf``.  An empty tuple rejects nothing.
    """

    intervals: tuple  # of (lo, hi)

    def __post_init__(self):
        iv = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", iv)
        prev_hi = -math.inf
        for i, (lo, hi) in enumerate(iv):
            if not lo < hi:
                raise ValueError(f"interval {i} must have lo < hi, got ({lo}, {hi})")
            if i > 0 and lo <= prev_hi:
                raise ValueError("intervals must be sorted and pairwise disjoint")
            prev_hi = hi

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, z: float) -> bool:
        return any(lo <= z <= hi for lo, hi in self.intervals)

    def complement(self) -> "RejectionRegion":
        """Closure of the complement within the whole line."""
        out = []
        prev = -math.inf
        for lo, hi in self.intervals:
            if lo > prev:
                out.append((prev, lo))
            prev = hi
        if prev < math.inf:
            out.append((prev, math.inf))
        return RejectionRegion(tuple(out))


@dataclass(frozen=True)
class OracleRule:
    """An optimal thresholding rule with its region and exact error rates."""

    kind: str  # "pvalue" or "lfdr"
    threshold: float
    region: RejectionRegion
    mfdr: float
    mfnr: float


@dataclass(frozen=True)
class SweepRow:
    """One grid point of an oracle comparison sweep."""

    sweep: float
    mfnr_pvalue: float
    mfnr_lfdr: float
    error: str | None = None


def _components(m: TwoGroupModel) -> np.ndarray:
    """Rows (w, mean, sd, log w, log sd) over the components of positive
    weight, null first, each a (C, 1) column that broadcasts over z."""
    return np.array([(w, c.mean, c.sd, math.log(w), math.log(c.sd))
                     for w, c in m.components if w > 0.0]).T[:, :, None]


def _interval_masses(comps: np.ndarray, lo, hi) -> np.ndarray:
    """w_c * (mass of [lo_i, hi_i] under component c): one row per
    component of ``comps`` (see ``_components``).  Intervals above a
    component's mean are measured from its upper tail, so far-tail masses
    keep full relative precision instead of cancelling in 1 - Phi."""
    w, mean, sd = comps[:3]
    a = (np.asarray(lo, dtype=float) - mean) / sd
    b = (np.asarray(hi, dtype=float) - mean) / sd
    return w * np.where(a > 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))


def _region_masses(comps: np.ndarray, region: RejectionRegion) -> tuple:
    """(null mass, total mass) of ``region``."""
    if region.is_empty:
        return 0.0, 0.0
    lo, hi = zip(*region.intervals)
    per_component = _interval_masses(comps, lo, hi).sum(axis=1)
    return float(per_component[0]), float(per_component.sum())


def mfdr_of_region(m: TwoGroupModel, r: RejectionRegion) -> float:
    """Marginal FDR of region ``r``: E(N10)/E(R) = null mass / total mass."""
    if r.is_empty:
        raise EmptyRegion("mFDR is undefined for an empty rejection region")
    null, total = _region_masses(_components(m), r)
    if total < _MASS_FLOOR:
        raise EmptyRegion("rejection region carries no probability mass")
    return null / total


def mfnr_of_region(m: TwoGroupModel, r: RejectionRegion) -> float:
    """Marginal FNR of region ``r``: nonnull fraction of the acceptance set."""
    comp = r.complement()
    if comp.is_empty:
        raise FullRegion("mFNR is undefined when everything is rejected")
    null, total = _region_masses(_components(m), comp)
    if total < _MASS_FLOOR:
        raise FullRegion("acceptance set carries no probability mass")
    nonnull = total - null
    return max(0.0, nonnull) / total


def region_from_pvalue_threshold(null: GaussianComponent, t: float) -> RejectionRegion:
    """Two symmetric tails {z : |z - mean|/sd >= Phi^-1(1 - t/2)}."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"p-value threshold must be in (0, 1), got {t}")
    q = -float(ndtri(t / 2.0))  # Phi^-1(1 - t/2)
    return RejectionRegion(
        (
            (-math.inf, null.mean - q * null.sd),
            (null.mean + q * null.sd, math.inf),
        )
    )


def _scan_grid(m: TwoGroupModel) -> np.ndarray:
    """Grid over all component means +- 12 max sd, step min(0.01, min sd/10)."""
    means = [c.mean for _, c in m.components]
    sds = [c.sd for _, c in m.components]
    lo, hi = min(means) - 12.0 * max(sds), max(means) + 12.0 * max(sds)
    step = min(0.01, min(sds) / 10.0)
    return np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)


def _bracketed_newton(fun, lo, hi, lo_low, tol):
    """Shrink root brackets [lo, hi] of ``fun`` to width <= tol, elementwise.

    ``fun(x)`` returns (g, dg/dx).  g <= 0 at ``lo`` where ``lo_low`` is
    true, at ``hi`` elsewhere, and g > 0 at the other end.  A Newton step is
    taken when it is at most half the step before last (as in Numerical
    Recipes' rtsafe) and overshoots the bracket by at most half its own
    length, otherwise the bracket is bisected.  Steps shorter than tol/2
    are carried tol/2 further and every point is kept tol/4 inside the
    bracket, so a root on a bracket end (a grid point whose lfdr equals the
    cutoff) closes the bracket as fast as an interior one.  Returns the
    final (lo, hi).
    """
    x = 0.5 * (lo + hi)
    prev = older = hi - lo
    for _ in range(_MAX_STEPS):
        g, dg = fun(x)
        to_lo = (g <= 0.0) == lo_low
        lo = np.where(to_lo, x, lo)
        hi = np.where(to_lo, hi, x)
        if np.all(hi - lo <= tol):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.divide(-g, dg)
        newton = x + step
        reach = 0.5 * np.abs(step)
        ok = (lo - reach <= newton) & (newton <= hi + reach) & (np.abs(step) <= 0.5 * np.abs(older))
        newton += np.where(np.abs(step) < 0.5 * tol, np.copysign(0.5 * tol, step), 0.0)
        newton = np.clip(newton, lo + 0.25 * tol, hi - 0.25 * tol)
        nxt = np.where(ok, newton, 0.5 * (lo + hi))
        older, prev, x = prev, nxt - x, nxt
    return lo, hi


def _log_lfdr_slope(comps: np.ndarray, z):
    """log lfdr(z) and its derivative in z for the mixture ``comps``.

    Computed as -log(1 + odds) with odds = sum_c w_c f_c(z) / (p0 f0(z))
    over the nonnull components, which keeps relative precision where lfdr
    is near 1.  With posterior weights pi_c(z) = w_c f_c(z)/f(z) and scores
    s_c(z) = (u_c - z)/s_c^2, d log lfdr/dz = -sum_c pi_c(z) (s_c - s_null).
    """
    _, mean, sd, log_w, log_sd = comps
    z = np.asarray(z, dtype=float)
    u = (z - mean) / sd
    logs = log_w + (-0.5 * u * u - log_sd - _LOG_SQRT_2PI)
    log_odds = logs[1:] - logs[0]  # per nonnull component
    log_lfdr = -np.logaddexp(0.0, _logsumexp(log_odds))
    scores = (mean - z) / (sd * sd)
    posterior = np.exp(log_odds + log_lfdr)
    return log_lfdr, -(posterior * (scores[1:] - scores[0])).sum(axis=0)


def _sublevel_region(comps: np.ndarray, zs: np.ndarray, profile: np.ndarray,
                     lam: float) -> RejectionRegion:
    """{z : lfdr(z) <= lam} from the lfdr ``profile`` on the grid ``zs``.

    Runs of grid points inside the set become intervals; each boundary is
    refined inside its grid cell to within _EDGE_TOL, and a run reaching a
    grid end extends to infinity.
    """
    inside = profile <= lam
    if not inside.any():
        return RejectionRegion(())
    flips = np.diff(inside.astype(np.int8))
    entries = np.flatnonzero(flips == 1)  # boundary in (zs[i], zs[i + 1]), zs[i] outside
    exits = np.flatnonzero(flips == -1)  # boundary in (zs[i], zs[i + 1]), zs[i] inside
    cells = np.concatenate([entries, exits])
    log_lam = math.log(lam)

    def level(z):
        value, slope = _log_lfdr_slope(comps, z)
        return value - log_lam, slope

    lo, hi = _bracketed_newton(level, zs[cells], zs[cells + 1],
                               np.arange(cells.size) >= entries.size, _EDGE_TOL)
    edges = (0.5 * (lo + hi)).tolist()
    lefts = [-math.inf] * bool(inside[0]) + edges[: entries.size]
    rights = edges[entries.size:] + [math.inf] * bool(inside[-1])
    return RejectionRegion(tuple(zip(lefts, rights)))


def region_from_lfdr_threshold(m: TwoGroupModel, lam: float) -> RejectionRegion:
    """Sublevel set {z : lfdr(m, z) <= lam} as a union of closed intervals.

    Boundaries are located by a sign-change scan on a grid covering all
    component means plus 12 sd, then refined inside their grid cell by
    safeguarded Newton steps on log lfdr to |dz| <= 1e-13.  Grid ends whose
    lfdr is already below the threshold extend to infinity.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lfdr threshold must be in (0, 1), got {lam}")
    zs = _scan_grid(m)
    return _sublevel_region(_components(m), zs, lfdr(m, zs), lam)


def oracle_pvalue_rule(m: TwoGroupModel, alpha: float) -> OracleRule:
    """Largest two-sided p-value cutoff t with mFDR(region(t)) <= alpha.

    mFDR need not be monotone in t for multimodal alternatives, so the
    search takes the largest feasible point of a 10^4-point log-spaced grid
    and bisects towards the next grid point to 1e-9.  Null mass N(t) and
    total mass T(t) both grow with t, so a chunk [t_a, t_b] of 64 grid
    points holds a feasible point only if N(t_a) <= alpha * T(t_b); chunks
    are checked top down on that bound, and only admitted ones point by
    point.  All steps share the tail masses of ``mfdr_of_region``.  The
    result is the bisection's feasible end, not the root: a Newton finish
    onto the root would move the figures' mFNR by up to 5e-9.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    comps = _components(m)

    def tail_masses(ts):
        # as mfdr_of_region computes them for region_from_pvalue_threshold
        q = -ndtri(np.asarray(ts) / 2.0)
        per_component = (_interval_masses(comps, -math.inf, m.null.mean - q * m.null.sd)
                         + _interval_masses(comps, m.null.mean + q * m.null.sd, math.inf))
        return per_component[0], per_component.sum(axis=0)

    def feasible(ts):
        null, total = tail_masses(ts)
        return null / total <= alpha

    ts = np.exp(np.linspace(math.log(1e-10), math.log(1.0 - 1e-12), 10_000))
    ends = np.append(np.arange(0, ts.size - 1, _CHUNK), ts.size - 1)
    null, total = tail_masses(ts[ends])
    for j in np.flatnonzero(null[:-1] <= alpha * total[1:])[::-1]:
        hits = np.flatnonzero(feasible(ts[ends[j]: ends[j + 1] + 1]))
        if hits.size:
            i = int(ends[j] + hits[-1])
            break
    else:
        raise Infeasible(
            f"no p-value threshold attains mFDR <= {alpha}; "
            f"tail mFDR is {null[0] / total[0]:.6g} at t = {ts[0]:.3g}"
        )
    t_star = ts[i]
    if i < ts.size - 1:
        b = ts[i + 1]
        while b - t_star > _SEARCH_TOL:
            c = 0.5 * (t_star + b)
            t_star, b = (c, b) if feasible(c) else (t_star, c)
    region = region_from_pvalue_threshold(m.null, t_star)
    return OracleRule(
        kind="pvalue",
        threshold=float(t_star),
        region=region,
        mfdr=mfdr_of_region(m, region),
        mfnr=mfnr_of_region(m, region),
    )


def _lfdr_excess(m: TwoGroupModel, comps: np.ndarray, region: RejectionRegion,
                 lam: float, alpha: float) -> tuple:
    """mFDR(region) - alpha and its derivative in lam, for region = R(lam).

    A region without mass counts as feasible.  Moving the cutoff moves each
    finite boundary b by dz/dlam = 1/|lfdr'(b)| and adds mass f(b) there, so
    d mFDR/dlam = sum_b f(b)/|lfdr'(b)| * (lam - mFDR)/total.
    """
    null, total = _region_masses(comps, region)
    if total < _MASS_FLOOR:
        return -alpha, 0.0
    rate = null / total  # as mfdr_of_region computes it
    ends = np.array([e for iv in region.intervals for e in iv if math.isfinite(e)])
    _, slope = _log_lfdr_slope(comps, ends)
    density = m.p0 * gaussian_pdf(ends, m.null) / lam
    growth = float(np.sum(density / (lam * np.abs(slope))))
    return rate - alpha, growth * (lam - rate) / total


def _lfdr_cutoff(excess, profile: np.ndarray, density: np.ndarray, alpha: float,
                 lam_hi: float) -> float:
    """Largest lambda < lam_hi with ``excess(lambda)[0] <= 0``, given that
    lam_hi itself is infeasible; within _LAMBDA_TOL below the root, and a
    lambda that ``excess`` was evaluated at (or 0)."""
    # step-up over the grid cells ranked by lfdr, weighted by the midpoint
    # rule: null weight lfdr * f and total weight f at each grid point
    order = np.argsort(profile, kind="stable")
    f = density[order]
    passing = np.flatnonzero(np.cumsum(profile[order] * f) <= alpha * np.cumsum(f))
    k = int(passing[-1]) + 1 if passing.size else 0

    # the prefix brackets lambda* between neighbouring ranked lfdr values;
    # widen by doubling strides if a sign check fails (cells are not exact
    # sublevel sets, and their weights are not exact masses)
    cuts = np.append(np.minimum(profile[order], lam_hi), lam_hi)
    lo, stride = k - 1, 1
    while lo >= 0 and excess(cuts[lo])[0] > 0.0:
        lo, stride = lo - stride, 2 * stride
    hi, stride = k, 1
    while hi < profile.size and excess(cuts[hi])[0] <= 0.0:
        hi, stride = min(hi + stride, profile.size), 2 * stride
    lam_lo, _ = _bracketed_newton(excess, cuts[lo] if lo >= 0 else 0.0, cuts[hi], True, _LAMBDA_TOL)
    return float(lam_lo)


def oracle_lfdr_rule(m: TwoGroupModel, alpha: float) -> OracleRule:
    """Largest lfdr cutoff lambda with mFDR(region(lambda)) <= alpha.

    mFDR is nondecreasing in lambda (it averages lfdr over a growing
    sublevel set), and equals the mass-weighted mean of lfdr there, so the
    rule is a population step-up: lfdr and the density f are profiled once
    on the scan grid, grid points are ranked by lfdr, and the longest prefix
    whose cumulative lfdr * f stays <= alpha times its cumulative f brackets
    lambda between two ranked values.  A safeguarded Newton search then
    closes that bracket to 1e-12 on the exact sublevel-set masses and
    returns its feasible end with the region evaluated there, so the
    reported mFDR is <= alpha exactly.  Empty regions count as feasible; if
    even lambda = 1 - 1e-12 is feasible it is used.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    comps = _components(m)
    zs = _scan_grid(m)
    profile = lfdr(m, zs)
    regions = {}

    def excess(lam):
        lam = float(lam)
        regions[lam] = _sublevel_region(comps, zs, profile, lam)
        return _lfdr_excess(m, comps, regions[lam], lam, alpha)

    lam_star = 1.0 - 1e-12
    if excess(lam_star)[0] > 0.0:
        lam_star = _lfdr_cutoff(excess, profile, marginal_density(m, zs), alpha, lam_star)
    region = regions.get(lam_star, RejectionRegion(()))
    if region.is_empty:
        raise Infeasible(
            f"even the smallest nonempty lfdr region exceeds mFDR {alpha} "
            f"(minimum lfdr exceeds every feasible cutoff)"
        )
    try:
        rate = mfdr_of_region(m, region)
    except EmptyRegion:
        raise Infeasible(f"no lfdr region with positive mass attains mFDR <= {alpha}")
    return OracleRule(
        kind="lfdr",
        threshold=lam_star,
        region=region,
        mfdr=rate,
        mfnr=mfnr_of_region(m, region),
    )


def oracle_sweep(
    model_for: Callable[[float], TwoGroupModel],
    sweep: Sequence[float],
    alpha,
) -> list:
    """Compare both oracle rules across a parameter grid.

    ``alpha`` is either a fixed level or a callable mapping the sweep value
    to a level (used when the sweep is over alpha itself).  Infeasible grid
    points, and points whose feasible region is the whole line (mFNR
    undefined, ``FullRegion``), are flagged in the row, not dropped.
    """
    if len(sweep) == 0:
        raise ValueError("sweep grid must be nonempty")
    alpha_for = alpha if callable(alpha) else (lambda _: alpha)
    rows = []
    for value in sweep:
        model = model_for(value)
        level = alpha_for(value)
        try:
            p_rule = oracle_pvalue_rule(model, level)
            l_rule = oracle_lfdr_rule(model, level)
        except (Infeasible, FullRegion) as exc:
            rows.append(SweepRow(float(value), math.nan, math.nan, error=str(exc)))
            continue
        rows.append(SweepRow(float(value), p_rule.mfnr, l_rule.mfnr))
    return rows
