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
Gaussian distribution functions (``_interval_mass``).  A region holds a few
intervals, so its masses are taken on Python floats with scalar ``ndtr``.
The p-value rule's two tails are written out in closed form, one ``ndtr``
per tail and component: on arrays for its scan over chunks of its t-grid
(``_tail_masses``, on a slice of the grid's quantiles Phi^-1(1 - t/2),
computed once), and on Python floats for its bisection
(``_tail_masses_at``).  All paths add their terms left to right, over
intervals and then over components (``_sum``), at any number of cutoffs,
so they agree bit for bit.  The tests cross-check these masses against
adaptive quadrature and Monte Carlo.

The p-value rule bisects to 1e-9 above the largest feasible point of a log
grid in t, scanned top down in chunks; a chunk is evaluated only if its
bound (first null mass <= alpha times last total mass) admits it.  The
bisection runs in the oracle's one root search, ``_bracketed_newton``, fed
a zero slope; it, not a Newton finish, ends the search because its
feasible end is the rule's result: closing onto the root moves figure
mFNRs by 5e-9.

Work that depends only on the model is cached, read-only, by
``functools.lru_cache(maxsize=4)``, as ``estimation`` caches its tables:
the scan grid (``_scan_grid``) keyed by the components' means and sds, and
the lfdr profile with its ``_log_lfdr_slope`` function (``_lfdr_setup``)
and the p-value scan's chunk-end masses (``_pvalue_ends``) keyed by the
model.  Keys are the arguments' values, so whatever a cached function
reads is part of its key, and models that compare equal share an entry:
they can differ only in the sign of a zero mean, which changes no rule.
A sweep over alpha reuses all three, a sweep over weights reuses the
grid, and results are bit for bit those of a first call.

The mFDR of a sublevel set is the mass-weighted mean of lfdr over it, so
it is nondecreasing in lambda (Sun & Cai 2007), and the optimal lfdr rule
is one safeguarded Newton search for lambda in [0, 1 - 1e-12] on the exact
region masses, over one scan grid and one lfdr profile per model.  Each
sublevel-set boundary is refined the same way inside its grid cell, by
Newton steps on log lfdr (whose z-derivative is closed form), evaluated
by one function per model with the components' constants bound once.
Every search stops once its bracket is narrower than its tolerance or
its ends are adjacent floats.  The lambda search keeps a record of each
cutoff it tries: the region's intervals as tuples and its null and total
masses, from which the rule wraps one ``RejectionRegion`` and takes its
mFDR.  The search's slope d mFDR/dlambda reads each boundary's density
and lfdr slope off the last point of that boundary's own edge search, so
no boundary is evaluated again.  Both searches run on Python floats:
NumPy's per-call cost outweighed the arithmetic on a few points.  The scan
grid is laid in units of the widest sd: it steps max sd/100 on windows of
12 max sd around the component means, and sd/10 within 12 sd of each
component narrower than max sd/10, so its size does not grow with the
model's scale (a nonnull of sd 1000 beside N(0, 1) lays 2641 points).
Masses, densities, slopes and the scan grid all read the component
table ``core_model._components``, built with the model; a component of
weight 0 is in none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .core_model import (
    _LOG_SQRT_2PI,
    GaussianComponent,
    TwoGroupModel,
    _components,
    lfdr,
)
from .errors import EmptyRegion, FullRegion, Infeasible, InvalidModel
from .estimation import _frozen
from .procedures import _check_alpha

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
# The p-value threshold search scans a log grid in t, built once and kept
# read-only, in chunks of _CHUNK points ending at _T_CHUNK_ENDS, and
# refines to this absolute tolerance.
_SEARCH_TOL = 1e-9
_CHUNK = 64
_T_GRID = _frozen(np.exp(np.linspace(math.log(1e-10), math.log(1.0 - 1e-12), 10_000)))
_T_CHUNK_ENDS = _frozen(np.append(np.arange(0, _T_GRID.size - 1, _CHUNK), _T_GRID.size - 1))
_T_QUANTILES = _frozen(-ndtri(_T_GRID / 2.0))  # Phi^-1(1 - t/2), the tails' cut in null sds
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


def _interval_mass(w: float, mean: float, sd: float, lo: float, hi: float):
    """w * (mass of [lo, hi] under N(mean, sd^2)), on Python floats.

    This is the oracle's one mass formula; ``_tail_masses`` writes it out
    for intervals with one infinite end, on arrays, bit for bit, since
    ``ndtr`` on a float runs the same code as on an array and ndtr(-inf)
    and ndtr(inf) are exactly 0 and 1.  An interval above the mean (a > 0)
    is measured from the upper tail, so far-tail masses keep full relative
    precision instead of cancelling in 1 - Phi.
    """
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    return w * (ndtr(-a) - ndtr(-b) if a > 0.0 else ndtr(b) - ndtr(a))


def _sum(values):
    """``values``, floats or arrays alike, added left to right: the one
    order in which the oracle adds masses over intervals and over
    components, so that scalar sums equal the scan's array sums bit for
    bit at any number of components and cutoffs."""
    total = -0.0
    for value in values:
        total += value
    return total


def _component_rows(m: TwoGroupModel) -> list:
    """The component table ``_components(m)`` as five lists (w, mean, sd,
    log w, log sd), for the oracle's scalar arithmetic."""
    return _components(m)[:, :, 0].tolist()


def _region_masses(rows: list, intervals) -> tuple:
    """(null mass, total mass) of a union of ``intervals`` on Python
    floats, for the component ``rows`` of ``_component_rows``.  Each
    component's masses are summed over the intervals, then over the
    components, both left to right (``_sum``)."""
    if not intervals:
        return 0.0, 0.0
    per_component = [float(_sum([_interval_mass(w, mean, sd, lo, hi) for lo, hi in intervals]))
                     for w, mean, sd in zip(*rows[:3])]
    return per_component[0], _sum(per_component)


def mfdr_of_region(m: TwoGroupModel, r: RejectionRegion) -> float:
    """Marginal FDR of region ``r``: E(N10)/E(R) = null mass / total mass."""
    if r.is_empty:
        raise EmptyRegion("mFDR is undefined for an empty rejection region")
    null, total = _region_masses(_component_rows(m), r.intervals)
    if total < _MASS_FLOOR:
        raise EmptyRegion("rejection region carries no probability mass")
    return null / total


def mfnr_of_region(m: TwoGroupModel, r: RejectionRegion) -> float:
    """Marginal FNR of region ``r``: nonnull fraction of the acceptance set."""
    comp = r.complement()
    if comp.is_empty:
        raise FullRegion("mFNR is undefined when everything is rejected")
    null, total = _region_masses(_component_rows(m), comp.intervals)
    if total < _MASS_FLOOR:
        raise FullRegion("acceptance set carries no probability mass")
    nonnull = total - null
    return max(0.0, nonnull) / total


def _pvalue_tails(null: GaussianComponent, t: float) -> tuple:
    """The intervals of {z : |z - mean|/sd >= Phi^-1(1 - t/2)}."""
    q = -float(ndtri(t / 2.0))  # Phi^-1(1 - t/2)
    return (-math.inf, null.mean - q * null.sd), (null.mean + q * null.sd, math.inf)


def region_from_pvalue_threshold(null: GaussianComponent, t: float) -> RejectionRegion:
    """Two symmetric tails {z : |z - mean|/sd >= Phi^-1(1 - t/2)}."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"p-value threshold must be in (0, 1), got {t}")
    return RejectionRegion(_pvalue_tails(null, t))


def _tail_masses(comps: np.ndarray, null: GaussianComponent, q: np.ndarray) -> tuple:
    """Arrays of (null mass, total mass) of the p-value tails at each
    quantile q = Phi^-1(1 - t/2) in ``q`` (a slice of ``_T_QUANTILES``),
    for the component table ``comps``: ``_region_masses`` of
    ``_pvalue_tails(null, t)`` at each t, bit for bit, at any number of
    cutoffs.

    Each tail is ``_interval_mass`` with one infinite end, in closed form:
    the lower tail (-inf, b] has mass w*ndtr(b), the upper tail [a, inf)
    w*ndtr(-a) if a > 0 and w*(1 - ndtr(a)) otherwise, and ndtr(-|a|)
    serves both cases."""
    w, mean, sd = comps[:3]
    a = (null.mean + q * null.sd - mean) / sd
    upper = ndtr(-np.abs(a))
    per_component = (w * ndtr((null.mean - q * null.sd - mean) / sd)
                     + w * np.where(a > 0.0, upper, 1.0 - upper))
    return per_component[0], _sum(per_component)


def _tail_masses_at(rows: list, null: GaussianComponent, t: float) -> tuple:
    """``_tail_masses`` at the one cutoff ``t``, on Python floats, for the
    component ``rows`` of ``_component_rows``: the same closed form, so the
    same bits as ``_region_masses`` of ``_pvalue_tails(null, t)``."""
    q = -float(ndtri(t / 2.0))
    lo, hi = null.mean - q * null.sd, null.mean + q * null.sd
    per_component = []
    for w, mean, sd in zip(*rows[:3]):
        a = (hi - mean) / sd
        upper = ndtr(-abs(a))
        per_component.append(float(w * ndtr((lo - mean) / sd) + w * (upper if a > 0.0 else 1.0 - upper)))
    return per_component[0], _sum(per_component)


@lru_cache(maxsize=4)
def _scan_grid(means: tuple, sds: tuple) -> np.ndarray:
    """The sorted lfdr scan grid of the components of positive weight with
    these ``means`` and ``sds`` (rows 1 and 2 of ``_component_rows``, as
    tuples), read-only.

    The grid covers a window of +- 12 max sd around each component's mean
    in steps of about max sd/100.  Overlapping windows merge into one span,
    laid out by one ``np.linspace``; between spans lies one scan cell, in
    which the edge search finds any boundary, so the grid's size does not
    grow with the distance between the means.  Within +- 12 sd of each
    component with sd < max sd/10 the points give way to steps of sd/10,
    so a sublevel set as narrow as that component still holds grid
    points; a model without narrow components gets the plain grid.  Both
    steps scale with the sds, so a model rescaled by any factor lays as
    many points, at most 2643 per component.
    Raises InvalidModel if a window's step spans under 2^12 ulps of the
    window's farthest point, as the KDE refuses its spacing: such a grid
    cannot be represented.  That is the step max sd/100 at |mean| + 12 max
    sd, which at a widest sd of 1 refuses every mean from 2^34 - 12
    (~1.7e10) on, and the step sd/10 of a narrow component at |mean| + 12
    sd.
    """
    step, reach, spans = max(sds) / 100.0, 12.0 * max(sds), []
    narrow = [(mean, sd) for mean, sd in zip(means, sds) if sd < 10.0 * step]
    for mean, sd in zip(means, sds):
        for name, width, half in [("", step, reach)] + [("sd/10 = ", sd / 10.0, 12.0 * sd)] * (sd < 10.0 * step):
            magnitude = abs(mean) + half
            if not width > 2**12 * math.ulp(magnitude):
                raise InvalidModel(f"oracle scan grid: step {name}{width:.3g} of the component "
                                   f"N({mean:.6g}, {sd:.3g}^2) cannot be represented at |z| up to {magnitude:.6g}")
    for mean in sorted(means):
        if spans and mean - reach <= spans[-1][1]:
            spans[-1][1] = mean + reach
        else:
            spans.append([mean - reach, mean + reach])
    zs = np.concatenate([np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1) for lo, hi in spans])
    fine = [np.linspace(mean - 12.0 * sd, mean + 12.0 * sd, 241) for mean, sd in narrow]
    if not fine:
        return _frozen(zs)
    outside = np.all([(zs < f[0]) | (zs > f[-1]) for f in fine], axis=0)
    return _frozen(np.sort(np.concatenate([zs[outside]] + fine)))


def _bracketed_newton(fun, lo: float, hi: float, lo_low: bool, tol: float) -> tuple:
    """Shrink the root bracket [lo, hi] of ``fun`` until its width is <= tol
    or its ends are adjacent floats, whichever comes first: the oracle's one
    root search, for region edges, lambda and the p-value cutoff alike.

    ``fun(x)`` returns floats (g, dg/dx); g <= 0 at ``lo`` if ``lo_low``, else
    at ``hi``, and g > 0 at the other end.  A Newton step is taken when it
    is at most half the step before last (as in Numerical Recipes' rtsafe)
    and overshoots the bracket by at most half its own length; otherwise,
    or if dg is zero or not finite, the bracket is bisected, so a ``fun``
    that returns dg = 0 bisects at every step.  With the nudge max(tol/4,
    ulp(x)) at the current point x, Newton steps shorter than two nudges
    are carried two nudges further and every point is kept one nudge inside
    the bracket, so a root on a bracket end (a grid point whose lfdr equals
    the cutoff), or a point that lands on the root, closes as fast as an
    interior one: no nudge is smaller than one float step at x, so the
    next point is never the one just taken.  The adjacent-float stop ends
    searches where tol is below one ulp, as at |z| above ~512 for the
    edges; _MAX_STEPS caps the rest.  Returns (lo, hi).
    """
    x = 0.5 * (lo + hi)
    prev = older = hi - lo
    for _ in range(_MAX_STEPS):
        g, dg = fun(x)
        lo, hi = (x, hi) if (g <= 0.0) == lo_low else (lo, x)
        if hi - lo <= tol or hi <= math.nextafter(lo, math.inf):
            break
        step = -g / dg if 0.0 < abs(dg) < math.inf else math.nan
        newton, nudge = x + step, max(0.25 * tol, math.ulp(x))
        if lo - 0.5 * abs(step) <= newton <= hi + 0.5 * abs(step) and abs(step) <= 0.5 * abs(older):
            newton += math.copysign(2.0 * nudge, step) if abs(step) < 2.0 * nudge else 0.0
            nxt = min(max(newton, lo + nudge), hi - nudge)
        else:
            nxt = 0.5 * (lo + hi)
        older, prev, x = prev, nxt - x, nxt
    return lo, hi


@lru_cache(maxsize=4)
def _lfdr_setup(m: TwoGroupModel) -> tuple:
    """(``_log_lfdr_slope`` of the model's rows, its scan grid, lfdr on that
    grid), the work of an lfdr region that depends only on the model,
    read-only."""
    rows = _component_rows(m)
    zs = _scan_grid(tuple(rows[1]), tuple(rows[2]))
    return _log_lfdr_slope(rows), zs, _frozen(lfdr(m, zs))


@lru_cache(maxsize=4)
def _pvalue_ends(m: TwoGroupModel) -> tuple:
    """(null mass, total mass) of the p-value tails at each t of
    ``_T_CHUNK_ENDS``: the bounds of ``oracle_pvalue_rule``'s chunk scan,
    read-only."""
    return tuple(map(_frozen, _tail_masses(_components(m), m.null, _T_QUANTILES[_T_CHUNK_ENDS])))


def _log_lfdr_slope(rows: list) -> Callable:
    """The function z -> (log lfdr(z), its derivative in z, log(p0 f0(z)))
    on one float ``z``, for the component table as lists, ``rows =
    _component_rows(m)``, with each component's constants bound once.

    Computed as -log(1 + odds) with odds = sum_c w_c f_c(z) / (p0 f0(z))
    over the nonnull components, which keeps relative precision where lfdr
    is near 1.  With posterior weights pi_c(z) = w_c f_c(z)/f(z) and scores
    s_c(z) = (u_c - z)/s_c^2, d log lfdr/dz = -sum_c pi_c(z) (s_c - s_null).
    """
    (_, null_mean, null_sd, null_log_w, null_log_sd), *nonnull = zip(*rows)
    null_var = null_sd * null_sd
    nonnull = [(mean, sd, log_w, log_sd, sd * sd) for _, mean, sd, log_w, log_sd in nonnull]

    def at(z):
        u = (z - null_mean) / null_sd  # as core_model._log_terms
        log_null = null_log_w + (-0.5 * u * u - null_log_sd - _LOG_SQRT_2PI)
        null_score = (null_mean - z) / null_var
        log_odds, scores = [], []  # per nonnull component
        for mean, sd, log_w, log_sd, var in nonnull:
            u = (z - mean) / sd
            log_odds.append(log_w + (-0.5 * u * u - log_sd - _LOG_SQRT_2PI) - log_null)
            scores.append((mean - z) / var - null_score)
        peak = max(log_odds)
        log_sum = peak + math.log(math.fsum([math.exp(log - peak) for log in log_odds]))
        log_lfdr = -(max(log_sum, 0.0) + math.log1p(math.exp(-abs(log_sum))))  # -logaddexp(0, log_sum)
        slope = -math.fsum([math.exp(log + log_lfdr) * score for log, score in zip(log_odds, scores)])
        return log_lfdr, slope, log_null

    return at


def _sublevel_region(at: Callable, zs: np.ndarray, profile: np.ndarray, lam: float) -> tuple:
    """{z : lfdr(z) <= lam} from the lfdr ``profile`` on the grid ``zs``,
    with ``at = _log_lfdr_slope(rows)``.

    Runs of grid points inside the set become intervals; each boundary is
    refined inside its grid cell to within _EDGE_TOL, and a run reaching a
    grid end extends to infinity.  Returns the region's intervals as a
    tuple of (lo, hi) and, for each finite boundary, (log(p0 f0),
    d log lfdr/dz) at the last point its search evaluated, for
    ``_lfdr_excess``.
    """
    inside = profile <= lam
    cells = np.flatnonzero(inside[1:] != inside[:-1])  # boundary in (zs[i], zs[i + 1])
    log_lam = math.log(lam)
    last = None

    def level(z):
        nonlocal last
        last = at(z)
        return last[0] - log_lam, last[1]

    ends, edge_terms = [-math.inf] * bool(inside[0]), []
    for a, b, exits in zip(zs[cells].tolist(), zs[cells + 1].tolist(), inside[cells].tolist()):
        lo, hi = _bracketed_newton(level, a, b, exits, _EDGE_TOL)  # exits: g <= 0 at a
        ends.append(0.5 * (lo + hi))
        edge_terms.append((last[2], last[1]))
    ends += [math.inf] * bool(inside[-1])
    return tuple(zip(ends[::2], ends[1::2])), edge_terms


def region_from_lfdr_threshold(m: TwoGroupModel, lam: float) -> RejectionRegion:
    """Sublevel set {z : lfdr(m, z) <= lam} as a union of closed intervals.

    Boundaries are located by a sign-change scan on the grid of
    ``_scan_grid`` (windows of 12 max sd around the component means, finer
    near narrow components), then refined inside their grid cell by
    safeguarded Newton steps on log lfdr (``_bracketed_newton``) until
    |dz| <= 1e-13 or the bracket's ends are adjacent floats.  Grid ends
    whose lfdr is already below the threshold extend to infinity.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lfdr threshold must be in (0, 1), got {lam}")
    intervals, _ = _sublevel_region(*_lfdr_setup(m), lam)
    return RejectionRegion(intervals)


def oracle_pvalue_rule(m: TwoGroupModel, alpha: float) -> OracleRule:
    """Largest two-sided p-value cutoff t with mFDR(region(t)) <= alpha.

    mFDR need not be monotone in t for multimodal alternatives, so the
    search takes the largest feasible point of a 10^4-point log-spaced grid
    and bisects towards the next grid point to 1e-9.  Null mass N(t) and
    total mass T(t) both grow with t, so a chunk [t_a, t_b] of 64 grid
    points holds a feasible point only if N(t_a) <= alpha * T(t_b); chunks
    are checked top down on that bound, and only admitted ones point by
    point.  All steps share the tail masses of ``mfdr_of_region``, in
    closed form: the grid chunks through ``_tail_masses``, with the
    chunk-end masses cached per model (``_pvalue_ends``), and the bisection through
    ``_tail_masses_at`` on Python floats.
    The bisection is ``_bracketed_newton`` on mFDR - alpha with a zero
    slope, which bisects at every step, so it ends at width 1e-9 or at
    adjacent floats like every other search of the oracle.  The result is
    the bisection's feasible end, not the root: a Newton finish onto the
    root would move the figures' mFNR by up to 5e-9.
    """
    _check_alpha(alpha)
    comps = _components(m)
    rows = _component_rows(m)

    def excess(t):  # null/total - alpha <= 0 exactly when null/total <= alpha
        null, total = _tail_masses_at(rows, m.null, t)
        return null / total - alpha, 0.0

    ts, ends = _T_GRID, _T_CHUNK_ENDS
    null, total = _pvalue_ends(m)
    for j in np.flatnonzero(null[:-1] <= alpha * total[1:])[::-1]:
        chunk_null, chunk_total = _tail_masses(comps, m.null, _T_QUANTILES[ends[j]: ends[j + 1] + 1])
        hits = np.flatnonzero(chunk_null / chunk_total <= alpha)
        if hits.size:
            i = int(ends[j] + hits[-1])
            break
    else:
        raise Infeasible(
            f"no p-value threshold attains mFDR <= {alpha}; "
            f"tail mFDR is {null[0] / total[0]:.6g} at t = {ts[0]:.3g}"
        )
    t_star = float(ts[i])
    if i < ts.size - 1 and float(ts[i + 1]) - t_star > _SEARCH_TOL:
        t_star = _bracketed_newton(excess, t_star, float(ts[i + 1]), True, _SEARCH_TOL)[0]
    region = region_from_pvalue_threshold(m.null, t_star)
    return OracleRule(
        kind="pvalue",
        threshold=t_star,
        region=region,
        mfdr=mfdr_of_region(m, region),
        mfnr=mfnr_of_region(m, region),
    )


def _lfdr_excess(null: float, total: float, edge_terms: list, lam: float, alpha: float) -> tuple:
    """mFDR(R(lam)) - alpha and its derivative in lam, from the ``null`` and
    ``total`` masses of the region R(lam) and the ``edge_terms`` that
    ``_sublevel_region`` returned with it.

    A region without mass counts as feasible.  Moving the cutoff moves each
    finite boundary b by dz/dlam = 1/|lfdr'(b)| and adds mass f(b) there, so
    d mFDR/dlam = sum_b f(b)/|lfdr'(b)| * (lam - mFDR)/total.  Since lfdr(b)
    = lam, f(b) = p0 f0(b)/lam and lfdr'(b) = lam * d log lfdr/dz, both
    taken from the point where b's edge search ended.  A boundary whose
    slope there is exactly 0 adds 0: far out the slope underflows, and in
    every case measured p0 f0(b) had underflowed with it.  The derivative
    only proposes Newton steps; ``_bracketed_newton``'s safeguards still
    decide each one.
    """
    if total < _MASS_FLOOR:
        return -alpha, 0.0
    rate = null / total  # as mfdr_of_region computes it
    growth = math.fsum(math.exp(log_null) / lam / (lam * abs(slope)) if slope else 0.0
                       for log_null, slope in edge_terms)
    return rate - alpha, growth * (lam - rate) / total


def oracle_lfdr_rule(m: TwoGroupModel, alpha: float) -> OracleRule:
    """Largest lfdr cutoff lambda with mFDR(region(lambda)) <= alpha.

    mFDR is nondecreasing in lambda (it averages lfdr over a growing
    sublevel set), and lambda = 0 gives the empty region, which counts as
    feasible.  So lambda = 1 - 1e-12 is used if it is feasible; otherwise
    [0, 1 - 1e-12] brackets the cutoff, and a safeguarded Newton search on
    the exact sublevel-set masses, with lfdr profiled once per model on the
    scan grid (``_lfdr_setup``), closes it to 1e-12.  The rule returns the
    search's feasible end with the region and masses recorded there, so the
    reported mFDR is <= alpha exactly and equals ``mfdr_of_region`` of the
    region.
    """
    _check_alpha(alpha)
    rows = _component_rows(m)
    at, zs, profile = _lfdr_setup(m)
    records = {}  # lam -> (intervals, null mass, total mass)

    def excess(lam):
        intervals, edge_terms = _sublevel_region(at, zs, profile, lam)
        null, total = _region_masses(rows, intervals)
        records[lam] = intervals, null, total
        return _lfdr_excess(null, total, edge_terms, lam, alpha)

    lam_star = 1.0 - 1e-12
    if excess(lam_star)[0] > 0.0:
        lam_star = _bracketed_newton(excess, 0.0, lam_star, True, _LAMBDA_TOL)[0]
    intervals, null, total = records.get(lam_star, ((), 0.0, 0.0))
    if not intervals:
        raise Infeasible(
            f"even the smallest nonempty lfdr region exceeds mFDR {alpha} "
            f"(minimum lfdr exceeds every feasible cutoff)"
        )
    if total < _MASS_FLOOR:
        raise Infeasible(f"no lfdr region with positive mass attains mFDR <= {alpha}")
    region = RejectionRegion(intervals)
    return OracleRule(
        kind="lfdr",
        threshold=lam_star,
        region=region,
        mfdr=null / total,  # as mfdr_of_region computes it
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
