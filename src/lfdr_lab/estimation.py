"""Estimate the marginal density, the null parameters and the null
proportion from observed z-values.

The null estimator works entirely in the frequency domain.  Write the
empirical characteristic function (ECF) as

    psi_m(t) = (1/m) * sum_j exp(i t z_j).

Under a mixture p0*N(u0, s0^2) + sum_j w_j*N(u_j, s_j^2) whose components
share the null width,

    |psi(t)| = exp(-s0^2 t^2 / 2) * |h(t)|,      h(t) = p0 + sum_j w_j e^{i d_j t},

with d_j = u_j - u0.  The modulating factor h is almost periodic with
|h| <= 1, sup_t |h| = 1 (total mass) and inf_t |h| >= p0 - sum_j w_j, so on a
frequency window where the ECF is still well above sampling noise:

* the upper envelope of |psi_m(t)| * exp(s^2 t^2 / 2) is flat at 1 exactly
  when s^2 equals the null variance -- we estimate s0^2 by the minimum of
  L(t) = -2 log|psi_m(t)| / t^2 over the window (attained where |h| peaks);
* the mid-envelope (min + max)/2 of |psi_m(t)| * exp(s0^2 t^2 / 2) recovers
  p0: the oscillating part cancels at its peak and trough (exactly so for a
  pure null and for any single-frequency or symmetric two-point
  alternative);
* the phase of psi_m(t) grows like u0 * t, estimated by weighted regression
  of the unwrapped phase on t.

Magnitudes are debiased for the sampling term E|psi_m|^2 = |psi|^2 +
(1 - |psi|^2)/m and median-filtered before the envelope extraction.

The data are centred at their median and scanned on t_k = k*dt, k = 1..3000,
with dt = 1/(75 s) for their spread s = min(sd, IQR/1.34).  Under
z -> a*z + b the centred data scale by a and the grid by 1/|a|, so the
estimate is affine-equivariant to rounding.  The sd is taken of z over a
power of two near max|z| and the scan of the centred data over one near s,
which is exact in the normal range: no square overflows, and both
estimators are scale-equivariant at every scale whose results are doubles.
exp(i k dt z) has period L = 2 pi/dt in z, so the scan (a Taylor-series
nonuniform DFT, Anderson & Dahleh 1996) reduces z by fmod(z, L), exact at any
finite z.  A pass up to frequency K (256, then 4 times the last, at most
3000) cuts one period into 4K cells, sums the offsets' powers w^p, p < 18,
per cell and takes all K frequencies from one FFT of those moments, to a
truncation error under (pi/4)^18 / 18! = 2e-18.  The scan stops after the
pass holding the first frequency where |psi_m| falls below the noise floor
and returns psi_m up to there, equal to the direct sum (1/m) sum_j
exp(i t z_j) to rounding.

The marginal density is a Gaussian-kernel KDE with Silverman's bandwidth h
on uniform segments of spacing h/100, one per run of sorted data without a
gap over 16h, reaching 8h past it.  B-spline binning and one FFT (Silverman
1982, AS 176; Wand 1994) put the grid within 3e-7 of exact kernel sums, and
the data within 1.1e-5, 5.3e-6, 2.3e-6 at m = 100, 5000, 10^5 (eq1 draws).
The estimate is that table: ``starts`` and ``cells`` per segment, ``values``,
``bandwidth`` (spacing h/100) and ``data``; ``grid`` is derived from it.
``_Sample`` is the one place a sample is prepared: checked finite, sorted
and centred once.  ``decide`` hands one record to both estimators.
``_vector`` is the one place a caller's vector is converted: the sample, the
p-values, the lfdr values, the truth flags and a density table's data all
enter through it, and any shape but 1-D is refused by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateCF, DegenerateData, EmptyInput, InvalidPValue, NonFiniteInput, NotEnoughData

__all__ = [
    "MarginalDensityEstimate",
    "NullEstimate",
    "estimate_null_ecf",
    "estimate_marginal_kde",
    "estimate_p0_tail",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Frequency grid: t_k = k * _T_STEP / s, k = 1.._T_COUNT, for the data's
# spread s.  The scan stops at the noise floor, which for eq1 draws and pure
# nulls comes 155-220 frequencies in, inside the first pass of 256.
_T_STEP = 1.0 / 75.0
_T_COUNT = 3000
# ECF scan: passes up to frequency K = _ECF_FIRST, then 4 times the last (at
# most n), each with _ECF_TERMS Taylor terms on _ECF_CELLS * K cells; weights
# are (-i)^p / p! but for the factor -i of odd p.
_ECF_TERMS = 18
_ECF_CELLS = 4
_ECF_FIRST = 256
_ECF_WEIGHTS = np.array([(-1) ** (p // 2) / math.factorial(p) for p in range(_ECF_TERMS)])[:, None]
_MEDFILT = 9
_MIN_OBS = 100

# KDE: grid spacing h / _KDE_BINS_PER_H; grids reach _KDE_REACH h past the data.
_KDE_BINS_PER_H = 100
_KDE_REACH = 8.0

# Tail p0 estimate: p-values above this cutoff count as null.
_P0_LAMBDA = 0.5


@dataclass(frozen=True)
class NullEstimate:
    """Estimated null parameters with frequency-domain diagnostics."""

    p0_hat: float
    u0_hat: float
    sigma0_hat: float
    t_star: float  # in units of 1/z
    cf_magnitude_at_t_star: float


@dataclass
class MarginalDensityEstimate:
    """Kernel estimate of the marginal z-density on uniform segments.

    Segment j is the ``cells[j] + 1`` points ``starts[j] + i * spacing``,
    spacing = bandwidth / 100, and ``values`` holds each segment's points in
    turn.  Segments ascend without overlap; values are >= 0 and integrate
    to 1.  ``evaluate`` interpolates on them and sums kernels off them.
    """

    starts: np.ndarray
    cells: np.ndarray
    values: np.ndarray
    bandwidth: float
    data: np.ndarray

    def __post_init__(self):
        self.starts = np.asarray(self.starts, dtype=float)
        self.cells = np.asarray(self.cells, dtype=np.intp)
        self.values = np.asarray(self.values, dtype=float)
        self.data = _vector(self.data, "MarginalDensityEstimate data")
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.starts.ndim != 1 or self.cells.shape != self.starts.shape or not np.all(self.cells > 0):
            raise ValueError("each segment needs a start and at least one cell")
        ends = self.starts + self.cells * self.spacing
        if self.starts.size == 0 or np.any(self.starts[1:] <= ends[:-1]):
            raise ValueError("segments must be one or more, ascending without overlap")
        self._first = np.cumsum(self.cells + 1) - (self.cells + 1)
        if self.values.shape != (self._first[-1] + self.cells[-1] + 1,):
            raise ValueError("values must hold one value per segment point")
        if np.any(self.values < 0.0):
            raise ValueError("density values must be nonnegative")
        rims = self.values[self._first] + self.values[self._first + self.cells]
        total = self.spacing * float(self.values.sum() - 0.5 * rims.sum())
        if not (0.99 <= total <= 1.01):
            raise ValueError(f"grid density integrates to {total:.4f}, not 1")

    @property
    def spacing(self) -> float:
        return self.bandwidth / _KDE_BINS_PER_H

    @property
    def grid(self) -> np.ndarray:
        """Every segment's points in turn, aligned with ``values``."""
        offsets = np.arange(self.values.size) - np.repeat(self._first, self.cells + 1)
        return np.repeat(self.starts, self.cells + 1) + self.spacing * offsets

    def evaluate(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        seg = np.searchsorted(self.starts[1:], z, side="right") if self.starts.size > 1 else 0
        pos = (z - self.starts[seg]) / self.spacing
        cells = self.cells[seg]
        cell = np.fmin(np.fmax(pos, 0.0), cells - 1).astype(np.intp)  # nan: cell 0, no bad cast
        frac = np.clip(pos - cell, 0.0, 1.0)
        i = self._first[seg] + cell
        out = self.values[i] + frac * (self.values[i + 1] - self.values[i])
        outside = (pos < 0.0) | (pos > cells)
        if np.any(outside) and self.data.size:
            out[outside] = _kernel_sum(self.data, z[outside], self.bandwidth)
        return out


def _median_filter(x: np.ndarray, width: int) -> np.ndarray:
    """Running median over an odd ``width``, edges padded by repetition.
    The middle element of each partitioned window is np.median's value for
    finite input; the windows are one strided view of the padded buffer."""
    if x.size < width or width < 3:
        return x
    pad = width // 2
    padded = np.empty(x.size + 2 * pad)
    padded[:pad], padded[pad:-pad], padded[-pad:] = x[0], x, x[-1]
    windows = np.ndarray((x.size, width), buffer=padded, strides=2 * padded.strides).copy()
    windows.partition(pad, axis=1)
    return windows[:, pad]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _binade(x: float) -> float:
    """The power of two p with p <= |x| < 2p (0.5 at x = 0), for any finite x."""
    return math.ldexp(0.5, math.frexp(x)[1])


def _vector(values, what: str, dtype=float) -> np.ndarray:
    """``values`` as an array of ``dtype`` (None keeps its own), not copied
    when it already is one; ``ValueError`` naming ``what`` unless it is 1-D."""
    v = np.asarray(values, dtype)
    if v.ndim != 1:
        raise ValueError(f"{what}: expected a 1-D vector, got shape {v.shape}")
    return v


class _Sample:
    """A z sample prepared once: ``z`` as a float vector, checked finite
    (``stage`` names the caller), its sort ``s`` and ``center_spread`` on
    first read."""

    def __init__(self, z, stage: str):
        self.z = z = _vector(z, stage)
        if not np.isfinite(z).all():
            bad = np.flatnonzero(~np.isfinite(z))
            raise NonFiniteInput(f"{stage}: {bad.size} non-finite z value(s), "
                                 f"first {float(z[bad[0]])!r} at index {bad[0]}")

    @cached_property
    def s(self) -> np.ndarray:
        return np.sort(self.z)

    @cached_property
    def center_spread(self) -> tuple[float, float]:
        """Median and spread min(sd, IQR/1.34), sd when the IQR is 0.  The
        quartiles are read off ``s`` as np.percentile reads them, bit for bit;
        the sd is of z over a power of two near max|z|, so no square overflows.
        Constant data have spread 0: their np.std would read the rounding of
        their mean (1.39e-17 for 1000 copies of 0.1)."""
        s = self.s

        def quantile(q: float):
            pos = (s.size - 1) * q
            i = int(pos)
            a, b, g = s[i], s[min(i + 1, s.size - 1)], pos - i
            return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g

        if s[0] == s[-1]:
            return float(quantile(0.5)), 0.0
        unit = _binade(max(-s[0], s[-1]))
        sd = float(np.std(self.z / unit, ddof=1)) * unit
        spread = min(sd, float(quantile(0.75) - quantile(0.25)) / 1.34)
        return float(quantile(0.5)), spread if spread > 0.0 else sd


@lru_cache(maxsize=4)
def _ecf_pass_tables(done: int, top: int) -> tuple:
    """i theta_k and (theta_k^2)^p, p < _ECF_TERMS / 2, for k = done+1..top on
    _ECF_CELLS * top cells: a pass's shape-only tables, read-only."""
    theta = np.arange(done + 1, top + 1) * (2.0 * math.pi / (_ECF_CELLS * top))
    powers = (theta * theta) ** np.arange(_ECF_TERMS // 2)[:, None]
    return _frozen(1j * theta), _frozen(powers)


def _ecf_scan(x: np.ndarray, dt: float, n: int, floor: float) -> np.ndarray:
    """psi_m at t_k = k*dt, k = 1..n, up to and including the first
    frequency where |psi_m| < ``floor`` (all n if it never does).

    x is reduced mod L = 2 pi/dt.  A point w cells off the centre of cell l
    of N = _ECF_CELLS * K per period has exp(i k dt x) = exp(2 pi i k l/N)
    sum_p (i theta_k w)^p / p!, theta_k = 2 pi k/N, |theta_k w| <= pi/4 for
    k <= K; so psi_m(t_k) = (1/m) sum_p (i theta_k)^p / p! F_p(k), F_p one FFT
    of the cells' moments sum w^p.  Runs of x in one cell (few, for sorted x)
    are summed by reduceat and folded onto their cell mod N by bincount.
    """
    m, period = x.size, 2.0 * math.pi / dt
    x = np.fmod(x, period) if np.abs(x).max() >= period else x
    out = np.empty(n, dtype=complex)
    done, top = 0, min(_ECF_FIRST, n)
    while done < n:
        cells = _ECF_CELLS * top
        near = np.rint(x * (cells / period))
        w = x * (cells / period) - near
        starts = np.flatnonzero(np.concatenate(([True], near[1:] != near[:-1])))
        moments, power = np.empty((_ECF_TERMS, starts.size)), np.ones(m)
        for row in moments:
            np.add.reduceat(power, starts, out=row)
            power *= w
        flat = near[starts].astype(np.intp) % cells + cells * np.arange(_ECF_TERMS)[:, None]
        table = np.bincount(flat.ravel(), (moments * _ECF_WEIGHTS).ravel(), _ECF_TERMS * cells)
        f = np.fft.rfft(table.reshape(_ECF_TERMS, cells))[:, done + 1 : top + 1]
        # conj(sum_p (-i theta)^p / p! F_p) / m, as a polynomial in theta^2
        i_theta, powers = _ecf_pass_tables(done, top)
        block = np.conj(((f[0::2] - i_theta * f[1::2]) * powers).sum(0)) / m
        out[done : done + block.size] = block
        below = np.flatnonzero(np.abs(block) < floor)
        if below.size:
            return out[: done + below[0] + 1]
        done, top = done + block.size, min(4 * top, n)
    return out


def estimate_null_ecf(z) -> NullEstimate:
    """Estimate (p0, u0, sigma0) from z-values via the ECF envelope method.

    The ECF of the median-centred data is scanned on t_k = k/(75 s),
    k = 1..3000, for the spread s = min(sd, IQR/1.34), so the estimate is
    equivariant under z -> a*z + b to rounding at every finite scale: the
    scan runs on the centred data over a power of two near s.

    Raises ValueError unless z is a 1-D vector, NonFiniteInput on nan or
    inf, NotEnoughData below 100 observations, and DegenerateCF on zero
    spread, on overflow at the data's scale, or when the ECF magnitude never
    falls below the crossing level.
    """
    sample = z if isinstance(z, _Sample) else _Sample(z, "null estimation")
    m = sample.z.size
    if m < _MIN_OBS:
        raise NotEnoughData(f"null estimation needs m >= {_MIN_OBS}, got {m}")
    # t* is the first crossing of the |ECF| level; the floor, which keeps the
    # relative noise small, ends the analysis window
    level = max(0.25, m ** (-0.1))
    floor = min(level, max(0.10, 6.0 / math.sqrt(m)))
    s = sample.s
    center, spread = sample.center_spread
    if spread == 0.0:
        raise DegenerateCF("the data have zero spread, so |ECF| is 1 at every t")
    unit = _binade(spread)
    spread_x = spread / unit
    with np.errstate(over="ignore"):
        x = (s - center) / unit
    if not np.isfinite(x).all():
        raise DegenerateCF(f"null estimation: the data lie over {np.finfo(float).max:.3g} "
                           f"spreads ({spread:.3g}) from their median, {center:.3g}")
    dt = _T_STEP / spread_x

    # The window runs from the level crossing k* to the first frequency below
    # the floor; floor <= level, so that frequency also ends the scan.
    psi = _ecf_scan(x, dt, _T_COUNT, floor)
    ts = dt * np.arange(1, psi.size + 1)
    modulus = np.abs(psi)
    hits = np.flatnonzero(modulus <= level)
    if hits.size == 0:
        raise DegenerateCF(
            f"|ECF| never fell below {level:.4g} for t <= {float(ts[-1]) / unit:.4g}"
        )
    k_star = int(hits[0])
    k_end = psi.size - 1 if modulus[-1] < floor else psi.size
    k_end = max(k_end, k_star + 1)
    mag_at_star = float(modulus[k_star])
    modulus, tw = modulus[:k_end], ts[:k_end]

    # Sampling debias of |psi|^2; E|psi_m|^2 = |psi|^2 + (1 - |psi|^2)/m.
    mag = np.sqrt(np.maximum(1e-12, (m * modulus**2 - 1.0) / (m - 1.0)))

    decay = -2.0 * np.log(mag[k_star:]) / tw[k_star:] ** 2
    sigma0_sq = max(1e-4 * spread_x * spread_x, float(_median_filter(decay, _MEDFILT).min()))

    # unwrapped from the phase 0 of psi_m(0) = 1
    phases = np.unwrap(np.concatenate(([0.0], np.arctan2(psi.imag[:k_end], psi.real[:k_end]))))[1:]
    weights = (tw * modulus) ** 2
    u0_x = float((weights * phases * tw).sum() / (weights * tw * tw).sum())

    envelope = _median_filter(mag * np.exp(0.5 * sigma0_sq * tw * tw), _MEDFILT)
    p0_hat = 0.5 * (float(envelope.min()) + min(1.0, float(envelope.max())))
    p0_hat = min(1.0, max(1e-6, p0_hat))

    est = NullEstimate(
        p0_hat=p0_hat,
        u0_hat=center + u0_x * unit,
        sigma0_hat=math.sqrt(sigma0_sq) * unit,
        t_star=float(ts[k_star]) / unit,
        cf_magnitude_at_t_star=mag_at_star,
    )
    if not all(map(math.isfinite, (est.p0_hat, est.u0_hat, est.sigma0_hat, est.t_star, mag_at_star))):
        raise DegenerateCF(f"null estimation: an estimate overflows at spread {spread:.3g}: {est}")
    return est


def _kernel_sum(data: np.ndarray, at: np.ndarray, bandwidth: float) -> np.ndarray:
    out = np.zeros(at.size)
    chunk = max(1, int(4_000_000 // max(1, at.size)))
    for i in range(0, data.size, chunk):
        u = (at[:, None] - data[None, i : i + chunk]) / bandwidth
        out += np.exp(-0.5 * u * u).sum(axis=1)
    return out / (data.size * bandwidth * _SQRT_2PI)


@lru_cache(maxsize=4)
def _kde_transfer(n_fft: int) -> np.ndarray:
    """The sampled kernel's transform on an n_fft-point FFT, read-only."""
    freq = np.arange(n_fft // 2 + 1) * (math.sqrt(_KDE_BINS_PER_H**2 - 0.25) / n_fft)
    return _frozen(np.exp(-2.0 * math.pi**2 * freq * freq))


def estimate_marginal_kde(z) -> MarginalDensityEstimate:
    """Gaussian-kernel density estimate on uniform segments of spacing h/100.

    h is Silverman's bandwidth.  The sorted data split at gaps over 16h plus
    6 steps; each segment's grid is centred on its midpoint and reaches 8h
    plus 1 to 2 steps past its data.  One FFT convolves all segments' bins
    with the kernel.  Raises ValueError unless z is a 1-D vector,
    NonFiniteInput on nan or inf, and DegenerateData on fewer than 2
    points, zero spread, a bandwidth that underflows to 0, or a spacing
    under 2^12 ulps of the largest |z| (cell positions need 12 bits below a
    step).
    """
    sample = z if isinstance(z, _Sample) else _Sample(z, "kernel density estimation")
    m = sample.z.size
    if m < 2:
        raise DegenerateData("kernel density estimation needs at least 2 points")
    s = sample.s
    spread = sample.center_spread[1]
    if spread == 0.0:
        raise DegenerateData("kernel density estimation: the data have zero spread")
    bandwidth = 0.9 * spread * m ** (-0.2)
    if bandwidth == 0.0:
        raise DegenerateData(f"kernel density estimation: Silverman's bandwidth 0.9 * {spread:.3g} "
                             f"* {m}^-0.2 underflows to 0")
    step, pad = bandwidth / _KDE_BINS_PER_H, _KDE_REACH * bandwidth
    magnitude = max(-s[0], s[-1])
    if not step > 2**12 * math.ulp(magnitude):
        raise DegenerateData(f"kernel density estimation: spacing h/{_KDE_BINS_PER_H} = {step:.3g} "
                             f"cannot be represented at |z| up to {magnitude:.3g}")
    # grids reach pad + 1..2 steps past their data, so gaps over 2 (pad + 3 steps) part them
    cut = np.flatnonzero(np.diff(s) > 2.0 * (pad + 3.0 * step)) + 1
    lo, hi = s[np.concatenate(([0], cut))], s[np.concatenate((cut - 1, [s.size - 1]))]
    side = np.ceil((0.5 * (hi - lo) + pad) / step) + 1.0
    counts = 2 * side.astype(np.intp) + 1
    first, starts = np.cumsum(counts) - counts, 0.5 * (lo + hi) - side * step
    n = int(counts.sum())
    # Quadratic B-spline binning adds step^2 / 4 to each datum's variance
    # wherever it sits (linear binning adds f (1 - f) step^2), so a kernel
    # narrowed to b^2 = h^2 - step^2 / 4 gives bandwidth h to third order.
    members = np.diff(np.concatenate(([0], cut, [s.size])))
    pos = (s - np.repeat(starts, members)) / step
    near = np.rint(pos)
    f = pos - near
    near = near.astype(np.intp) + np.repeat(first, members)
    bins = np.bincount(near, weights=0.75 - f * f, minlength=n)
    bins += np.bincount(near - 1, weights=0.5 * (0.5 - f) ** 2, minlength=n)
    bins += np.bincount(near + 1, weights=0.5 * (0.5 + f) ** 2, minlength=n)
    # The sampled kernel's transform is b sqrt(2 pi) / step times exp(-2 pi^2
    # (k b / (n_fft step))^2); grid ends lie over pad from data: wrap is negligible.
    n_fft = 1 << (n - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(bins, n_fft) * _kde_transfer(n_fft), n_fft)
    values = np.maximum(conv[:n], 0.0) / (m * step)
    return MarginalDensityEstimate(starts=starts, cells=counts - 1, values=values,
                                   bandwidth=bandwidth, data=s)


def _checked_pvalues(pvalues) -> np.ndarray:
    """A float copy of the vector ``pvalues``, refused unless each lies in
    (0, 1]."""
    p = _vector(pvalues, "p-values").copy()
    if p.size and not (p.min() > 0.0 and p.max() <= 1.0):  # false on nan
        raise InvalidPValue("p-values must lie in (0, 1]")
    return p


def estimate_p0_tail(pvalues) -> float:
    """Tail-based null-proportion estimate min(1, #{p > lam}/((1 - lam) m))
    at lam = 0.5.

    Follows Storey (2002): under the mixture, p-values above a moderate
    cutoff lam come almost entirely from the null, whose p-values are
    uniform.  Raises ValueError unless ``pvalues`` is a 1-D vector, and
    InvalidPValue, as BH does, on a value outside (0, 1].
    """
    p = _checked_pvalues(pvalues)
    if p.size == 0:
        raise EmptyInput("estimate_p0_tail needs at least one p-value")
    return min(1.0, float(np.sum(p > _P0_LAMBDA)) / ((1.0 - _P0_LAMBDA) * p.size))
