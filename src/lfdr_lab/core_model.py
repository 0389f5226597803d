"""Exact densities, local fdr and two-sided p-values for a known Gaussian
two-group mixture.

The marginal law of a z-value is

    f(z) = p0 * phi((z - u0)/s0)/s0 + sum_j w_j * phi((z - u_j)/s_j)/s_j

with a null weight p0, a Gaussian null component and a (possibly empty) list
of weighted Gaussian nonnull components.  All operations here are pure
functions of immutable inputs and accept scalars or numpy arrays for ``z``.

Densities are evaluated in log space and exponentiated at the end so that
far-tail arithmetic (six-sigma terms and beyond) stays accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erfc, ndtr

from .errors import InvalidModel

__all__ = [
    "GaussianComponent",
    "TwoGroupModel",
    "gaussian_pdf",
    "gaussian_cdf",
    "marginal_density",
    "lfdr",
    "two_sided_pvalue",
    "mixture_model",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class GaussianComponent:
    """A single Gaussian component on the z-scale."""

    mean: float
    sd: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise InvalidModel(f"component mean must be finite, got {self.mean}")
        if not (self.sd > 0.0 and math.isfinite(self.sd)):
            raise InvalidModel(f"component sd must be positive, got {self.sd}")


@dataclass(frozen=True)
class TwoGroupModel:
    """Fully specified two-group mixture: null weight, null component and
    weighted nonnull components.

    Invariants: 0 < p0 <= 1, every weight >= 0, p0 + sum(weights) == 1 within
    1e-12, and the nonnull list may be empty only when p0 == 1.
    """

    p0: float
    null: GaussianComponent
    nonnull: tuple  # of (weight, GaussianComponent)

    def __post_init__(self):
        object.__setattr__(self, "nonnull", tuple((float(w), c) for w, c in self.nonnull))
        if not (0.0 < self.p0 <= 1.0):
            raise InvalidModel(f"p0 must be in (0, 1], got {self.p0}")
        for w, comp in self.nonnull:
            if w < 0.0:
                raise InvalidModel(f"component weight must be >= 0, got {w}")
            if not isinstance(comp, GaussianComponent):
                raise InvalidModel("nonnull entries must be (weight, GaussianComponent)")
        total = self.p0 + sum(w for w, _ in self.nonnull)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidModel(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
        if not self.nonnull and abs(self.p0 - 1.0) > _WEIGHT_TOL:
            raise InvalidModel("nonnull components may be omitted only when p0 == 1")

    @property
    def components(self) -> tuple:
        """All components as (weight, component), null first."""
        return ((self.p0, self.null),) + self.nonnull


def mixture_model(p0: float, components: Sequence[tuple]) -> TwoGroupModel:
    """Build a TwoGroupModel with a standard normal null.

    ``components`` is a sequence of (weight, mean, sd) triples for the
    nonnull part.
    """
    return TwoGroupModel(
        p0=p0,
        null=GaussianComponent(0.0, 1.0),
        nonnull=tuple((w, GaussianComponent(mu, sd)) for w, mu, sd in components),
    )


def _log_gaussian_pdf(z, c: GaussianComponent):
    u = (np.asarray(z, dtype=float) - c.mean) / c.sd
    return -0.5 * u * u - math.log(c.sd) - _LOG_SQRT_2PI


def _as_input(z, values):
    """Return a float for scalar input, an ndarray otherwise."""
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(values)
    return values


def gaussian_pdf(z, c: GaussianComponent):
    """Gaussian density of component ``c`` at ``z``; strictly positive."""
    return _as_input(z, np.exp(_log_gaussian_pdf(z, c)))


def gaussian_cdf(z, c: GaussianComponent):
    """Gaussian distribution function of component ``c`` at ``z``.

    Computed with ``scipy.special.ndtr``, which keeps full relative
    precision in the lower tail; the oracle's interval masses are
    differences of these values.
    """
    u = (np.asarray(z, dtype=float) - c.mean) / c.sd
    return _as_input(z, ndtr(u))


def _log_terms(m: TwoGroupModel, z):
    """log(w * f_c(z)) for every component of positive weight, null first."""
    z = np.asarray(z, dtype=float)
    return np.stack(
        [
            math.log(w) + _log_gaussian_pdf(z, comp)
            for w, comp in m.components
            if w > 0.0
        ],
        axis=0,
    )


def _logsumexp(logs):
    # stable log-sum-exp; the peak term anchors the scale so 6-sigma
    # contributions survive
    peak = logs.max(axis=0)
    return peak + np.log(np.exp(logs - peak).sum(axis=0))


def _log_marginal(m: TwoGroupModel, z):
    return _logsumexp(_log_terms(m, z))


def marginal_density(m: TwoGroupModel, z):
    """Mixture density p0*f0(z) + sum_j w_j*f_j(z); strictly positive."""
    return _as_input(z, np.exp(_log_marginal(m, z)))


def lfdr(m: TwoGroupModel, z):
    """Local false discovery rate p0*f0(z)/f(z), clamped to [0, 1].

    This is the posterior probability that a case with score z belongs to
    the null group.  The clamp only absorbs rounding at the top end; the
    ratio never exceeds 1 mathematically because f >= p0*f0 pointwise.
    """
    log_ratio = math.log(m.p0) + _log_gaussian_pdf(z, m.null) - _log_marginal(m, z)
    return _as_input(z, np.clip(np.exp(log_ratio), 0.0, 1.0))


def two_sided_pvalue(z, null: GaussianComponent):
    """Two-sided p-value 2*(1 - Phi(|z - mean|/sd)) against a Gaussian null.

    Computed as erfc(|z - mean|/(sd*sqrt(2))) so that deep-tail values keep
    full relative precision.  Always in (0, 1].
    """
    u = np.abs(np.asarray(z, dtype=float) - null.mean) / null.sd
    return _as_input(z, erfc(u / math.sqrt(2.0)))
