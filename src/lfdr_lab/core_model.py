"""Exact densities, local fdr and two-sided p-values for a known Gaussian
two-group mixture.

The marginal law of a z-value is

    f(z) = p0 * phi((z - u0)/s0)/s0 + sum_j w_j * phi((z - u_j)/s_j)/s_j

with a null weight p0, a Gaussian null component and a (possibly empty) list
of weighted Gaussian nonnull components.  All operations here are pure
functions of immutable inputs and accept scalars or numpy arrays for ``z``.

Densities are evaluated in log space and exponentiated at the end so that
far-tail arithmetic (six-sigma terms and beyond) stays accurate.

This module also owns the package's one array form of a mixture,
``_components``: a table of the positive-weight components, null first,
that the lfdr function here, the oracle's masses, scan grid and lfdr
slopes, and the samplers all read.  Each model builds it once,
read-only, when it is made, so those callers share one table; copies and
pickles rebuild the model through its constructor, which checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidModel

__all__ = [
    "GaussianComponent",
    "TwoGroupModel",
    "gaussian_pdf",
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
            if not w >= 0.0:  # also refuses nan
                raise InvalidModel(f"component weight must be >= 0, got {w}")
            if not isinstance(comp, GaussianComponent):
                raise InvalidModel("nonnull entries must be (weight, GaussianComponent)")
        total = self.p0 + sum(w for w, _ in self.nonnull)
        if not abs(total - 1.0) <= _WEIGHT_TOL:
            raise InvalidModel(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
        table = np.array([(w, c.mean, c.sd, math.log(w), math.log(c.sd))
                          for w, c in self.components if w > 0.0]).T[:, :, None]
        table.flags.writeable = False
        object.__setattr__(self, "_components", table)  # no field: ==, hash and repr ignore it

    @property
    def components(self) -> tuple:
        """All components as (weight, component), null first."""
        return ((self.p0, self.null),) + self.nonnull

    def __reduce__(self):
        # copies and pickles rebuild the model, and so its table, from the fields
        return type(self), (self.p0, self.null, self.nonnull)


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


def _as_input(z, values):
    """Return a float for scalar input, an ndarray otherwise."""
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(values)
    return values


def gaussian_pdf(z, c: GaussianComponent):
    """Gaussian density of component ``c`` at ``z``; strictly positive."""
    u = (np.asarray(z, dtype=float) - c.mean) / c.sd
    return _as_input(z, np.exp(-0.5 * u * u - math.log(c.sd) - _LOG_SQRT_2PI))


def _components(m: TwoGroupModel) -> np.ndarray:
    """Rows (w, mean, sd, log w, log sd) over the components of positive
    weight, null first, each a (C, 1) column that broadcasts over z: the
    read-only table the model built when it was made."""
    return m._components


def _log_terms(comps: np.ndarray, z):
    """log(w_c * f_c(z)) for every row of ``comps``, stacked on a leading
    axis over the shape of ``z``: a new array, never a view of ``z``."""
    z = np.asarray(z, dtype=float)
    _, mean, sd, log_w, log_sd = comps.reshape(comps.shape[:2] + (1,) * z.ndim)
    terms = np.subtract(z, mean)
    terms /= sd
    terms *= -0.5 * terms  # (-0.5 * u) * u, as a product commutes
    terms -= log_sd
    terms -= _LOG_SQRT_2PI
    terms += log_w
    return terms


def _logsumexp(logs):
    """Stable log-sum-exp over the leading axis, kept as a length-1 axis: the
    peak anchors the scale so 6-sigma terms survive.  Overwrites ``logs``."""
    peak = logs.max(axis=0, keepdims=True)
    logs -= peak
    total = np.exp(logs, out=logs).sum(axis=0, keepdims=True)
    np.log(total, out=total)
    total += peak
    return total


def lfdr(m: TwoGroupModel, z):
    """Local false discovery rate p0*f0(z)/f(z), clamped to [0, 1].

    This is the posterior probability that a case with score z belongs to
    the null group.  The clamp only absorbs rounding at the top end; the
    ratio never exceeds 1 mathematically because f >= p0*f0 pointwise.
    """
    terms = _log_terms(_components(m), z)
    ratio = terms[:1].copy()
    ratio -= _logsumexp(terms)
    np.exp(ratio, out=ratio)
    return _as_input(z, np.clip(ratio, 0.0, 1.0, out=ratio)[0])


def two_sided_pvalue(z, null: GaussianComponent):
    """Two-sided p-value 2*(1 - Phi(|z - mean|/sd)) against a Gaussian null.

    Computed as erfc(|z - mean|/(sd*sqrt(2))) so that deep-tail values keep
    full relative precision.  Always in (0, 1]: beyond |z - mean|/sd ~ 37.7,
    where erfc underflows to 0, the result is the smallest positive double.
    """
    from scipy.special import erfc  # loaded on first use, not at package import

    u = np.abs(np.asarray(z, dtype=float) - null.mean) / null.sd
    return _as_input(z, np.maximum(erfc(u / math.sqrt(2.0)), math.ulp(0.0)))
