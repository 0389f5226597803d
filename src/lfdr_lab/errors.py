"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError so callers (and the
CLI exit-code mapping) can tell input mistakes apart from estimator
degeneracies.
"""

__all__ = [
    "LfdrLabError",
    "InvalidModel",
    "InvalidPValue",
    "InvalidLfdr",
    "LengthMismatch",
    "EmptyRegion",
    "FullRegion",
    "Infeasible",
    "EmptyInput",
    "NonFiniteInput",
    "NotEnoughData",
    "DegenerateCF",
    "DegenerateData",
    "DegenerateMarginal",
]


class LfdrLabError(Exception):
    """Base error for this package."""


class InvalidModel(LfdrLabError, ValueError):
    """Mixture parameters violate their invariants (weights, sd > 0, ...)."""


class InvalidPValue(LfdrLabError, ValueError):
    """A p-value lies outside (0, 1]."""


class InvalidLfdr(LfdrLabError, ValueError):
    """A local-fdr value lies outside [0, 1]."""


class LengthMismatch(LfdrLabError, ValueError):
    """Paired sequences have different lengths."""


class EmptyRegion(LfdrLabError):
    """mFDR is undefined when the rejection region has no mass."""


class FullRegion(LfdrLabError):
    """mFNR is undefined when everything is rejected."""


class Infeasible(LfdrLabError):
    """No threshold attains the requested mFDR level."""


class EmptyInput(LfdrLabError, ValueError):
    """An operation received an empty data vector."""


class NonFiniteInput(LfdrLabError, ValueError):
    """A data vector contains nan or inf."""


class NotEnoughData(LfdrLabError):
    """Too few observations for the requested estimator."""


class DegenerateCF(LfdrLabError):
    """The empirical characteristic function never decays below the crossing
    level on the search grid (near-constant data)."""


class DegenerateData(LfdrLabError):
    """Sample has zero spread; no density estimate is possible."""


class DegenerateMarginal(LfdrLabError):
    """Estimated marginal density vanishes at an evaluation point."""
