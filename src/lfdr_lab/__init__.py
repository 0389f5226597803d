"""Two-group-model multiple testing.

Exact oracle p-value and local-fdr procedures under a known Gaussian
mixture, data-driven FDR procedures including the adaptive lfdr step-up,
frequency-domain estimation of the null distribution and null proportion,
and a seeded Monte Carlo harness.

Importing the package loads numpy and the four modules that need no scipy:
``core_model``, ``errors``, ``estimation`` and ``procedures``.  ``oracle``
and ``simulation`` import ``scipy.special``, about 60% of the package's
import time and ~25 MB; they and the names they export load on first
access, through the module ``__getattr__``.  So an analysis under an
estimated null never imports scipy.  Each module's ``__all__`` is the one
list of what it exports; ``_LAZY`` names those of ``oracle`` and
``simulation`` again, since they cannot be read without importing scipy.
The package's ``__all__`` joins them: 58 exports.
"""

__version__ = "0.1.0"

from . import core_model, errors, estimation, procedures
from .core_model import *
from .errors import *
from .estimation import *
from .procedures import *

# the exports of the two modules that import scipy.special, by name: the
# modules and their names load on first access through __getattr__
_LAZY = dict.fromkeys((
    "OracleRule", "RejectionRegion", "SweepRow", "mfdr_of_region", "mfnr_of_region",
    "oracle_lfdr_rule", "oracle_pvalue_rule", "oracle_sweep",
    "region_from_lfdr_threshold", "region_from_pvalue_threshold",
), "oracle") | dict.fromkeys((
    "PROCEDURES", "ConcentratedDemo", "Figure2Data", "ProcedureStats", "SimConfig",
    "SimResult", "concentrated_alternative_demo", "eq1_default_model", "figure1_data",
    "figure2_data", "rep_seed", "run_replicated", "sample_correlated", "sample_model",
), "simulation")

__all__ = [*core_model.__all__, *errors.__all__, *estimation.__all__, *procedures.__all__, *_LAZY]


def __getattr__(name):
    import importlib

    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
