"""Two-group-model multiple testing.

Exact oracle p-value and local-fdr procedures under a known Gaussian
mixture, data-driven FDR procedures including the adaptive lfdr step-up,
frequency-domain estimation of the null distribution and null proportion,
and a seeded Monte Carlo harness.
"""

__version__ = "0.1.0"

from .core_model import (
    GaussianComponent,
    TwoGroupModel,
    gaussian_pdf,
    lfdr,
    marginal_density,
    mixture_model,
    two_sided_pvalue,
)
from .errors import (
    DegenerateCF,
    DegenerateData,
    DegenerateMarginal,
    EmptyInput,
    EmptyRegion,
    FullRegion,
    Infeasible,
    InvalidLfdr,
    InvalidModel,
    InvalidPValue,
    LengthMismatch,
    LfdrLabError,
    NonFiniteInput,
    NotEnoughData,
)
from .estimation import (
    MarginalDensityEstimate,
    NullEstimate,
    estimate_marginal_kde,
    estimate_null_ecf,
    estimate_p0_tail,
)
from .oracle import (
    OracleRule,
    RejectionRegion,
    SweepRow,
    mfdr_of_region,
    mfnr_of_region,
    oracle_lfdr_rule,
    oracle_pvalue_rule,
    oracle_sweep,
    region_from_lfdr_threshold,
    region_from_pvalue_threshold,
)
from .procedures import (
    ConfusionCounts,
    DecisionTable,
    adaptive_bh,
    bh_stepup,
    confusion,
    decide,
    estimated_lfdr_values,
    fdp_fnp,
    lfdr_stepup,
)
from .simulation import (
    PROCEDURES,
    ConcentratedDemo,
    Figure2Data,
    ProcedureStats,
    SimConfig,
    SimResult,
    concentrated_alternative_demo,
    eq1_default_model,
    figure1_data,
    figure2_data,
    rep_seed,
    run_replicated,
    sample_correlated,
    sample_model,
)
