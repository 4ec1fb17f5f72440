"""Growth exponents of age- and size-structured cell populations.

The package computes the exponential growth rate (Malthus parameter) of
branching cell populations in which single-cell rates vary from cell to
cell, both by deterministic eigenvalue solvers for the age-structured
model and by Monte Carlo simulation of size-structured division trees.
"""

__version__ = "0.1.0"

from .age_model import (
    AlphaFamily,
    ConstantRate,
    CurveRow,
    Dirac,
    DiscreteMixture,
    EigenPair,
    PowerLagRate,
    TabulatedRate,
    TruncatedGaussian,
    UniformLaw,
    cv_curve,
    d2lambda_at_zero,
    dlambda_dalpha,
    eigen_pair,
    malthus_general,
    malthus_reference,
    malthus_with_variability,
    sign_condition,
)
from .estimator import (
    CvTableRow,
    MalthusEstimate,
    cv_table,
    estimator_sd_comparison,
    malthus_hat_biomass,
    malthus_hat_count,
    monte_carlo,
)
from .numerics import (
    NonConvergenceError,
    RngStream,
    find_root_decreasing,
)
from .size_sim import (
    AutoRegressive,
    DrawnFromKernel,
    Exponential,
    FixedRate,
    Linear,
    Memoryless,
    SimConfig,
    SizeDivisionRate,
    Symmetric,
    TreeResult,
    UniformAsymmetric,
    biomass_at,
    simulate_tree,
)

__all__ = [
    "AlphaFamily",
    "AutoRegressive",
    "ConstantRate",
    "CurveRow",
    "CvTableRow",
    "Dirac",
    "DiscreteMixture",
    "DrawnFromKernel",
    "EigenPair",
    "Exponential",
    "FixedRate",
    "Linear",
    "MalthusEstimate",
    "Memoryless",
    "NonConvergenceError",
    "PowerLagRate",
    "RngStream",
    "SimConfig",
    "SizeDivisionRate",
    "Symmetric",
    "TabulatedRate",
    "TreeResult",
    "TruncatedGaussian",
    "UniformAsymmetric",
    "UniformLaw",
    "biomass_at",
    "cv_curve",
    "cv_table",
    "d2lambda_at_zero",
    "dlambda_dalpha",
    "eigen_pair",
    "estimator_sd_comparison",
    "find_root_decreasing",
    "malthus_general",
    "malthus_hat_biomass",
    "malthus_hat_count",
    "malthus_reference",
    "malthus_with_variability",
    "monte_carlo",
    "sign_condition",
    "simulate_tree",
    "__version__",
]
