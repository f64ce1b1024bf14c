"""Survival analysis toolkit for facial-image biomarkers.

Modules
-------
cohort      columnar cohorts, CSV ingestion
survival    Kaplan-Meier, log-rank, reverse-KM follow-up
cox         proportional hazards fitting, screening, AIC comparison
metrics     concordance, time-dependent AUC, age accuracy, rank tests
biomarkers  face age difference, scaling, fixed-cut stratification
trainer     ranking-loss risk head, L1 age head, age balancing
synth       synthetic cohorts with known ground truth
attention   attention-map projection onto face meshes, OBJ export
cli         command line entry points
"""

__version__ = "0.1.0"

# The stratification schemes of ``biomarkers.stratify``, kept here so that
# the command line can list them without executing numpy.
SCHEMES = (
    "fad_bands",
    "fad_ge5",
    "fad_le_minus5",
    "risk_quartiles",
    "risk_deciles",
    "risk_half",
)

from .errors import (
    AnalysisError,
    ConstantInputError,
    DataError,
    MedianNotReachedError,
    NoComparablePairsError,
    SingularDesignError,
    VisageError,
)

__all__ = [
    "__version__",
    "SCHEMES",
    "AnalysisError",
    "ConstantInputError",
    "DataError",
    "MedianNotReachedError",
    "NoComparablePairsError",
    "SingularDesignError",
    "VisageError",
]
