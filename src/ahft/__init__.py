"""Accelerated human-fatigue testing.

Estimate human fatigue from performance shaping factors (PSFs): screen
the influential PSFs with principal component analysis, fit a Weibull
accelerated-life model whose scale is log-linear in the selected
factors, predict fatigue percentiles with confidence intervals, and
validate against hold-out observations.
"""

from .dataset import (
    Dataset,
    builtin_table3,
    builtin_table8,
    correlation_matrix,
    load_csv,
    normalize_name,
    serialize,
    standardize,
)
from .fatigue import fatigue_at, rate_from_fatigue
from .pca import (
    PcaResult,
    SelectionResult,
    eigen_symmetric,
    run_pca,
    select_factors,
    variance_proportions,
)
from .alt import (
    DEFAULT_CONFIDENCE,
    DEFAULT_PERCENTILE,
    FactorSpec,
    GllWeibullModel,
    Prediction,
    coef_ci,
    fit_mle,
    load_model,
    log_likelihood,
    model_from_json,
    model_to_json,
    positive_param_ci,
    predict_with_interval,
    save_model,
    sweep_curve,
    wald_stats,
    weibull_cdf,
    weibull_quantile,
)
from .validation import (
    RecoverySummary,
    SyntheticSpec,
    ValidationReport,
    evaluate,
    generate_synthetic,
    recovery_check,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    # dataset
    "Dataset", "builtin_table3", "builtin_table8", "correlation_matrix", "load_csv",
    "normalize_name", "serialize", "standardize",
    # fatigue
    "fatigue_at", "rate_from_fatigue",
    # pca
    "PcaResult", "SelectionResult", "eigen_symmetric", "run_pca", "select_factors",
    "variance_proportions",
    # alt
    "DEFAULT_CONFIDENCE", "DEFAULT_PERCENTILE", "FactorSpec", "GllWeibullModel",
    "Prediction", "coef_ci", "fit_mle", "load_model", "log_likelihood",
    "model_from_json", "model_to_json", "positive_param_ci",
    "predict_with_interval", "save_model", "sweep_curve", "wald_stats", "weibull_cdf",
    "weibull_quantile",
    # validation
    "RecoverySummary", "SyntheticSpec", "ValidationReport", "evaluate", "generate_synthetic",
    "recovery_check",
    "errors",
]
