"""Accelerated human-fatigue testing.

Estimate human fatigue from performance shaping factors (PSFs): screen
the influential PSFs with principal component analysis, fit a Weibull
accelerated-life model whose scale is log-linear in the selected
factors, predict fatigue percentiles with confidence intervals, and
validate against hold-out observations.

The names of ``__all__`` are the public surface.  They and the
submodules load on first use (PEP 562): ``import ahft`` imports no
submodule, and ``ahft.fit_mle`` imports ``ahft.alt`` the first time it
is read.  ``ahft.fit_mle is ahft.alt.fit_mle`` holds for every name.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOME = {
    **dict.fromkeys(("Dataset", "builtin_table3", "builtin_table8", "correlation_matrix",
                     "load_csv", "normalize_name", "serialize", "standardize"), "dataset"),
    **dict.fromkeys(("fatigue_at", "rate_from_fatigue"), "fatigue"),
    **dict.fromkeys(("PcaResult", "SelectionResult", "eigen_symmetric", "run_pca",
                     "select_factors"), "pca"),
    **dict.fromkeys(("DEFAULT_CONFIDENCE", "DEFAULT_PERCENTILE", "FactorSpec",
                     "GllWeibullModel", "Prediction", "coef_ci", "fit_mle", "load_model",
                     "log_likelihood", "model_from_json", "model_to_json",
                     "positive_param_ci", "predict_with_interval", "save_model",
                     "sweep_curve", "wald_stats", "weibull_cdf", "weibull_quantile"), "alt"),
    **dict.fromkeys(("RecoverySummary", "SyntheticSpec", "ValidationReport", "evaluate",
                     "generate_synthetic", "recovery_check"), "validation"),
}
_SUBMODULES = ("alt", "dataset", "errors", "fatigue", "pca", "svg", "validation")

__all__ = [*_HOME, "errors"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
