"""Finite mixtures of multivariate logistic distributions.

Evaluation and exact sampling of the location-scale multivariate logistic
distribution, finite mixtures of such components, maximum-likelihood fitting
by generalized EM, and a numerical harness for mixture identifiability.

scipy is imported only inside the functions that call it: ``scipy.linalg.lapack``
in the M-step, and ``scipy.optimize`` in the equality, trial and probe harnesses.
So ``import logimix`` and the ``sample``, ``eval`` and ``check-id --mode gram``
commands do not pay about 0.4 s and 45 MB for it.
"""

from .estimation import (
    FitConfig,
    FitResult,
    component_log_pdf_grad,
    em_fit,
    init_params,
    responsibilities,
)
from .identifiability import (
    EqualityReport,
    GramReport,
    LinearCombination,
    VandermondeReport,
    collapse_pair,
    evaluate_combination,
    find_separating_offsets,
    gram_min_eigenvalue,
    identifiability_trial,
    matched_param_distance,
    mixture_equality_test,
    probe_open_problem,
    reflect_combination,
    tail_coefficient_sum,
    vandermonde_check,
)
from .mixture import (
    MixtureModel,
    as_dataset,
    load_dataset,
    load_model,
    log_likelihood,
    mixture_cdf,
    mixture_log_pdf,
    mixture_pdf,
    model_to_dict,
    sample_mixture,
    save_dataset,
    save_model,
)
from .mld import (
    MldParams,
    conditional_quantile,
    marginal_cdf,
    mld_cdf,
    mld_log_pdf,
    mld_pdf,
    sample,
    standard_cdf,
    standard_log_pdf,
    standard_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "EqualityReport",
    "FitConfig",
    "FitResult",
    "GramReport",
    "LinearCombination",
    "MixtureModel",
    "MldParams",
    "VandermondeReport",
    "as_dataset",
    "collapse_pair",
    "component_log_pdf_grad",
    "conditional_quantile",
    "em_fit",
    "evaluate_combination",
    "find_separating_offsets",
    "gram_min_eigenvalue",
    "identifiability_trial",
    "init_params",
    "load_dataset",
    "load_model",
    "log_likelihood",
    "marginal_cdf",
    "matched_param_distance",
    "mixture_cdf",
    "mixture_equality_test",
    "mixture_log_pdf",
    "mixture_pdf",
    "mld_cdf",
    "mld_log_pdf",
    "mld_pdf",
    "model_to_dict",
    "probe_open_problem",
    "reflect_combination",
    "responsibilities",
    "sample",
    "sample_mixture",
    "save_dataset",
    "save_model",
    "standard_cdf",
    "standard_log_pdf",
    "standard_pdf",
    "tail_coefficient_sum",
    "vandermonde_check",
]
