"""probsens: failure-probability sensitivities with certified information bounds.

Estimates failure/acceptance probabilities, their gradients with respect
to input-distribution parameters, and Fisher information matrices from a
single Monte-Carlo sample set via likelihood-ratio weighting, and checks
the information-theoretic upper bounds on probability sensitivity:

    |grad P_f|^2 <= tr(F_y) <= tr(F_x)
    |delta P_f|^2 <= db^T F db = 2 delta-H
"""

from .bounds import (
    BoundReport,
    DiscretePmfFamily,
    binomial_family,
    check_perturbation_bound,
    check_sensitivity_bound,
    discrete_kl,
    discrete_simplex_oracle,
    info_processing_check,
    kl_quadratic_consistency,
    pinsker_check,
    titu,
)
from .distributions import (
    InputModel,
    MarginalSpec,
    ParamVector,
    ScoredSampleBatch,
    joint_score_and_fim,
    lognormal,
    normal,
    sample,
)
from .errors import (
    ConfigError,
    ContractError,
    EvaluationError,
    ParameterDomainError,
    ProbsensError,
    SupportError,
)
from .fisher import FisherMatrix
from .mclr import (
    DensityGrid,
    SensitivityResult,
    estimate_gradient_fd,
    estimate_kl,
    estimate_output_density,
    estimate_output_fim,
    evaluate_outputs,
    sensitivity_curve,
)
from . import models

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConfigError",
    "ContractError",
    "DensityGrid",
    "DiscretePmfFamily",
    "EvaluationError",
    "FisherMatrix",
    "InputModel",
    "MarginalSpec",
    "ParamVector",
    "ParameterDomainError",
    "ProbsensError",
    "ScoredSampleBatch",
    "SensitivityResult",
    "SupportError",
    "binomial_family",
    "check_perturbation_bound",
    "check_sensitivity_bound",
    "discrete_kl",
    "discrete_simplex_oracle",
    "estimate_gradient_fd",
    "estimate_kl",
    "estimate_output_density",
    "estimate_output_fim",
    "evaluate_outputs",
    "info_processing_check",
    "joint_score_and_fim",
    "kl_quadratic_consistency",
    "lognormal",
    "models",
    "normal",
    "pinsker_check",
    "sample",
    "sensitivity_curve",
    "titu",
]
