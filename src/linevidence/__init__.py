"""Evidence-style scores for linear-in-parameters regression models.

The package computes two scalar summaries of how well a linear basis-function
model explains a dataset: the marginal likelihood under a proper Gaussian
coefficient prior, and the area under the likelihood when the coefficients
carry no prior at all.  Both come with exact posterior and predictive
distributions, diffuse-limit diagnostics, grid/simplex hyperparameter search,
and a fully Bayesian layer that averages over hyperparameters.  Brute-force
oracles (quadrature, Monte Carlo, resampling) back every closed form.
"""
from .exceptions import (
    AllDegenerate,
    ConsistencyError,
    DegenerateDof,
    DegenerateFitWarning,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyFeasibleGrid,
    LinEvidenceError,
    MixedKinds,
    NonFiniteMassWarning,
    RankDeficient,
    SingularPrior,
)
from .model import (
    BASIS_KINDS,
    BasisFamily,
    Dataset,
    DesignMatrix,
    GaussianBelief,
    HyperParams,
    build_design_matrix,
    feature_vector,
    log_likelihood,
    ml_estimate,
)
from .improper_prior import (
    EvidenceReport,
    log_area_under_likelihood,
    unbiased_noise_variance,
)
from .improper_prior import posterior_coefficients as flat_posterior_coefficients
from .gaussian_prior import (
    LadderPoint,
    diffuse_limit_decomposition,
    isotropic_prior,
    log_marginal_likelihood,
    penalty_crossing_scale,
    posterior_coefficients,
    predict_at,
)
from .selection import (
    ModelScore,
    OptimizerConfig,
    ProfileResult,
    bma_weights,
    empirical_bayes_optimize,
    log_bayes_factor,
    profile_likelihood,
)
from .full_bayes import (
    HyperPosteriorGrid,
    averaged_model_loglik,
    build_hyper_posterior,
    sample_posterior,
)
from .oracles import (
    QuadratureSpec,
    ResamplingStats,
    monte_carlo_log_marginal,
    output_covariance,
    quadrature_log_area,
    resampling_estimator_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AllDegenerate",
    "BASIS_KINDS",
    "BasisFamily",
    "ConsistencyError",
    "Dataset",
    "DegenerateDof",
    "DegenerateFitWarning",
    "DesignMatrix",
    "DimensionMismatch",
    "DimensionTooLarge",
    "EmptyFeasibleGrid",
    "EvidenceReport",
    "GaussianBelief",
    "HyperParams",
    "HyperPosteriorGrid",
    "LadderPoint",
    "LinEvidenceError",
    "MixedKinds",
    "ModelScore",
    "NonFiniteMassWarning",
    "OptimizerConfig",
    "ProfileResult",
    "QuadratureSpec",
    "RankDeficient",
    "ResamplingStats",
    "SingularPrior",
    "averaged_model_loglik",
    "bma_weights",
    "build_design_matrix",
    "build_hyper_posterior",
    "diffuse_limit_decomposition",
    "empirical_bayes_optimize",
    "feature_vector",
    "flat_posterior_coefficients",
    "isotropic_prior",
    "log_area_under_likelihood",
    "log_bayes_factor",
    "log_likelihood",
    "log_marginal_likelihood",
    "ml_estimate",
    "monte_carlo_log_marginal",
    "output_covariance",
    "penalty_crossing_scale",
    "posterior_coefficients",
    "predict_at",
    "profile_likelihood",
    "quadrature_log_area",
    "resampling_estimator_stats",
    "sample_posterior",
    "unbiased_noise_variance",
]
