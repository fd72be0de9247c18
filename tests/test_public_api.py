"""The package's public surface.

A name added to or dropped from ``linevidence.__all__`` fails this test, so
every change to the surface comes with an edit to the list below.
"""
import linevidence

PUBLIC = [
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


def test_public_names_pinned():
    assert sorted(linevidence.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in linevidence.__all__ if not hasattr(linevidence, name)]
    assert missing == []
    namespace = {}
    exec("from linevidence import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
