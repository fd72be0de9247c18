"""Flat-prior posteriors and the area under the likelihood.

Frozen reference values below were produced by the tensor-grid quadrature
oracle (801 nodes, 12-sigma box) before the closed forms were trusted:

    y = [-1, 1], ones design, sigma_e2 = 1  ->  log S = -2.2655121234846
    y = [-2, 2], ones design, sigma_e2 = 1  ->  log S = -5.2655121234846
"""
import math

import numpy as np
import pytest

from linevidence import (
    BasisFamily,
    ConsistencyError,
    Dataset,
    DegenerateDof,
    DegenerateFitWarning,
    DesignMatrix,
    DimensionMismatch,
    EvidenceReport,
    GaussianBelief,
    QuadratureSpec,
    build_design_matrix,
    flat_posterior_coefficients,
    log_area_under_likelihood,
    log_likelihood,
    predict_at,
    quadrature_log_area,
    unbiased_noise_variance,
)

ONES_2 = BasisFamily("constant", 1)


def ones_design(n):
    ds = Dataset(inputs=np.zeros((n, 1)), outputs=np.zeros(n))
    return build_design_matrix(ds, ONES_2, [])


def poly_design(n, m):
    x = np.linspace(-1.0, 1.0, n)
    ds = Dataset(inputs=x[:, None], outputs=np.zeros(n))
    return build_design_matrix(ds, BasisFamily("polynomial", m), [])


def identity_design(n):
    eye = np.eye(n)
    return DesignMatrix(phi=eye, gram=eye, chol=eye)


class TestEvidenceReport:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            EvidenceReport(log_value=-1.0, fitting_term=1.0, penalty_term=1.0, constant_term=1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            EvidenceReport(
                log_value=-math.inf, fitting_term=math.inf, penalty_term=0.0, constant_term=0.0
            )


class TestPosteriorCoefficients:
    def test_identity_design(self):
        y = np.array([0.3, -1.2, 0.8])
        belief = flat_posterior_coefficients(y, identity_design(3), 1.0)
        np.testing.assert_allclose(belief.mean, y, rtol=1e-14)
        np.testing.assert_allclose(belief.cov, np.eye(3), rtol=1e-14)

    def test_ones_design_gives_sample_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        belief = flat_posterior_coefficients(y, ones_design(3), 0.5)
        assert belief.mean[0] == pytest.approx(3.0, rel=1e-14)
        assert belief.cov[0, 0] == pytest.approx(0.5 / 3.0, rel=1e-14)

    def test_mean_is_grid_argmax_of_likelihood(self):
        rng = np.random.default_rng(8)
        design = poly_design(5, 2)
        y = rng.normal(size=5)
        belief = flat_posterior_coefficients(y, design, 1.0)
        widths = np.sqrt(np.diag(belief.cov))
        axes = [
            np.linspace(belief.mean[i] - 2 * widths[i], belief.mean[i] + 2 * widths[i], 41)
            for i in range(2)
        ]
        best, best_val = None, -math.inf
        for t0 in axes[0]:
            for t1 in axes[1]:
                val = log_likelihood(y, design, [t0, t1], 1.0)
                if val > best_val:
                    best, best_val = (t0, t1), val
        spacing = [axes[i][1] - axes[i][0] for i in range(2)]
        assert abs(best[0] - belief.mean[0]) <= spacing[0]
        assert abs(best[1] - belief.mean[1]) <= spacing[1]


class TestPredictAt:
    def test_null_feature_vector(self):
        # an rbf center far from x underflows to an exactly zero feature
        family = BasisFamily("gaussian-rbf", 1)
        posterior = GaussianBelief(mean=[2.0], cov=[[0.5]])
        mu, var = predict_at(1e4, family, [0.0], posterior)
        assert mu == 0.0
        assert var == 0.0

    def test_training_point_identity_design(self):
        y = np.array([0.7, -0.4])
        sigma2 = 0.9
        belief = flat_posterior_coefficients(y, identity_design(2), sigma2)
        # the feature row of training point n under the identity design is
        # e_n, exercised through a posterior built on that design
        mu = float(belief.mean[1])
        var = float(belief.cov[1, 1])
        assert mu == pytest.approx(y[1], rel=1e-14)
        assert var == pytest.approx(sigma2, rel=1e-14)

    def test_matches_posterior_sampling_oracle(self):
        rng = np.random.default_rng(31)
        x = np.linspace(-1, 1, 7)
        ds = Dataset(inputs=x[:, None], outputs=rng.normal(size=7))
        family = BasisFamily("gaussian-rbf", 2)
        centers = [-0.5, 0.5]
        design = build_design_matrix(ds, family, centers)
        posterior = flat_posterior_coefficients(ds.outputs, design, 0.8)
        mu, var = predict_at(0.3, family, centers, posterior)
        draws = rng.multivariate_normal(posterior.mean, posterior.cov, size=100_000)
        row_vals = draws @ np.exp(-0.5 * (0.3 - np.asarray(centers)) ** 2)
        emp_mean = float(np.mean(row_vals))
        emp_var = float(np.var(row_vals, ddof=1))
        assert abs(emp_mean - mu) < 3 * math.sqrt(var / 100_000)
        assert abs(emp_var - var) < 3 * var * math.sqrt(2.0 / (100_000 - 1))

    def test_dimension_mismatch(self):
        posterior = GaussianBelief(mean=[0.0], cov=[[1.0]])
        with pytest.raises(DimensionMismatch):
            predict_at(0.0, BasisFamily("polynomial", 2), [], posterior)


class TestLogArea:
    def test_square_scalar_case_is_zero(self):
        ds = Dataset(inputs=[[0.0]], outputs=[3.7])
        design = build_design_matrix(ds, ONES_2, [])
        report = log_area_under_likelihood(np.array([3.7]), design, 2.3)
        assert report.log_value == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value_and_oracle_symmetric_pair(self):
        y = np.array([-1.0, 1.0])
        design = ones_design(2)
        report = log_area_under_likelihood(y, design, 1.0)
        assert report.log_value == pytest.approx(-2.2655121234846454, abs=1e-12)
        oracle = quadrature_log_area(y, design, 1.0, QuadratureSpec())
        assert report.log_value == pytest.approx(oracle, rel=1e-6)

    def test_frozen_value_wider_pair(self):
        y = np.array([-2.0, 2.0])
        design = ones_design(2)
        report = log_area_under_likelihood(y, design, 1.0)
        assert report.log_value == pytest.approx(-5.265512123484646, abs=1e-12)
        assert report.fitting_term == pytest.approx(4.0, rel=1e-14)
        assert report.penalty_term == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
        assert report.constant_term == pytest.approx(0.5 * math.log(2.0 * math.pi), rel=1e-14)
        oracle = quadrature_log_area(y, design, 1.0, QuadratureSpec())
        assert report.log_value == pytest.approx(oracle, rel=1e-6)

    def test_report_identity(self):
        rng = np.random.default_rng(2)
        design = poly_design(6, 2)
        y = rng.normal(size=6)
        report = log_area_under_likelihood(y, design, 0.4)
        total = report.fitting_term + report.penalty_term + report.constant_term
        assert report.log_value == pytest.approx(-total, rel=1e-12)


class TestUnbiasedNoiseVariance:
    @pytest.mark.parametrize("c,want", [(1.0, 2.0), (2.0, 8.0)])
    def test_two_point_values(self, c, want):
        y = np.array([-c, c])
        assert unbiased_noise_variance(y, ones_design(2)) == pytest.approx(want, rel=1e-14)

    def test_interpolating_fit_warns(self):
        design = poly_design(3, 2)
        y = design.phi @ np.array([1.0, 2.0])
        with pytest.warns(DegenerateFitWarning):
            value = unbiased_noise_variance(y, design)
        assert value == pytest.approx(0.0, abs=1e-20)

    def test_square_design_rejected(self):
        design = poly_design(2, 2)
        with pytest.raises(DegenerateDof):
            unbiased_noise_variance(np.array([1.0, 2.0]), design)


class TestInternalIdentities:
    def test_consistency_error_is_exported(self):
        assert issubclass(ConsistencyError, Exception)
