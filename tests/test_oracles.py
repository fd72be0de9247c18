"""Self-checks for the brute-force verifiers.

The oracles are trusted by every other test module, so they are validated
here against third-party integration (scipy.integrate) and against closed
scalar formulas that need no linear algebra at all.
"""
import math

import numpy as np
import pytest
from scipy import integrate, stats

from linevidence import (
    BasisFamily,
    Dataset,
    DimensionTooLarge,
    QuadratureSpec,
    build_design_matrix,
    isotropic_prior,
    log_likelihood,
    monte_carlo_log_marginal,
    quadrature_log_area,
    resampling_estimator_stats,
)


def poly_design(n, m, y=None):
    x = np.linspace(-1.0, 1.0, n)
    outputs = np.zeros(n) if y is None else y
    dataset = Dataset(inputs=x[:, None], outputs=outputs)
    return build_design_matrix(dataset, BasisFamily("polynomial", m), [])


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.nodes_per_dim == 801

    @pytest.mark.parametrize("nodes", [2, 800, 1])
    def test_rejects_even_or_tiny_node_counts(self, nodes):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_dim=nodes)

    @pytest.mark.parametrize("nodes", [3.0, 801.0, np.float64(5.0)])
    def test_rejects_non_integer_node_counts(self, nodes):
        # a float count would reach np.linspace and fail there with a TypeError
        with pytest.raises(ValueError, match="odd integer"):
            QuadratureSpec(nodes_per_dim=nodes)

    def test_accepts_numpy_integer_node_counts(self):
        assert QuadratureSpec(nodes_per_dim=np.int64(5)).nodes_per_dim == 5


class TestQuadratureArea:
    def test_normalized_gaussian_has_zero_log_area(self):
        # N = M = 1: the likelihood is a normalized density in theta, so the
        # area is exactly 1 whatever y and sigma_e2 are
        design = poly_design(1, 1)
        y = np.array([0.7])
        assert quadrature_log_area(y, design, 0.9, QuadratureSpec()) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_one_dim_matches_adaptive_scipy_quad(self):
        design = poly_design(3, 1)
        y = np.array([0.4, -1.1, 0.6])
        sigma2 = 0.8
        theta_hat = float(np.linalg.lstsq(design.phi, y, rcond=None)[0][0])
        ll_max = log_likelihood(y, design, [theta_hat], sigma2)
        width = math.sqrt(sigma2 / design.gram[0, 0])

        def shifted_lik(t):
            return math.exp(log_likelihood(y, design, [t], sigma2) - ll_max)

        value, err = integrate.quad(
            shifted_lik, theta_hat - 15 * width, theta_hat + 15 * width,
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        assert err < 1e-10
        expected = ll_max + math.log(value)
        ours = quadrature_log_area(y, design, sigma2, QuadratureSpec())
        assert ours == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_two_dim_matches_scipy_dblquad(self):
        design = poly_design(4, 2)
        y = np.array([0.2, -0.5, 1.3, 0.1])
        sigma2 = 0.6
        theta_hat = np.linalg.lstsq(design.phi, y, rcond=None)[0]
        ll_max = log_likelihood(y, design, theta_hat, sigma2)
        cov = sigma2 * np.linalg.inv(design.gram)
        w0, w1 = np.sqrt(np.diag(cov))

        def shifted_lik(t1, t0):
            return math.exp(log_likelihood(y, design, [t0, t1], sigma2) - ll_max)

        value, err = integrate.dblquad(
            shifted_lik,
            theta_hat[0] - 12 * w0, theta_hat[0] + 12 * w0,
            theta_hat[1] - 12 * w1, theta_hat[1] + 12 * w1,
            epsabs=1e-11, epsrel=1e-10,
        )
        expected = ll_max + math.log(value)
        ours = quadrature_log_area(y, design, sigma2, QuadratureSpec())
        assert ours == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stable_under_grid_refinement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 3))
        design = poly_design(n, m)
        y = rng.normal(size=n)
        sigma2 = float(rng.uniform(0.3, 2.0))
        coarse = quadrature_log_area(y, design, sigma2, QuadratureSpec())
        fine = quadrature_log_area(y, design, sigma2, QuadratureSpec(nodes_per_dim=1603))
        assert abs(fine - coarse) < 1e-7

    def test_three_dims_rejected(self):
        design = poly_design(5, 3)
        with pytest.raises(DimensionTooLarge):
            quadrature_log_area(np.zeros(5), design, 1.0, QuadratureSpec())


class TestMonteCarloMarginal:
    def test_scalar_case_matches_normal_density(self):
        # N=1, constant basis: marginalizing theta gives
        # y ~ N(mu_p, sigma_p2 + sigma_e2) in closed scalar form
        dataset = Dataset(inputs=[[0.0]], outputs=[1.3])
        design = build_design_matrix(dataset, BasisFamily("constant", 1), [])
        prior = isotropic_prior(1, 2.0, 0.4)
        estimate, se = monte_carlo_log_marginal(
            np.array([1.3]), design, 0.7, prior, 200_000, seed=11
        )
        exact = stats.norm.logpdf(1.3, loc=0.4, scale=math.sqrt(2.0 + 0.7))
        assert abs(estimate - exact) < 3 * se
        assert se < 0.02

    def test_seed_reproducibility(self):
        design = poly_design(4, 2)
        y = np.array([0.1, 0.4, -0.2, 0.9])
        prior = isotropic_prior(2, 1.5)
        first = monte_carlo_log_marginal(y, design, 1.0, prior, 50_000, seed=5)
        second = monte_carlo_log_marginal(y, design, 1.0, prior, 50_000, seed=5)
        third = monte_carlo_log_marginal(y, design, 1.0, prior, 50_000, seed=6)
        assert first == second
        assert first != third

    def test_agrees_with_quadrature_through_diffuse_prior(self):
        # with a wide prior, Z ~= S * prior_density(theta_hat): instead of
        # chaining approximations, check Z directly against a dense-prior
        # numeric integral at modest scale
        design = poly_design(4, 1)
        y = np.array([0.5, 0.2, -0.1, 0.8])
        sigma2 = 0.5
        prior = isotropic_prior(1, 0.8, 0.0)

        def integrand(t):
            return math.exp(
                log_likelihood(y, design, [t], sigma2)
                + stats.norm.logpdf(t, scale=math.sqrt(0.8))
            )

        value, _ = integrate.quad(integrand, -12.0, 12.0, epsabs=1e-14, limit=200)
        estimate, se = monte_carlo_log_marginal(y, design, sigma2, prior, 400_000, seed=3)
        assert abs(estimate - math.log(value)) < 3 * se


class TestResampling:
    def test_scalar_theory(self):
        n, sigma2 = 8, 0.9
        dataset = Dataset(inputs=np.zeros((n, 1)), outputs=np.zeros(n))
        design = build_design_matrix(dataset, BasisFamily("constant", 1), [])
        stats_out = resampling_estimator_stats(
            design, np.array([2.0]), sigma2, 4000, seed=21
        )
        want = sigma2 / n
        got = float(stats_out.theta_cov[0, 0])
        se = want * math.sqrt(2.0 / (4000 - 1))
        assert abs(got - want) < 3 * se
        assert abs(stats_out.theta_mean[0] - 2.0) < 3 * math.sqrt(want / 4000)

    def test_variance_estimator_means(self):
        design = poly_design(12, 2)
        out = resampling_estimator_stats(design, np.array([1.0, -0.5]), 0.7, 3000, seed=9)
        se_unb = math.sqrt(out.sigma2_unbiased_var / out.n_reps)
        se_ml = math.sqrt(out.sigma2_ml_var / out.n_reps)
        assert abs(out.sigma2_unbiased_mean - 0.7) < 3 * se_unb
        assert abs(out.sigma2_ml_mean - (10 / 12) * 0.7) < 3 * se_ml

    def test_seed_reproducibility_and_floor(self):
        design = poly_design(6, 2)
        theta = np.array([0.3, 0.1])
        a = resampling_estimator_stats(design, theta, 1.0, 1000, seed=2)
        b = resampling_estimator_stats(design, theta, 1.0, 1000, seed=2)
        assert np.array_equal(a.theta_cov, b.theta_cov)
        assert a.sigma2_ml_mean == b.sigma2_ml_mean
        with pytest.raises(ValueError):
            resampling_estimator_stats(design, theta, 1.0, 999, seed=2)
