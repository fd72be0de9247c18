"""Proper-prior posteriors, the marginal likelihood, and its diffuse limit."""
import math

import numpy as np
import pytest
from scipy import stats

from linevidence import (
    BasisFamily,
    ConsistencyError,
    Dataset,
    DesignMatrix,
    GaussianBelief,
    SingularPrior,
    build_design_matrix,
    diffuse_limit_decomposition,
    flat_posterior_coefficients,
    isotropic_prior,
    log_area_under_likelihood,
    log_marginal_likelihood,
    monte_carlo_log_marginal,
    output_covariance,
    penalty_crossing_scale,
    posterior_coefficients,
    predict_at,
    smooth,
)

TWO_POINT = Dataset(inputs=[[-1.0], [1.0]], outputs=[-2.0, 2.0])


def ones_design(n):
    ds = Dataset(inputs=np.zeros((n, 1)), outputs=np.zeros(n))
    return build_design_matrix(ds, BasisFamily("constant", 1), [])


def poly_design(n, m):
    x = np.linspace(-1.0, 1.0, n)
    ds = Dataset(inputs=x[:, None], outputs=np.zeros(n))
    return build_design_matrix(ds, BasisFamily("polynomial", m), [])


class TestIsotropicPrior:
    def test_builds_scaled_identity(self):
        prior = isotropic_prior(3, 2.5, 0.4)
        np.testing.assert_array_equal(prior.mean, [0.4, 0.4, 0.4])
        np.testing.assert_array_equal(prior.cov, 2.5 * np.eye(3))

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf])
    def test_bad_scale(self, scale):
        with pytest.raises(SingularPrior):
            isotropic_prior(2, scale)


class TestPosteriorCoefficients:
    def test_diffuse_limit_reaches_flat_posterior(self):
        eye = np.eye(2)
        design = DesignMatrix(phi=eye, gram=eye, chol=eye)
        y = np.array([1.5, -0.5])
        prior = isotropic_prior(2, 1e12)
        belief = posterior_coefficients(y, design, 1.0, prior)
        np.testing.assert_allclose(belief.mean, y, atol=1e-6)

    def test_concentrated_prior_pins_mean(self):
        design = poly_design(6, 2)
        y = np.full(6, 3.0)
        prior = isotropic_prior(2, 1e-12)
        belief = posterior_coefficients(y, design, 1.0, prior)
        assert np.max(np.abs(belief.mean)) < 1e-6

    def test_matches_direct_normal_equations(self):
        rng = np.random.default_rng(13)
        design = poly_design(5, 2)
        y = rng.normal(size=5)
        sigma2, scale, mu = 0.7, 1.8, 0.3
        prior = isotropic_prior(2, scale, mu)
        belief = posterior_coefficients(y, design, sigma2, prior)
        a = design.gram + (sigma2 / scale) * np.eye(2)
        shifted = y - design.phi @ prior.mean
        want = prior.mean + np.linalg.solve(a, design.phi.T @ shifted)
        np.testing.assert_allclose(belief.mean, want, rtol=1e-10)
        want_cov = sigma2 * np.linalg.inv(a)
        np.testing.assert_allclose(belief.cov, want_cov, rtol=1e-9)

    def test_dual_routes_agree_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 4)))
            design = poly_design(n, m)
            y = rng.normal(size=n)
            prior = isotropic_prior(m, float(rng.uniform(0.1, 10.0)), float(rng.normal()))
            # the internal M x M vs N x N comparison raises on disagreement
            posterior_coefficients(y, design, float(rng.uniform(0.2, 3.0)), prior)

    def test_singular_prior_rejected(self):
        design = poly_design(4, 2)
        prior = GaussianBelief(mean=[0.0, 0.0], cov=np.zeros((2, 2)))
        with pytest.raises(SingularPrior):
            posterior_coefficients(np.zeros(4), design, 1.0, prior)

    @pytest.mark.parametrize("score", [posterior_coefficients, log_marginal_likelihood])
    def test_numerically_singular_prior_rejected(self, score):
        # the factorization succeeds; the relative pivot check must reject it
        design = poly_design(5, 2)
        prior = GaussianBelief(mean=[0.0, 0.0], cov=np.diag([1.0, 1e-14]))
        with pytest.raises(SingularPrior) as excinfo:
            score(np.zeros(5), design, 1.0, prior)
        assert excinfo.value.__cause__ is None


class TestOutputCovarianceFailure:
    # sigma_e2 = 1e-300 makes the output covariance [[1, 1], [1, 1]] to
    # working precision, so its factorization fails at the second pivot
    @pytest.mark.parametrize(
        "score",
        [
            lambda y, design, prior: log_marginal_likelihood(y, design, 1e-300, prior),
            lambda y, design, prior: posterior_coefficients(y, design, 1e-300, prior),
            lambda y, design, prior: predict_at(
                0.0, BasisFamily("constant", 1), [], prior,
                design=design, sigma_e2=1e-300, prior=prior,
            ),
            lambda y, design, prior: diffuse_limit_decomposition(y, design, 1e-300, [1.0]),
        ],
        ids=["log_marginal", "posterior", "predict_at", "ladder"],
    )
    def test_raises_consistency_error(self, score):
        design = build_design_matrix(TWO_POINT, BasisFamily("constant", 1), [])
        with pytest.raises(ConsistencyError, match="positive definiteness"):
            score(TWO_POINT.outputs, design, isotropic_prior(1, 1.0))


class TestPredictAt:
    def test_null_feature(self):
        family = BasisFamily("gaussian-rbf", 1)
        posterior = GaussianBelief(mean=[1.0], cov=[[0.3]])
        assert predict_at(1e4, family, [0.0], posterior) == (0.0, 0.0)

    def test_diffuse_prior_matches_flat_prediction(self):
        rng = np.random.default_rng(15)
        x = np.linspace(-1, 1, 8)
        ds = Dataset(inputs=x[:, None], outputs=rng.normal(size=8))
        family = BasisFamily("polynomial", 2)
        design = build_design_matrix(ds, family, [])
        diffuse = posterior_coefficients(
            ds.outputs, design, 0.5, isotropic_prior(2, 1e10)
        )
        flat = flat_posterior_coefficients(ds.outputs, design, 0.5)
        mu_g, var_g = predict_at(0.4, family, [], diffuse)
        mu_f, var_f = predict_at(0.4, family, [], flat)
        assert mu_g == pytest.approx(mu_f, rel=1e-5)
        assert var_g == pytest.approx(var_f, rel=1e-5)

    def test_woodbury_variance_route_checked(self):
        rng = np.random.default_rng(16)
        design = poly_design(6, 2)
        y = rng.normal(size=6)
        prior = isotropic_prior(2, 2.0, 0.1)
        posterior = posterior_coefficients(y, design, 0.8, prior)
        mu, var = predict_at(
            0.2, BasisFamily("polynomial", 2), [], posterior,
            design=design, sigma_e2=0.8, prior=prior,
        )
        assert var > 0.0

    @pytest.mark.parametrize(
        "given",
        [("design",), ("sigma_e2", "prior"), ("design", "sigma_e2")],
        ids=["design_only", "no_design", "no_prior"],
    )
    def test_partial_woodbury_arguments_rejected(self, given):
        design = poly_design(6, 2)
        prior = isotropic_prior(2, 2.0)
        posterior = posterior_coefficients(np.zeros(6), design, 0.8, prior)
        available = {"design": design, "sigma_e2": 0.8, "prior": prior}
        with pytest.raises(ValueError, match="together"):
            predict_at(
                0.2, BasisFamily("polynomial", 2), [], posterior,
                **{name: available[name] for name in given},
            )

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(18)
        design = poly_design(7, 2)
        y = rng.normal(size=7)
        prior = isotropic_prior(2, 1.5, -0.2)
        posterior = posterior_coefficients(y, design, 0.6, prior)
        mu, var = predict_at(0.7, BasisFamily("polynomial", 2), [], posterior)
        draws = rng.multivariate_normal(posterior.mean, posterior.cov, size=100_000)
        vals = draws @ np.array([1.0, 0.7])
        assert abs(float(np.mean(vals)) - mu) < 3 * math.sqrt(var / 100_000)
        assert abs(float(np.var(vals, ddof=1)) - var) < 3 * var * math.sqrt(2.0 / 99_999)


class TestLogMarginal:
    def test_scalar_case(self):
        ds = Dataset(inputs=[[0.0]], outputs=[0.9])
        design = build_design_matrix(ds, BasisFamily("constant", 1), [])
        prior = isotropic_prior(1, 1.2, 0.5)
        report = log_marginal_likelihood(np.array([0.9]), design, 0.4, prior)
        exact = stats.norm.logpdf(0.9, loc=0.5, scale=math.sqrt(1.2 + 0.4))
        assert report.log_value == pytest.approx(exact, rel=1e-12)

    def test_ones_design_output_covariance_structure(self):
        design = ones_design(4)
        cov = output_covariance(design, 0.3, isotropic_prior(1, 2.0))
        # shared latent level: sigma_p2 everywhere, plus sigma_e2 on the diagonal
        np.testing.assert_allclose(cov, 2.0 * np.ones((4, 4)) + 0.3 * np.eye(4), rtol=1e-15)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(19)
        design = poly_design(4, 2)
        y = rng.normal(size=4)
        prior = isotropic_prior(2, 1.1, 0.2)
        report = log_marginal_likelihood(y, design, 0.9, prior)
        estimate, se = monte_carlo_log_marginal(y, design, 0.9, prior, 300_000, seed=23)
        assert abs(report.log_value - estimate) < 3 * se

    def test_report_identity(self):
        design = poly_design(5, 2)
        y = np.array([0.1, -0.4, 0.2, 0.9, -1.1])
        report = log_marginal_likelihood(y, design, 0.5, isotropic_prior(2, 3.0))
        total = report.fitting_term + report.penalty_term + report.constant_term
        assert report.log_value == pytest.approx(-total, rel=1e-12)


class TestDiffuseLadder:
    def setup_method(self):
        self.design = build_design_matrix(TWO_POINT, BasisFamily("constant", 1), [])
        self.y = TWO_POINT.outputs

    def test_part1_limit_value(self):
        rungs = diffuse_limit_decomposition(self.y, self.design, 1.0, [1e8])
        assert rungs[0].part1 == pytest.approx(4.0, abs=1e-4)

    def test_part1_limit_with_nonzero_prior_mean(self):
        # the constant shift lies in the column space, so the projected
        # residual and its limit are unchanged
        rungs = diffuse_limit_decomposition(self.y, self.design, 1.0, [1e8], prior_mean=2.0)
        assert rungs[0].part1 == pytest.approx(4.0, abs=1e-4)

    def test_part2_strictly_increasing_on_doubling_ladder(self):
        ladder = 0.01 * 2.0 ** np.arange(30)
        rungs = diffuse_limit_decomposition(self.y, self.design, 1.0, ladder)
        part2 = [r.part2 for r in rungs]
        assert all(b > a for a, b in zip(part2, part2[1:]))

    def test_log_z_strictly_decreasing_on_tail(self):
        ladder = np.logspace(4, 12, 40)
        rungs = diffuse_limit_decomposition(self.y, self.design, 1.0, ladder)
        log_z = [r.log_z for r in rungs]
        assert all(b < a for a, b in zip(log_z, log_z[1:]))

    def test_matches_marginal_likelihood_rungs(self):
        ladder = [0.5, 2.0, 50.0]
        rungs = diffuse_limit_decomposition(self.y, self.design, 1.0, ladder, prior_mean=2.0)
        for rung in rungs:
            prior = isotropic_prior(1, rung.sigma_p2, 2.0)
            report = log_marginal_likelihood(self.y, self.design, 1.0, prior)
            assert rung.log_z == pytest.approx(report.log_value, rel=1e-9)

    def test_gap_to_area_diverges(self):
        log_s = log_area_under_likelihood(self.y, self.design, 1.0).log_value
        ladder = np.logspace(0, 10, 6)
        rungs = diffuse_limit_decomposition(self.y, self.design, 1.0, ladder)
        gaps = [abs(r.log_z - log_s) for r in rungs[2:]]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize(
        "ladder", [[2.0, 1.0], [1.0, 1.0], [-1.0, 2.0], [], [math.inf]]
    )
    def test_bad_ladders_rejected(self, ladder):
        with pytest.raises(ValueError):
            diffuse_limit_decomposition(self.y, self.design, 1.0, ladder)


class TestPenaltyCrossing:
    def test_inverts_ladder_at_attainable_bound(self):
        design = build_design_matrix(TWO_POINT, BasisFamily("constant", 1), [])
        y = TWO_POINT.outputs
        target = diffuse_limit_decomposition(y, design, 1.0, [1e12])[0].part2
        log_scale = penalty_crossing_scale(design, 1.0, target)
        assert log_scale == pytest.approx(math.log(1e12), abs=1e-3)

    def test_huge_bound_stays_finite(self):
        design = build_design_matrix(TWO_POINT, BasisFamily("constant", 1), [])
        log_scale = penalty_crossing_scale(design, 1.0, 1e3)
        assert math.isfinite(log_scale)
        # the crossing scale grows monotonically with the bound
        assert log_scale < penalty_crossing_scale(design, 1.0, 1e4)
        # back-substitute into the large-scale growth law: part2 there is
        # within rounding of the requested bound
        lam = design.gram[0, 0]
        part2_at_crossing = 0.5 * (log_scale + math.log(lam))
        assert part2_at_crossing == pytest.approx(1e3, rel=1e-12)
