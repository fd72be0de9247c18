"""Proper-prior posteriors, the marginal likelihood, and its diffuse limit."""
import math

import numpy as np
import pytest
from scipy import stats

from linevidence import cli, gaussian_prior, model
from linevidence import (
    BasisFamily,
    ConsistencyError,
    Dataset,
    DesignMatrix,
    DimensionMismatch,
    GaussianBelief,
    RankDeficient,
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

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_bad_scale(self, scale):
        # the one check on a prior scale, now that HyperParams carries none
        with pytest.raises(SingularPrior, match="prior scale must be positive and finite"):
            isotropic_prior(2, scale)

    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_nonfinite_mean(self, mean):
        with pytest.raises(ValueError, match="prior mean must be finite"):
            isotropic_prior(2, 1.0, mean)


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
        # the symmetric design makes the off-diagonal exactly zero, which a
        # backward-stable route reproduces only to a few eps of the largest entry
        np.testing.assert_allclose(
            belief.cov, want_cov, rtol=1e-9, atol=4 * np.finfo(float).eps * np.abs(want_cov).max()
        )

    def test_dual_routes_agree_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 4)))
            design = poly_design(n, m)
            y = rng.normal(size=n)
            prior = isotropic_prior(m, float(rng.uniform(0.1, 10.0)), float(rng.normal()))
            # the internal augmented-QR vs M x M Cholesky comparison raises on disagreement
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


def _entry_points(y, design, sigma_e2, prior, posterior):
    """Each Gaussian-prior entry point on one problem, as a zero-argument call."""
    return {
        "log_marginal": lambda: log_marginal_likelihood(y, design, sigma_e2, prior),
        "posterior": lambda: posterior_coefficients(y, design, sigma_e2, prior),
        "predict_at": lambda: predict_at(
            0.3, BasisFamily("polynomial", design.m), [], posterior,
            design=design, sigma_e2=sigma_e2, prior=prior,
        ),
        "ladder": lambda: diffuse_limit_decomposition(
            y, design, sigma_e2, [float(prior.cov[0, 0])], prior_mean=float(prior.mean[0])
        ),
    }


ENTRY_POINTS = ["log_marginal", "posterior", "predict_at", "ladder"]


def test_entry_points_factor_the_design_once(monkeypatch):
    # the Gaussian-prior entry points of one op of the evidence-large-n
    # benchmark share the design's one thin QR; the per-fit 2M-row QRs do
    # not factor the design
    formed = []
    original = model._thin_qr

    def counted(matrix, *args):
        formed.append(matrix.shape)
        return original(matrix, *args)

    monkeypatch.setattr(model, "_thin_qr", counted)
    rng = np.random.default_rng(22)
    x = np.linspace(0.0, 10.0, 600)
    family, centers = BasisFamily("gaussian-rbf", 8), np.linspace(0.5, 9.5, 8)
    ds = Dataset(inputs=x[:, None], outputs=np.sin(x) + rng.normal(0.0, 0.3, 600))
    design = build_design_matrix(ds, family, centers)
    prior = isotropic_prior(8, 1.0)
    log_marginal_likelihood(ds.outputs, design, 0.09, prior)
    posterior = posterior_coefficients(ds.outputs, design, 0.09, prior)
    predict_at(4.2, family, centers, posterior, design=design, sigma_e2=0.09, prior=prior)
    diffuse_limit_decomposition(ds.outputs, design, 0.09, [0.1, 1.0, 10.0, 100.0])
    assert formed == [(600, 8)]


@pytest.mark.parametrize(
    "shape, transposed",
    [((2000,), False), ((8,), False), ((8, 8), False), ((8, 8), True), ((9, 5), True)],
)
def test_norm_is_numpys_bitwise(shape, transposed):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    for _ in range(20):
        v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150.0, 150.0)
        v = v.T if transposed else v
        assert v.flags.c_contiguous != transposed
        assert gaussian_prior._norm(v) == np.linalg.norm(v)


class TestRouteCheck:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("corrupt", ["beta", "cov", "log_det"])
    def test_route_disagreement_raises(self, monkeypatch, entry, corrupt):
        original = gaussian_prior._cholesky_route

        def corrupted(*args):
            beta, cov, log_det_a = original(*args)
            if corrupt == "beta":
                return beta + 1e-3 * (1.0 + np.abs(beta)), cov, log_det_a
            if corrupt == "cov":
                return beta, cov * (1.0 + 1e-3), log_det_a
            return beta, cov, log_det_a + 1e-3

        design = poly_design(6, 2)
        y = np.array([0.3, -1.2, 0.4, 2.0, -0.7, 1.1])
        prior = isotropic_prior(2, 2.0, 0.1)
        posterior = posterior_coefficients(y, design, 0.8, prior)
        call = _entry_points(y, design, 0.8, prior, posterior)[entry]
        call()
        monkeypatch.setattr(gaussian_prior, "_cholesky_route", corrupted)
        with pytest.raises(ConsistencyError, match="routes disagree"):
            call()

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_singular_precision_raises_package_error(self, entry):
        # a rank-one design that bypassed build_design_matrix's rank check:
        # with sigma_e2 = 1e-300 the posterior precision is singular to
        # working precision, and numpy's LinAlgError must not escape
        phi = np.array([[1.0, 1.0], [0.0, 0.0]])
        design = DesignMatrix(phi=phi, gram=phi.T @ phi, chol=np.eye(2))
        prior = isotropic_prior(2, 1.0)
        call = _entry_points(np.array([1.0, -1.0]), design, 1e-300, prior, prior)[entry]
        with pytest.raises(SingularPrior, match="posterior precision"):
            call()

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_tiny_noise_scores_without_output_covariance(self, entry):
        # the output covariance [[1, 1], [1, 1]] + 1e-300 I cannot be
        # factored in double precision, but the evidence is well defined:
        # y = (-2, 2) is its sigma_e2-eigenvector, so the Mahalanobis norm
        # is 8 / sigma_e2 and the determinant is sigma_e2 (2 + sigma_e2)
        design = build_design_matrix(TWO_POINT, BasisFamily("constant", 1), [])
        y = TWO_POINT.outputs
        prior = isotropic_prior(1, 1.0)
        posterior = posterior_coefficients(y, design, 1e-300, prior)
        _entry_points(y, design, 1e-300, prior, posterior)[entry]()
        report = log_marginal_likelihood(y, design, 1e-300, prior)
        assert report.fitting_term == pytest.approx(4e300, rel=1e-14)
        assert report.penalty_term == pytest.approx(
            0.5 * (math.log(1e-300) + math.log(2.0)), rel=1e-14
        )


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

    def test_design_of_other_width_than_posterior_rejected(self):
        prior = isotropic_prior(2, 2.0)
        posterior = posterior_coefficients(np.zeros(6), poly_design(6, 2), 0.8, prior)
        with pytest.raises(DimensionMismatch, match="columns"):
            predict_at(
                0.2, BasisFamily("polynomial", 2), [], posterior,
                design=poly_design(6, 3), sigma_e2=0.8, prior=isotropic_prior(3, 2.0),
            )

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

    @pytest.mark.parametrize("case", ["zero_mean", "isotropic_mean", "full_prior"])
    def test_recheck_covariance_is_the_fit_at_the_prior_mean(self, monkeypatch, case):
        rng = np.random.default_rng(19)
        x = np.linspace(0.0, 10.0, 300)
        family, centers = BasisFamily("gaussian-rbf", 6), np.linspace(1.0, 9.0, 6)
        ds = Dataset(inputs=x[:, None], outputs=np.sin(x))
        design = build_design_matrix(ds, family, centers)
        if case == "full_prior":
            root = rng.standard_normal((6, 6))
            prior = GaussianBelief(mean=rng.normal(size=6), cov=root @ root.T + 0.5 * np.eye(6))
        else:
            prior = isotropic_prior(6, 1.5, 0.0 if case == "zero_mean" else 0.7)
        posterior = posterior_coefficients(ds.outputs, design, 0.09, prior)
        expected = gaussian_prior._ridge_fit(design.phi @ prior.mean, design, 0.09, prior)
        fits = []
        original = gaussian_prior._covariance_fit

        def recorded(*args):
            fits.append(original(*args))
            return fits[-1]

        monkeypatch.setattr(gaussian_prior, "_covariance_fit", recorded)
        predict_at(4.2, family, centers, posterior, design=design, sigma_e2=0.09, prior=prior)
        [fit] = fits
        assert fit.cov.tobytes() == expected.cov.tobytes()
        assert fit.cond == expected.cond

    def test_recheck_forms_no_data_products(self, monkeypatch):
        calls = []
        original = gaussian_prior._shift

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(gaussian_prior, "_shift", counted)
        design = poly_design(6, 2)
        prior = isotropic_prior(2, 2.0, 0.1)
        posterior = posterior_coefficients(np.linspace(-1.0, 1.0, 6), design, 0.8, prior)
        assert len(calls) == 1
        predict_at(
            0.2, BasisFamily("polynomial", 2), [], posterior,
            design=design, sigma_e2=0.8, prior=prior,
        )
        assert len(calls) == 1

    def test_recheck_rejects_a_perturbed_posterior(self):
        design = poly_design(6, 2)
        prior = isotropic_prior(2, 2.0, 0.1)
        posterior = posterior_coefficients(np.linspace(-1.0, 1.0, 6), design, 0.8, prior)
        perturbed = GaussianBelief(mean=posterior.mean, cov=posterior.cov * (1.0 + 1e-6))
        with pytest.raises(ConsistencyError, match="predictive variance"):
            predict_at(
                0.2, BasisFamily("polynomial", 2), [], perturbed,
                design=design, sigma_e2=0.8, prior=prior,
            )

    @pytest.mark.parametrize("sigma_e2", [0.0, -0.8, math.nan, math.inf])
    def test_recheck_rejects_bad_noise_variance(self, sigma_e2):
        design = poly_design(6, 2)
        prior = isotropic_prior(2, 2.0)
        posterior = posterior_coefficients(np.zeros(6), design, 0.8, prior)
        with pytest.raises(ValueError, match="sigma_e2 must be a positive finite number"):
            predict_at(
                0.2, BasisFamily("polynomial", 2), [], posterior,
                design=design, sigma_e2=sigma_e2, prior=prior,
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

    @pytest.mark.parametrize("n", [1024, 1100])
    def test_matches_dense_output_covariance_at_large_n(self, n):
        # the design's N rows exceed two QR row blocks, so its blocked
        # factorization runs, with leftover rows (1100) and without (1024)
        rng = np.random.default_rng(20)
        x = np.linspace(0.0, 10.0, n)
        ds = Dataset(inputs=x[:, None], outputs=np.sin(x) + rng.normal(0.0, 0.3, n))
        design = build_design_matrix(
            ds, BasisFamily("gaussian-rbf", 8, width=1.0), np.linspace(0.5, 9.5, 8)
        )
        prior = isotropic_prior(8, 1.5, 0.2)
        report = log_marginal_likelihood(ds.outputs, design, 0.09, prior)
        cov = output_covariance(design, 0.09, prior)
        want = stats.multivariate_normal.logpdf(ds.outputs, design.phi @ prior.mean, cov)
        assert report.log_value == pytest.approx(want, rel=1e-11)
        belief = posterior_coefficients(ds.outputs, design, 0.09, prior)
        gain = np.linalg.solve(cov, design.phi @ prior.cov).T
        np.testing.assert_allclose(
            belief.mean, prior.mean + gain @ (ds.outputs - design.phi @ prior.mean), rtol=1e-9
        )
        np.testing.assert_allclose(
            belief.cov, prior.cov - gain @ design.phi @ prior.cov, rtol=1e-8, atol=1e-14
        )

    def test_full_prior_covariance_matches_dense_oracle(self):
        # a correlated prior with unequal scales: its Cholesky factor, and so
        # the inverse factor that borders the augmented design, is full lower
        # triangular, unlike the diagonal factor of every isotropic prior
        rng = np.random.default_rng(21)
        design = poly_design(12, 4)
        y = rng.normal(size=12)
        root = np.tril(rng.normal(size=(4, 4))) + np.diag([2.0, 0.5, 1.5, 0.8])
        cov = root @ root.T
        prior = GaussianBelief(mean=[0.3, -0.2, 0.1, 0.5], cov=0.5 * (cov + cov.T))
        fit = gaussian_prior._ridge_fit(y, design, 0.4, prior)
        dense = output_covariance(design, 0.4, prior)
        want = stats.multivariate_normal.logpdf(y, design.phi @ prior.mean, dense)
        constant = 0.5 * design.n * math.log(2.0 * math.pi)
        assert -(fit.fitting + fit.penalty + constant) == pytest.approx(want, rel=1e-12)
        gain = np.linalg.solve(dense, design.phi @ prior.cov).T
        np.testing.assert_allclose(
            fit.mean, prior.mean + gain @ (y - design.phi @ prior.mean), rtol=1e-10
        )
        np.testing.assert_allclose(
            fit.cov, prior.cov - gain @ design.phi @ prior.cov, rtol=1e-9, atol=1e-14
        )

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
        # each rung is, bitwise, the log_marginal_likelihood report of its prior
        design = poly_design(7, 3)
        y = np.array([0.3, -1.2, 0.4, 2.0, -0.7, 1.1, 0.5])
        rungs = diffuse_limit_decomposition(y, design, 0.8, [0.5, 2.0, 50.0], prior_mean=0.7)
        for rung in rungs:
            prior = isotropic_prior(3, rung.sigma_p2, 0.7)
            report = log_marginal_likelihood(y, design, 0.8, prior)
            assert (rung.log_z, rung.part1, rung.part2) == (
                report.log_value, report.fitting_term, report.penalty_term
            )

    @pytest.mark.parametrize("corrupt", ["beta", "cov", "log_det"])
    def test_every_rung_checks_its_routes(self, monkeypatch, corrupt):
        # the rungs share the data's products, not their checks: a route
        # that disagrees on the middle rung alone still raises
        original = gaussian_prior._cholesky_route
        calls = []

        def corrupted(*args):
            beta, cov, log_det_a = original(*args)
            calls.append(None)
            if len(calls) != 2:
                return beta, cov, log_det_a
            if corrupt == "beta":
                return beta + 1e-3 * (1.0 + np.abs(beta)), cov, log_det_a
            if corrupt == "cov":
                return beta, cov * (1.0 + 1e-3), log_det_a
            return beta, cov, log_det_a + 1e-3

        design = poly_design(6, 2)
        y = np.array([0.3, -1.2, 0.4, 2.0, -0.7, 1.1])
        monkeypatch.setattr(gaussian_prior, "_cholesky_route", corrupted)
        with pytest.raises(ConsistencyError, match="routes disagree"):
            diffuse_limit_decomposition(y, design, 0.8, [0.5, 2.0, 50.0], prior_mean=0.1)
        assert len(calls) == 2

    def test_each_rung_runs_a_checked_fit_on_one_design_qr(self, monkeypatch):
        # K rungs: K prior-covariance checks and K route pairs, but one thin
        # QR of the design, as test_entry_points_factor_the_design_once counts
        counts = {"prior covariance": 0, "qr": 0, "cholesky": 0}
        formed = []
        checked, qr_route = gaussian_prior._checked_cholesky, gaussian_prior._qr_route
        cholesky_route, thin_qr = gaussian_prior._cholesky_route, model._thin_qr

        def counted_check(matrix, error, what):
            counts[what] = counts.get(what, 0) + 1
            return checked(matrix, error, what)

        def counted_qr(*args):
            counts["qr"] += 1
            return qr_route(*args)

        def counted_cholesky(*args):
            counts["cholesky"] += 1
            return cholesky_route(*args)

        def counted_thin_qr(matrix, *args):
            formed.append(matrix.shape)
            return thin_qr(matrix, *args)

        monkeypatch.setattr(gaussian_prior, "_checked_cholesky", counted_check)
        monkeypatch.setattr(gaussian_prior, "_qr_route", counted_qr)
        monkeypatch.setattr(gaussian_prior, "_cholesky_route", counted_cholesky)
        monkeypatch.setattr(model, "_thin_qr", counted_thin_qr)
        design = poly_design(40, 4)
        y = np.sin(np.linspace(0.0, 3.0, 40))
        ladder = np.logspace(-2, 6, 5)
        diffuse_limit_decomposition(y, design, 0.3, ladder, prior_mean=0.2)
        assert counts == {
            "prior covariance": 5, "posterior precision": 5, "qr": 5, "cholesky": 5
        }
        assert formed == [(40, 4)]

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
        ex2 = TestExample2Designs.dataset(0)
        problems = [
            (TWO_POINT, BasisFamily("constant", 1), [], 1.0),
            (ex2, cli._EX2_FAMILY, cli._EX2_ALPHA, cli._EX2_SIGMA2),
        ]
        for ds, family, alpha, sigma_e2 in problems:
            design = build_design_matrix(ds, family, alpha)
            target = diffuse_limit_decomposition(ds.outputs, design, sigma_e2, [1e12])[0].part2
            log_scale = penalty_crossing_scale(design, sigma_e2, target)
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


class TestExample2Designs:
    """The paper's exp(|x - c|) designs, where the output covariance has a
    condition number far beyond 1/eps and only the M x M routes can score."""

    @staticmethod
    def dataset(rep):
        rng = np.random.default_rng(np.random.SeedSequence([20250811, rep]))
        y = cli._example2_truth() + rng.normal(0.0, math.sqrt(cli._EX2_SIGMA2), cli._EX2_N)
        return Dataset(inputs=cli._EX2_X[:, None], outputs=y)

    @pytest.mark.parametrize("sigma_p2", [1.0, 1e4])
    def test_log_z_matches_60_digit_reference(self, sigma_p2):
        mp = pytest.importorskip("mpmath")
        ds = self.dataset(0)
        design = build_design_matrix(ds, cli._EX2_FAMILY, cli._EX2_ALPHA)
        report = log_marginal_likelihood(
            ds.outputs, design, cli._EX2_SIGMA2, isotropic_prior(2, sigma_p2)
        )
        with mp.workdps(60):
            # determinant lemma and Woodbury form on the same double-precision
            # inputs; 60 digits absorb the ~14 the Woodbury difference cancels
            phi = mp.matrix(design.phi.tolist())
            y = mp.matrix(ds.outputs.tolist())
            s2, sp2 = mp.mpf(cli._EX2_SIGMA2), mp.mpf(sigma_p2)
            a = phi.T * phi + (s2 / sp2) * mp.eye(2)
            b = phi.T * y
            quad = ((y.T * y)[0] - (b.T * mp.lu_solve(a, b))[0]) / s2
            log_det = (design.n - 2) * mp.log(s2) + 2 * mp.log(sp2) + mp.log(mp.det(a))
            want = -(quad + log_det + design.n * mp.log(2 * mp.pi)) / 2
            assert abs((report.log_value - want) / want) <= 1e-9

    def test_ladder_rungs_are_log_marginal_likelihood(self):
        ds = self.dataset(0)
        design = build_design_matrix(ds, cli._EX2_FAMILY, cli._EX2_ALPHA)
        rungs = diffuse_limit_decomposition(ds.outputs, design, cli._EX2_SIGMA2, [1.0, 1e4])
        for rung in rungs:
            report = log_marginal_likelihood(
                ds.outputs, design, cli._EX2_SIGMA2, isotropic_prior(2, rung.sigma_p2)
            )
            assert rung.log_z == pytest.approx(report.log_value, rel=1e-12)
            assert rung.part1 == pytest.approx(report.fitting_term, rel=1e-12)
            assert rung.part2 == pytest.approx(report.penalty_term, rel=1e-12)

    def test_diffuse_rung_falls_below_area_by_prior_volume(self):
        # Z = S E[N(theta | 0, s I)] over the flat posterior N(theta_hat,
        # sigma_e2 G^{-1}), so for large s log Z + (M/2) log(2 pi s) - log S
        # = -(||theta_hat||^2 + sigma_e2 tr G^{-1}) / (2 s) + O(1/s^2):
        # Z -> 0 rather than S
        ds = self.dataset(0)
        sigma_e2, s = cli._EX2_SIGMA2, 1e4
        design = build_design_matrix(ds, cli._EX2_FAMILY, cli._EX2_ALPHA)
        rung = diffuse_limit_decomposition(ds.outputs, design, sigma_e2, [s])[0]
        log_s = log_area_under_likelihood(ds.outputs, design, sigma_e2).log_value
        theta_hat = flat_posterior_coefficients(ds.outputs, design, sigma_e2).mean
        gap = rung.log_z + 0.5 * design.m * math.log(2.0 * math.pi * s) - log_s
        want = -(theta_hat @ theta_hat + sigma_e2 * np.trace(np.linalg.inv(design.gram))) / (2 * s)
        assert gap == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("sigma_p2", [1e-2, 1.0, 1e4, 1e8])
    def test_every_admitted_grid_design_scores(self, sigma_p2):
        # every design of the ordered 41 x 41 grid that the rank check admits
        # gets a finite log Z; the build rejects the other 64 pairs
        ds = self.dataset(0)
        prior = isotropic_prior(2, sigma_p2)
        axis = np.linspace(-10.0, 10.0, 41)
        admitted = 0
        for i, a0 in enumerate(axis):
            for a1 in axis[i + 1:]:
                try:
                    design = build_design_matrix(ds, cli._EX2_FAMILY, [a0, a1])
                except RankDeficient:
                    continue
                value = log_marginal_likelihood(ds.outputs, design, cli._EX2_SIGMA2, prior)
                assert math.isfinite(value.log_value)
                admitted += 1
        assert admitted == 756
