"""Grid posterior over hyperparameters and two-step joint sampling."""
import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
import scipy.optimize

import linevidence
from linevidence import (
    AllDegenerate,
    BasisFamily,
    Dataset,
    DimensionMismatch,
    HyperParams,
    NonFiniteMassWarning,
    RankDeficient,
    averaged_model_loglik,
    build_design_matrix,
    build_hyper_posterior,
    flat_posterior_coefficients,
    log_area_under_likelihood,
    log_likelihood,
    profile_likelihood,
    sample_posterior,
)


def rbf_dataset(seed=7, n=40, center=1.0):
    rng = np.random.default_rng(seed)
    x = np.linspace(-3.0, 5.0, n)
    family = BasisFamily("gaussian-rbf", 1, width=1.0)
    truth = build_design_matrix(
        Dataset(inputs=x[:, None], outputs=np.zeros(n)), family, [center]
    )
    y = truth.phi @ np.array([2.0]) + rng.normal(0.0, 0.3, n)
    return Dataset(inputs=x[:, None], outputs=y), family


FIXED_RBF = HyperParams(alpha=[0.0], sigma_e2=0.09)
ALPHA_SIGMA = ["alpha0", "sigma_e2"]
# what a NaN or inf in each column of a sweep's points raises
NONFINITE_MESSAGES = {
    "alpha0": "alpha must contain only finite values",
    "sigma_e2": "sigma_e2 must be a positive finite number",
}


@pytest.fixture
def design_builds(monkeypatch):
    """Count build_design_matrix calls through every package binding of it."""
    original = linevidence.model.build_design_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for module in (linevidence.model, linevidence.selection, linevidence.full_bayes):
        if getattr(module, "build_design_matrix", None) is original:
            monkeypatch.setattr(module, "build_design_matrix", counted)
    return calls


def calls_before_polish(monkeypatch, calls):
    """``len(calls)`` at the start of every Nelder-Mead polish, as it is reached."""
    seen = []
    minimize = scipy.optimize.minimize

    def recorded(*args, **kwargs):
        seen.append(len(calls))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recorded)
    return seen


def alpha_sigma_grid(alphas, sigmas):
    """Product grid over (alpha0, sigma_e2) with sigma_e2 varying fastest."""
    return np.array(list(itertools.product(alphas, sigmas)))


class TestBuildHyperPosterior:
    def test_single_point_gets_all_mass(self):
        ds, family = rbf_dataset()
        with pytest.warns(NonFiniteMassWarning):
            # a one-point grid is all boundary, so the finite-mass heuristic
            # necessarily complains
            grid = build_hyper_posterior(ds, family, [[1.0]], fixed=FIXED_RBF)
        assert grid.size == 1
        assert grid.probs[0] == 1.0
        assert not grid.failed[0]

    def test_symmetric_tie_splits_mass_exactly(self):
        ds = Dataset(inputs=[[0.0], [0.0]], outputs=[1.0, 2.0])
        family = BasisFamily("gaussian-rbf", 1, width=1.0)
        fixed = HyperParams(alpha=[0.0], sigma_e2=0.5)
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(ds, family, [[-1.0], [1.0]], fixed=fixed)
        # coincident inputs make the two centers bitwise equivalent
        assert grid.log_weights[0] == grid.log_weights[1]
        np.testing.assert_array_equal(grid.probs, [0.5, 0.5])

    def test_all_dead_grid_raises(self):
        ds, family2 = rbf_dataset()
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.09)
        with pytest.raises(AllDegenerate):
            build_hyper_posterior(ds, family, [[0.5, 0.5], [1.5, 1.5]], fixed=fixed)

    def test_degenerate_points_flagged(self):
        ds, _ = rbf_dataset()
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.09)
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(
                ds, family, [[0.5, 0.5], [0.5, 1.5]], fixed=fixed
            )
        assert grid.failed.tolist() == [True, False]
        assert grid.probs[0] == 0.0
        assert grid.posteriors[0] is None
        assert grid.probs[1] == 1.0

    def test_nonpositive_variance_points_flagged(self):
        ds, family = rbf_dataset()
        points = [[1.0, 0.0], [1.0, -0.09], [1.0, 0.09]]
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(
                ds, family, points, fixed=FIXED_RBF, names=["alpha0", "sigma_e2"]
            )
        assert grid.failed.tolist() == [True, True, False]
        assert grid.probs.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "sweep, column, bad",
        [
            pytest.param(build_hyper_posterior, "sigma_e2", math.nan, id="nan"),
            pytest.param(build_hyper_posterior, "sigma_e2", math.inf, id="inf"),
            *(
                pytest.param(sweep, column, bad, id=f"{sweep.__name__}-{column}-{bad}")
                for sweep in (build_hyper_posterior, profile_likelihood)
                for column in NONFINITE_MESSAGES
                for bad in (math.nan, math.inf)
                if (sweep, column) != (build_hyper_posterior, "sigma_e2")
            ),
        ],
    )
    def test_nonfinite_noise_variance_is_a_caller_error(self, sweep, column, bad):
        # a sweep flags a nonpositive variance, but NaN or inf in any column
        # is malformed input and raises, whichever columns vary per point
        ds, family = rbf_dataset()
        names = list(NONFINITE_MESSAGES)
        good = [1.0, 0.09]
        row = [bad if name == column else v for name, v in zip(names, good)]
        with pytest.raises(ValueError, match=NONFINITE_MESSAGES[column]):
            sweep(ds, family, [row, good], fixed=FIXED_RBF, names=names)

    def test_mass_piles_on_edge_when_truth_is_outside(self):
        ds, family = rbf_dataset(center=4.0)
        points = [[c] for c in np.linspace(-2.0, 2.0, 9)]
        with pytest.warns(NonFiniteMassWarning):
            build_hyper_posterior(ds, family, points, fixed=FIXED_RBF)

    def test_point_width_checked(self):
        ds, family = rbf_dataset()
        with pytest.raises(DimensionMismatch):
            build_hyper_posterior(ds, family, [[1.0, 2.0]], fixed=FIXED_RBF)

    def test_single_valued_axis_is_not_boundary(self):
        ds, family = rbf_dataset()
        alphas = np.linspace(-1.0, 3.0, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonFiniteMassWarning)
            named = build_hyper_posterior(
                ds, family, alpha_sigma_grid(alphas, [0.09]), fixed=FIXED_RBF, names=ALPHA_SIGMA
            )
            fixed = build_hyper_posterior(ds, family, alphas[:, None], fixed=FIXED_RBF)
        np.testing.assert_array_equal(named.log_weights, fixed.log_weights)

    @pytest.mark.parametrize("sigma_outermost", [False, True], ids=["sigma-inner", "sigma-outer"])
    def test_each_design_built_once(self, design_builds, monkeypatch, sigma_outermost):
        ds, family = rbf_dataset()
        alphas = np.linspace(0.0, 2.0, 5)
        sigmas = [0.03, 0.045, 0.06, 0.08]
        if sigma_outermost:
            names = ["sigma_e2", "alpha0"]
            points = np.array(list(itertools.product(sigmas, alphas)))
        else:
            names = ALPHA_SIGMA
            points = alpha_sigma_grid(alphas, sigmas)
        grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF, names=names)
        np.testing.assert_array_equal(np.concatenate(design_builds), alphas)
        design_builds.clear()
        averaged_model_loglik(grid, ds, family, [2.0])
        with_mass = np.unique(points[grid.probs > 0.0, names.index("alpha0")])
        assert with_mass.size >= 1
        np.testing.assert_array_equal(np.concatenate(design_builds), with_mass)
        design_builds.clear()
        # the profile's grid stage ends where its polish starts
        polish_from = calls_before_polish(monkeypatch, design_builds)
        profile_likelihood(ds, family, points, fixed=FIXED_RBF, names=names)
        assert polish_from == [5]
        np.testing.assert_array_equal(np.concatenate(design_builds[:5]), alphas)

    def test_sweeps_build_no_hyperparams_per_point(self, monkeypatch):
        # names, the fixed baseline and the family are checked once per sweep;
        # no point of these sweeps builds and validates a HyperParams
        ds, family = rbf_dataset()
        points = alpha_sigma_grid(np.linspace(0.0, 2.0, 9), np.linspace(0.04, 0.2, 9))
        built = []
        original = HyperParams.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(HyperParams, "__post_init__", counted)
        grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF, names=ALPHA_SIGMA)
        averaged_model_loglik(grid, ds, family, [2.0])
        profile_likelihood(ds, family, points, fixed=FIXED_RBF, names=ALPHA_SIGMA)
        assert built == []

    def test_degenerate_alpha_between_equal_alphas(self):
        # B has equal centers: it must fail at both of its points, and the
        # point after it must not see a design left over from B
        ds, _ = rbf_dataset()
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.09)
        a, b = [0.5, 1.5], [1.0, 1.0]
        points = [a + [0.09], b + [0.09], b + [0.2], a + [0.09]]
        with pytest.warns(NonFiniteMassWarning):
            # every point of so small a grid is on its boundary
            grid = build_hyper_posterior(
                ds, family, points, fixed=fixed, names=["alpha0", "alpha1", "sigma_e2"]
            )
        assert grid.failed.tolist() == [False, True, True, False]
        assert grid.log_weights[3] == grid.log_weights[0]
        np.testing.assert_array_equal(grid.posteriors[3].mean, grid.posteriors[0].mean)
        np.testing.assert_array_equal(grid.posteriors[3].cov, grid.posteriors[0].cov)

    def test_one_ulp_neighbour_gets_its_own_design(self):
        ds, family = rbf_dataset()
        a = 0.7
        b = np.nextafter(a, 2.0)
        with pytest.warns(NonFiniteMassWarning):
            pair = build_hyper_posterior(
                ds, family, [[a, 0.09], [b, 0.09]], fixed=FIXED_RBF, names=ALPHA_SIGMA
            )
            alone = build_hyper_posterior(
                ds, family, [[b, 0.09]], fixed=FIXED_RBF, names=ALPHA_SIGMA
            )
        # the two designs differ in their last bits, and so do their weights
        assert pair.log_weights[0] != pair.log_weights[1]
        assert pair.log_weights[1] == alone.log_weights[0]

    def test_grid_order_does_not_change_results(self):
        ds, _ = rbf_dataset()
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.09)
        names = ["alpha0", "alpha1", "sigma_e2"]
        axis = [0.0, 1.0, 2.0]
        points = np.array(list(itertools.product(axis, axis, [0.05, 0.09, 0.2])))
        order = np.random.default_rng(5).permutation(len(points))
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(ds, family, points, fixed=fixed, names=names)
        with pytest.warns(NonFiniteMassWarning):
            shuffled = build_hyper_posterior(ds, family, points[order], fixed=fixed, names=names)
        assert grid.failed.sum() == 9
        np.testing.assert_array_equal(shuffled.log_weights, grid.log_weights[order])
        np.testing.assert_array_equal(shuffled.failed, grid.failed[order])
        for j, i in enumerate(order):
            mine, theirs = shuffled.posteriors[j], grid.posteriors[i]
            assert (mine is None) == (theirs is None)
            if mine is not None:
                np.testing.assert_array_equal(mine.mean, theirs.mean)
                np.testing.assert_array_equal(mine.cov, theirs.cov)

    @pytest.mark.parametrize("sigma_outermost", [False, True], ids=["sigma-inner", "sigma-outer"])
    def test_each_point_equals_the_public_flat_scores(self, sigma_outermost):
        ds, _ = rbf_dataset()
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.09)
        axis, sigmas = [0.0, 1.0, 2.0], [0.05, 0.09, 0.2]
        if sigma_outermost:
            names = ["sigma_e2", "alpha0", "alpha1"]
            points = np.array(list(itertools.product(sigmas, axis, axis)))
        else:
            names = ["alpha0", "alpha1", "sigma_e2"]
            points = np.array(list(itertools.product(axis, axis, sigmas)))
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(ds, family, points, fixed=fixed, names=names)
        assert grid.failed.sum() == 9
        for point, log_weight, belief in zip(points, grid.log_weights, grid.posteriors):
            at = dict(zip(names, point))
            alpha, sigma_e2 = [at["alpha0"], at["alpha1"]], at["sigma_e2"]
            if alpha[0] == alpha[1]:
                assert log_weight == -math.inf and belief is None
                continue
            design = build_design_matrix(ds, family, alpha)
            area = log_area_under_likelihood(ds.outputs, design, sigma_e2)
            want = flat_posterior_coefficients(ds.outputs, design, sigma_e2)
            assert log_weight == area.log_value
            np.testing.assert_array_equal(belief.mean, want.mean)
            np.testing.assert_array_equal(belief.cov, want.cov)

    @pytest.mark.parametrize("sigma_outermost", [False, True], ids=["sigma-inner", "sigma-outer"])
    def test_each_admissible_design_fitted_once(self, monkeypatch, sigma_outermost):
        ds, _ = rbf_dataset()
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.09)
        axis, sigmas = [0.0, 1.0, 2.0], [0.05, 0.09, 0.2, 0.4]
        if sigma_outermost:
            names = ["sigma_e2", "alpha0", "alpha1"]
            points = np.array(list(itertools.product(sigmas, axis, axis)))
        else:
            names = ["alpha0", "alpha1", "sigma_e2"]
            points = np.array(list(itertools.product(axis, axis, sigmas)))
        original = linevidence.improper_prior._flat_fit
        fitted = []

        def counted(y, design, *args, **kwargs):
            fitted.append(design.phi)
            return original(y, design, *args, **kwargs)

        monkeypatch.setattr(linevidence.improper_prior, "_flat_fit", counted)
        with pytest.warns(NonFiniteMassWarning):
            build_hyper_posterior(ds, family, points, fixed=fixed, names=names)
        admissible = [[a, b] for a, b in itertools.product(axis, axis) if a != b]
        assert len(fitted) == len(admissible) == 6
        for phi, alpha in zip(fitted, admissible):
            np.testing.assert_array_equal(phi, build_design_matrix(ds, family, alpha).phi)
        fitted.clear()
        polish_from = calls_before_polish(monkeypatch, fitted)
        profile_likelihood(ds, family, points, fixed=fixed, names=names)
        assert polish_from == [6]
        for phi, alpha in zip(fitted, admissible):
            np.testing.assert_array_equal(phi, build_design_matrix(ds, family, alpha).phi)

    def test_two_center_mass_concentrates_at_truth(self):
        rng = np.random.default_rng(11)
        n = 200
        x = np.linspace(-10.0, 10.0, n)
        family = BasisFamily("exponential-abs", 2)
        shell = Dataset(inputs=x[:, None], outputs=np.zeros(n))
        truth = build_design_matrix(shell, family, [-4.0, 6.0])
        y = truth.phi @ np.array([2.0, -5.0]) + rng.normal(0.0, math.sqrt(0.5), n)
        ds = Dataset(inputs=x[:, None], outputs=y)

        axis = np.linspace(-10.0, 10.0, 21)
        points = [[a, b] for a in axis for b in axis if a < b]
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        grid = build_hyper_posterior(ds, family, points, fixed=fixed)
        peak = grid.points[int(np.argmax(grid.probs))]
        np.testing.assert_array_equal(peak, [-4.0, 6.0])
        near = np.all(np.abs(grid.points - peak) <= 1.0, axis=1)
        assert float(grid.probs[near].sum()) > 0.5


class TestSamplePosterior:
    def test_shapes_and_determinism(self):
        ds, family = rbf_dataset()
        points = [[c] for c in np.linspace(-1.0, 3.0, 9)]
        grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF)
        eta_a, theta_a = sample_posterior(grid, 50, 7, seed=3)
        eta_b, theta_b = sample_posterior(grid, 50, 7, seed=3)
        assert eta_a.shape == (50, 1)
        assert theta_a.shape == (50, 7, 1)
        np.testing.assert_array_equal(eta_a, eta_b)
        np.testing.assert_array_equal(theta_a, theta_b)
        assert set(map(tuple, eta_a)) <= set(map(tuple, np.asarray(points)))

    def test_single_point_draws_match_conditional(self):
        ds, family = rbf_dataset()
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(ds, family, [[1.0]], fixed=FIXED_RBF)
        design = build_design_matrix(ds, family, [1.0])
        belief = flat_posterior_coefficients(ds.outputs, design, 0.09)
        _, theta = sample_posterior(grid, 1, 20_000, seed=9)
        draws = theta[0, :, 0]
        se = math.sqrt(belief.cov[0, 0] / draws.size)
        assert abs(float(draws.mean()) - belief.mean[0]) < 3 * se
        var_se = belief.cov[0, 0] * math.sqrt(2.0 / (draws.size - 1))
        assert abs(float(draws.var(ddof=1)) - belief.cov[0, 0]) < 3 * var_se

    def test_mixture_moments_match_total_variance_law(self):
        ds, family = rbf_dataset()
        points = [[0.6], [1.0], [1.4]]
        grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF)
        means = np.array([p.mean[0] for p in grid.posteriors])
        traces = np.array([p.cov[0, 0] for p in grid.posteriors])
        mix_mean = float(grid.probs @ means)
        mix_var = float(grid.probs @ (traces + (means - mix_mean) ** 2))

        r, inner = 400, 200
        _, theta = sample_posterior(grid, r, inner, seed=17)
        run_means = theta[:, :, 0].mean(axis=1)
        se_mean = float(run_means.std(ddof=1)) / math.sqrt(r)
        assert abs(float(run_means.mean()) - mix_mean) < 3 * se_mean

        run_sq = ((theta[:, :, 0] - mix_mean) ** 2).mean(axis=1)
        se_var = float(run_sq.std(ddof=1)) / math.sqrt(r)
        assert abs(float(run_sq.mean()) - mix_var) < 3 * se_var

    def test_counts_validated(self):
        ds, family = rbf_dataset()
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(ds, family, [[1.0]], fixed=FIXED_RBF)
        with pytest.raises(ValueError):
            sample_posterior(grid, 0, 5, seed=1)
        with pytest.raises(ValueError):
            sample_posterior(grid, 5, 0, seed=1)
        for n_outer, n_inner in [(2.5, 5), (3.0, 5), (np.float64(2), 5), (5, 2.5)]:
            with pytest.raises(ValueError, match="integers of at least 1"):
                sample_posterior(grid, n_outer, n_inner, seed=1)


class TestAveragedModelLoglik:
    def test_single_point_reduces_to_plain_loglik(self):
        ds, family = rbf_dataset()
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(ds, family, [[1.0]], fixed=FIXED_RBF)
        design = build_design_matrix(ds, family, [1.0])
        theta = [1.8]
        want = log_likelihood(ds.outputs, design, theta, 0.09)
        assert averaged_model_loglik(grid, ds, family, theta) == pytest.approx(want, rel=1e-12)

    def test_matches_manual_logsumexp(self):
        ds, family = rbf_dataset()
        points = [[0.8], [1.2]]
        with pytest.warns(NonFiniteMassWarning):
            # a two-point grid is all boundary
            grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF)
        theta = [2.1]
        terms = []
        for p, point in zip(grid.probs, points):
            design = build_design_matrix(ds, family, point)
            terms.append(math.log(p) + log_likelihood(ds.outputs, design, theta, 0.09))
        top = max(terms)
        want = top + math.log(sum(math.exp(t - top) for t in terms))
        got = averaged_model_loglik(grid, ds, family, theta)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_manual_logsumexp_over_noise_axis(self):
        ds, family = rbf_dataset()
        points = alpha_sigma_grid([0.6, 1.0, 1.4], [0.04, 0.055, 0.07])
        grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF, names=ALPHA_SIGMA)
        theta = [2.1]
        terms = []
        for p, (alpha, sigma_e2) in zip(grid.probs, points):
            if p == 0.0:
                continue
            design = build_design_matrix(ds, family, [alpha])
            terms.append(math.log(p) + log_likelihood(ds.outputs, design, theta, sigma_e2))
        top = max(terms)
        want = top + math.log(sum(math.exp(t - top) for t in terms))
        got = averaged_model_loglik(grid, ds, family, theta)
        assert got == pytest.approx(want, rel=1e-12)

    def test_degenerate_design_raises(self):
        # the grid is fine on its own data, but every design built on three
        # coincident inputs is rank one: averaging must raise, not skip points
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        ds = Dataset(inputs=[[0.0], [1.0], [2.0]], outputs=[0.0, 1.0, 0.0])
        with pytest.warns(NonFiniteMassWarning):
            grid = build_hyper_posterior(ds, family, [[0.0, 1.5], [0.5, 2.0]], fixed=fixed)
        assert not np.any(grid.failed)
        coincident = Dataset(inputs=[[0.0], [0.0], [0.0]], outputs=[0.0, 1.0, 0.0])
        with pytest.raises(RankDeficient):
            averaged_model_loglik(grid, coincident, family, [1.0, 1.0])

    @pytest.mark.parametrize("sigma_e2", [0.0, -0.055])
    def test_infeasible_point_with_mass_raises(self, sigma_e2):
        # a hand-built grid can carry mass where its sweep finds no point;
        # the same point without mass is skipped like any other
        ds, family = rbf_dataset()
        points = alpha_sigma_grid([0.6, 1.0, 1.4], [0.04, 0.055, 0.07])
        grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF, names=ALPHA_SIGMA)
        i = int(np.argmax(grid.probs))
        points[i, 1] = sigma_e2
        broken = dataclasses.replace(grid, points=points)
        point = re.escape(str(points[i].tolist()))
        with pytest.raises(ValueError, match=f"grid point {point} carries mass but is infeasible"):
            averaged_model_loglik(broken, ds, family, [2.1])
        probs = grid.probs.copy()
        probs[i] = 0.0
        skipped = averaged_model_loglik(
            dataclasses.replace(broken, probs=probs), ds, family, [2.1]
        )
        assert math.isfinite(skipped)

    def test_wrong_length_theta_raises(self):
        ds, family = rbf_dataset()
        points = alpha_sigma_grid([0.6, 1.0, 1.4], [0.04, 0.055, 0.07])
        grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF, names=ALPHA_SIGMA)
        with pytest.raises(DimensionMismatch, match="theta must have length 1"):
            averaged_model_loglik(grid, ds, family, [2.0, 1.0])

    def test_bounded_by_componentwise_extremes(self):
        ds, family = rbf_dataset()
        points = [[c] for c in np.linspace(0.0, 2.0, 5)]
        grid = build_hyper_posterior(ds, family, points, fixed=FIXED_RBF)
        theta = [1.5]
        per_point = [
            log_likelihood(
                ds.outputs, build_design_matrix(ds, family, point), theta, 0.09
            )
            for point in points
        ]
        got = averaged_model_loglik(grid, ds, family, theta)
        assert min(per_point) <= got <= max(per_point) + 1e-12
