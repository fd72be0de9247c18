"""Score comparison, averaging weights, and hyperparameter search."""
import math

import numpy as np
import pytest

from linevidence import selection
from linevidence import (
    AllDegenerate,
    BasisFamily,
    Dataset,
    DimensionMismatch,
    EmptyFeasibleGrid,
    HyperParams,
    MixedKinds,
    ModelScore,
    OptimizerConfig,
    assemble_hyperparams,
    bma_weights,
    build_design_matrix,
    empirical_bayes_optimize,
    evaluate_objective,
    isotropic_prior,
    log_bayes_factor,
    log_marginal_likelihood,
    profile_likelihood,
    unbiased_noise_variance,
)

TWO_POINT = Dataset(inputs=[[-1.0], [1.0]], outputs=[-2.0, 2.0])
CONSTANT = BasisFamily("constant", 1)


def proper(label, value):
    return ModelScore(label=label, log_evidence=value, kind="proper")


class TestModelScore:
    def test_minus_inf_allowed(self):
        assert proper("dead", -math.inf).log_evidence == -math.inf

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonsense_values_rejected(self, value):
        with pytest.raises(ValueError):
            proper("bad", value)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ModelScore(label="x", log_evidence=0.0, kind="improper")


class TestLogBayesFactor:
    def test_equal_scores(self):
        assert log_bayes_factor(proper("a", -3.0), proper("b", -3.0)) == 0.0

    def test_gap_and_antisymmetry(self):
        a, b = proper("a", -1.0), proper("b", -3.0)
        assert log_bayes_factor(a, b) == pytest.approx(2.0)
        assert log_bayes_factor(b, a) == pytest.approx(-2.0)

    def test_kinds_never_mix(self):
        a = proper("a", -1.0)
        b = ModelScore(label="b", log_evidence=-1.0, kind="fake")
        with pytest.raises(MixedKinds):
            log_bayes_factor(a, b)

    def test_both_dead(self):
        with pytest.raises(AllDegenerate):
            log_bayes_factor(proper("a", -math.inf), proper("b", -math.inf))

    def test_stable_under_prior_widening(self):
        # comparing two noise levels on the same coefficients: the width
        # penalty cancels, so the factor settles as the prior spreads out
        design = build_design_matrix(TWO_POINT, CONSTANT, [])
        y = TWO_POINT.outputs

        def factor(scale):
            scores = [
                proper(
                    f"s{s}",
                    log_marginal_likelihood(y, design, s, isotropic_prior(1, scale)).log_value,
                )
                for s in (1.0, 16.0)
            ]
            return log_bayes_factor(scores[0], scores[1])

        assert factor(1e10) == pytest.approx(factor(1e12), abs=1e-3)


class TestBmaWeights:
    def test_uniform_for_equal_scores(self):
        w = bma_weights([proper("a", -5.0), proper("b", -5.0), proper("c", -5.0)])
        np.testing.assert_allclose(w, [1 / 3] * 3, rtol=1e-14)

    def test_huge_gap_does_not_overflow(self):
        w = bma_weights([proper("a", 0.0), proper("b", -700.0)])
        assert w[0] == pytest.approx(1.0, abs=1e-300)
        assert 0.0 < w[1] < 1e-300 or w[1] == pytest.approx(math.exp(-700.0))

    def test_matches_direct_ratio(self):
        logs = [-1.0, -2.0, -3.0]
        w = bma_weights([proper(str(v), v) for v in logs])
        direct = np.exp(logs) / np.sum(np.exp(logs))
        np.testing.assert_allclose(w, direct, rtol=1e-12)

    def test_shift_invariance(self):
        logs = [-11.2, -14.9, -10.3]
        base = bma_weights([proper(str(v), v) for v in logs])
        shifted = bma_weights([proper(str(v), v + 123.456) for v in logs])
        np.testing.assert_allclose(base, shifted, rtol=1e-12)

    def test_dead_candidate_gets_zero(self):
        w = bma_weights([proper("a", -2.0), proper("b", -math.inf)])
        assert w[1] == 0.0
        assert w[0] == 1.0

    def test_all_dead(self):
        with pytest.raises(AllDegenerate):
            bma_weights([proper("a", -math.inf), proper("b", -math.inf)])

    def test_mixed_kinds(self):
        with pytest.raises(MixedKinds):
            bma_weights([proper("a", 0.0), ModelScore("b", 0.0, "fake")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bma_weights([])


class TestOptimizerConfig:
    def test_defaults_accepted(self):
        cfg = OptimizerConfig(bounds={"alpha0": (-1.0, 1.0)})
        assert cfg.grid_points == 21

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bounds": {}},
            {"bounds": {"beta": (0.0, 1.0)}},
            {"bounds": {"alpha0": (1.0, 1.0)}},
            {"bounds": {"alpha0": (0.0, math.inf)}},
            {"bounds": {"alpha0": (0.0, 1.0)}, "grid_points": 1},
            {"bounds": {"alpha0": (0.0, 1.0)}, "grid_points": [3, 3]},
            {"bounds": {"alpha0": (0.0, 1.0)}, "tolerance": 0.0},
            {"bounds": {"alpha0": (0.0, 1.0)}, "max_evals": 0},
            {
                "bounds": {"alpha0": (0.0, 1.0)},
                "ordering": (("alpha0", "alpha1"),),
            },
            {"bounds": {"alpha0": (0.0, 1.0)}, "max_evals": float("nan")},
            {"bounds": {"alpha0": (0.0, 1.0)}, "max_evals": 2.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestAssembleHyperparams:
    FAMILY = BasisFamily("gaussian-rbf", 2, width=1.0)

    def test_merges_over_fixed(self):
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        params = assemble_hyperparams(
            ["alpha0", "alpha1", "sigma_p2"], [-4.0, 6.0, 2.0], fixed, self.FAMILY
        )
        np.testing.assert_array_equal(params.alpha, [-4.0, 6.0])
        assert params.sigma_e2 == 0.5
        assert params.prior_scale == 2.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assemble_hyperparams(["alpha0"], [1.0, 2.0], None, self.FAMILY)

    def test_alpha_index_out_of_range(self):
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        with pytest.raises(DimensionMismatch):
            assemble_hyperparams(["alpha2"], [1.0], fixed, self.FAMILY)

    def test_unset_alpha_rejected(self):
        with pytest.raises(ValueError):
            assemble_hyperparams(["alpha0", "sigma_e2"], [1.0, 0.5], None, self.FAMILY)

    @pytest.mark.parametrize("names", [["alpha0", "alpha0"], ["alpha1", "alpha01"]])
    def test_slot_set_twice_rejected(self, names):
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        with pytest.raises(ValueError, match="already set"):
            assemble_hyperparams(names, [0.5, 1.0], fixed, self.FAMILY)

    def test_missing_noise_var_rejected(self):
        with pytest.raises(ValueError):
            assemble_hyperparams(
                ["alpha0", "alpha1"], [1.0, 2.0], None, self.FAMILY
            )


class TestEvaluateObjective:
    def test_degenerate_design_scores_minus_inf(self):
        ds = Dataset(inputs=[[0.0], [1.0], [2.0]], outputs=[0.0, 1.0, 0.0])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        params = HyperParams(alpha=[0.7, 0.7], sigma_e2=1.0)
        assert evaluate_objective(ds, family, params, "log_area") == -math.inf

    @pytest.mark.parametrize("objective", ["log_area", "log_marginal"])
    def test_overflowing_gram_flagged_in_a_sweep(self, objective):
        # exp(|x - c|) is finite on [0, 400], but phi^T phi overflows once a
        # center lies within 45 of an end; such points are degenerate, and the
        # sweep goes on to the finite ones
        x = np.linspace(0.0, 400.0, 50)
        ds = Dataset(inputs=x, outputs=np.cos(x / 40.0))
        family = BasisFamily("exponential-abs", 2)
        params = HyperParams(alpha=[0.0, 1.0], sigma_e2=1.0, prior_scale=1.0)
        assert evaluate_objective(ds, family, params, objective) == -math.inf
        config = OptimizerConfig(
            bounds={"alpha0": (0.0, 400.0), "alpha1": (0.0, 400.0)},
            grid_points=5,
            ordering=(("alpha0", "alpha1"),),
            max_evals=20,
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.01, prior_scale=1.0)
        _, value, trace = empirical_bayes_optimize(ds, family, objective, config, fixed=fixed)
        grid = {tuple(p.values()): v for p, v in trace[:10]}
        assert grid[(0.0, 100.0)] == -math.inf
        assert math.isfinite(grid[(100.0, 300.0)])
        assert math.isfinite(value)

    @pytest.mark.parametrize("objective", ["log_area", "log_marginal"])
    def test_overflowing_basis_scores_minus_inf(self, objective):
        # exp(|x - c|) overflows to inf 800 from the center at 0; the point is
        # degenerate, and the overflow is no RuntimeWarning (which the suite
        # turns into an error)
        x = np.linspace(0.0, 800.0, 50)
        ds = Dataset(inputs=x, outputs=np.cos(x / 40.0))
        family = BasisFamily("exponential-abs", 2)
        params = HyperParams(alpha=[0.0, 400.0], sigma_e2=1.0, prior_scale=1.0)
        assert evaluate_objective(ds, family, params, objective) == -math.inf

    def test_unknown_objective(self):
        params = HyperParams(alpha=[], sigma_e2=1.0)
        with pytest.raises(ValueError):
            evaluate_objective(TWO_POINT, CONSTANT, params, "evidence")

    def test_marginal_objective_requires_prior_scale(self):
        params = HyperParams(alpha=[], sigma_e2=1.0)
        with pytest.raises(ValueError):
            evaluate_objective(TWO_POINT, CONSTANT, params, "log_marginal")

    def test_missing_prior_scale_not_hidden_by_degenerate_design(self):
        ds = Dataset(inputs=[[0.0], [1.0], [2.0]], outputs=[0.0, 1.0, 2.0])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        params = HyperParams(alpha=[0.3, 0.3], sigma_e2=1.0)
        with pytest.raises(ValueError, match="requires prior_scale"):
            evaluate_objective(ds, family, params, "log_marginal")

    def test_marginal_objective_value(self):
        params = HyperParams(alpha=[], sigma_e2=1.0, prior_scale=2.0)
        design = build_design_matrix(TWO_POINT, CONSTANT, [])
        want = log_marginal_likelihood(
            TWO_POINT.outputs, design, 1.0, isotropic_prior(1, 2.0)
        ).log_value
        got = evaluate_objective(TWO_POINT, CONSTANT, params, "log_marginal")
        assert got == pytest.approx(want, rel=1e-12)


class TestEmpiricalBayesOptimize:
    def test_recovers_area_maximizing_noise_var(self):
        config = OptimizerConfig(
            bounds={"sigma_e2": (1e-6, 100.0)}, grid_points=201, tolerance=1e-3
        )
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        best, value, trace = empirical_bayes_optimize(
            TWO_POINT, CONSTANT, "log_area", config, fixed=fixed
        )
        assert best.sigma_e2 == pytest.approx(8.0, abs=1e-2)
        assert math.isfinite(value)

    def test_deterministic_reruns(self):
        config = OptimizerConfig(
            bounds={"sigma_e2": (0.5, 20.0)}, grid_points=31, tolerance=1e-4
        )
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        first = empirical_bayes_optimize(TWO_POINT, CONSTANT, "log_area", config, fixed=fixed)
        second = empirical_bayes_optimize(TWO_POINT, CONSTANT, "log_area", config, fixed=fixed)
        assert first[0].sigma_e2 == second[0].sigma_e2
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_trace_records_every_grid_point(self):
        config = OptimizerConfig(bounds={"sigma_e2": (0.5, 20.0)}, grid_points=16)
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        _, _, trace = empirical_bayes_optimize(
            TWO_POINT, CONSTANT, "log_area", config, fixed=fixed
        )
        # the grid comes first in the trace, then the refine stage
        assert [t[0]["sigma_e2"] for t in trace[:16]] == list(np.linspace(0.5, 20.0, 16))

    def test_refine_skips_nonpositive_variances(self):
        # the box straddles zero: the grid drops -1 and 0, and the refine
        # stage must never score a nonpositive variance either
        config = OptimizerConfig(
            bounds={"sigma_e2": (-1.0, 5.0)}, grid_points=7, tolerance=1e-6
        )
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        best, _, trace = empirical_bayes_optimize(
            TWO_POINT, CONSTANT, "log_area", config, fixed=fixed
        )
        assert [t[0]["sigma_e2"] for t in trace[:5]] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(t[0]["sigma_e2"] > 0 for t in trace)
        # the area maximizer, 8, lies outside the box
        assert best.sigma_e2 == 5.0

    def test_matches_unbiased_noise_variance(self):
        rng = np.random.default_rng(21)
        x = np.linspace(-1, 1, 12)
        y = 1.5 - 0.7 * x + rng.normal(scale=0.4, size=12)
        ds = Dataset(inputs=x[:, None], outputs=y)
        family = BasisFamily("polynomial", 2)
        design = build_design_matrix(ds, family, [])
        target = unbiased_noise_variance(ds.outputs, design)
        config = OptimizerConfig(
            bounds={"sigma_e2": (1e-3, 5.0)}, grid_points=101, tolerance=1e-6
        )
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        best, _, _ = empirical_bayes_optimize(ds, family, "log_area", config, fixed=fixed)
        assert best.sigma_e2 == pytest.approx(target, rel=1e-3)

    def test_ordering_filters_grid(self):
        ds = Dataset(inputs=[[-1.0], [0.0], [1.0]], outputs=[1.0, 0.0, 1.0])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        config = OptimizerConfig(
            bounds={"alpha0": (-1.0, 1.0), "alpha1": (-1.0, 1.0)},
            grid_points=3,
            ordering=(("alpha0", "alpha1"),),
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        _, _, trace = empirical_bayes_optimize(ds, family, "log_area", config, fixed=fixed)
        # of the 9 grid points only the strictly increasing pairs survive
        grid = [(-1.0, 0.0), (-1.0, 1.0), (0.0, 1.0)]
        assert [(p["alpha0"], p["alpha1"]) for p, _ in trace[:3]] == grid
        # the refine stage keeps the ordering too
        for params, _ in trace:
            assert params["alpha0"] < params["alpha1"]

    def test_marginal_objective_without_prior_scale_raises(self):
        config = OptimizerConfig(bounds={"sigma_e2": (0.5, 20.0)}, grid_points=4)
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        with pytest.raises(ValueError, match="log_marginal objective requires"):
            empirical_bayes_optimize(TWO_POINT, CONSTANT, "log_marginal", config, fixed=fixed)

    def test_impossible_ordering_raises(self):
        ds = Dataset(inputs=[[-1.0], [0.0], [1.0]], outputs=[1.0, 0.0, 1.0])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        config = OptimizerConfig(
            bounds={"alpha0": (1.0, 2.0), "alpha1": (0.0, 0.5)},
            grid_points=3,
            ordering=(("alpha0", "alpha1"),),
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        with pytest.raises(EmptyFeasibleGrid):
            empirical_bayes_optimize(ds, family, "log_area", config, fixed=fixed)

    @pytest.mark.parametrize(
        "objective, free, error",
        [
            ("evidence", {}, ValueError),
            ("log_marginal", {}, ValueError),
            ("log_marginal", {"sigma_p2": (0.5, 2.0)}, EmptyFeasibleGrid),
        ],
    )
    def test_objective_checked_before_the_grid(self, objective, free, error):
        # the ordering excludes every grid point, so no point is ever scored;
        # a free sigma_p2 supplies the prior scale that log_marginal needs
        ds = Dataset(inputs=[[-1.0], [0.0], [1.0]], outputs=[1.0, 0.0, 1.0])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        config = OptimizerConfig(
            bounds={"alpha0": (5.0, 10.0), "alpha1": (0.0, 4.0), **free},
            grid_points=3,
            ordering=(("alpha0", "alpha1"),),
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        with pytest.raises(error):
            empirical_bayes_optimize(ds, family, objective, config, fixed=fixed)

    def test_objective_scored_once_per_feasible_point(self, monkeypatch):
        # each grid and refine point that passes the feasibility checks is
        # scored by exactly one evaluate_objective call on a checked HyperParams
        ds = Dataset(inputs=[[-1.0], [0.0], [1.0], [2.0]], outputs=[1.0, 0.0, 1.0, 0.5])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        config = OptimizerConfig(
            bounds={"alpha0": (-1.0, 2.0), "alpha1": (-1.0, 2.0)},
            grid_points=5,
            ordering=(("alpha0", "alpha1"),),
            max_evals=50,
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        scored, built = [], []
        evaluate, post_init = selection.evaluate_objective, HyperParams.__post_init__

        def counted_evaluate(dataset, family, params, objective):
            scored.append(params)
            return evaluate(dataset, family, params, objective)

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(selection, "evaluate_objective", counted_evaluate)
        monkeypatch.setattr(HyperParams, "__post_init__", counted_post_init)
        best, _, trace = empirical_bayes_optimize(ds, family, "log_area", config, fixed=fixed)
        assert len(scored) == len(trace) > 10
        # the 10 strictly increasing pairs of the 5 x 5 grid come first
        assert [tuple(p.alpha) for p in scored[:10]] == [
            (p["alpha0"], p["alpha1"]) for p, _ in trace[:10]
        ]
        assert all(p["alpha0"] < p["alpha1"] for p, _ in trace[:10])
        # one HyperParams per scored point, and one for the result
        assert [id(p) for p in built] == [id(p) for p in scored + [best]]

    def test_exact_tie_keeps_first_grid_point(self):
        # two coincident inputs make the objective an even function of the
        # center, so -1 and +1 score bitwise equal; the sweep keeps -1
        ds = Dataset(inputs=[[0.0], [0.0]], outputs=[1.0, 2.0])
        family = BasisFamily("gaussian-rbf", 1, width=1.0)
        config = OptimizerConfig(bounds={"alpha0": (-1.0, 1.0)}, grid_points=2)
        fixed = HyperParams(alpha=[0.0], sigma_e2=0.5)
        best, _, trace = empirical_bayes_optimize(ds, family, "log_area", config, fixed=fixed)
        assert trace[0][1] == trace[1][1]
        assert best.alpha[0] == -1.0


class TestProfileLikelihood:
    def test_noise_var_profile_peaks_at_ml(self):
        points = np.linspace(1.0, 10.0, 10)[:, None]
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        result = profile_likelihood(
            TWO_POINT, CONSTANT, points, fixed=fixed, names=("sigma_e2",)
        )
        assert result.names == ("sigma_e2",)
        # rss/N = 4 for this dataset, and 4.0 is on the grid
        peak = int(np.argmax(result.normalized))
        assert result.points[peak, 0] == 4.0
        assert result.normalized[peak] == pytest.approx(1.0, abs=1e-6)
        assert np.all(result.normalized > 0.0)
        assert np.all(result.normalized <= 1.0)

    def test_polish_finds_peak_between_grid_nodes(self):
        # the profile -log(2 pi s) - 4/s peaks at s = rss/N = 4, off the grid
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        result = profile_likelihood(
            TWO_POINT, CONSTANT, [[1.0], [2.0], [3.0], [5.0], [6.0], [7.0]],
            fixed=fixed, names=("sigma_e2",),
        )
        assert result.log_max == pytest.approx(-math.log(8.0 * math.pi) - 1.0, abs=1e-10)
        assert result.log_max > np.max(result.log_values)
        assert np.max(result.normalized) < 1.0

    def test_degenerate_points_flagged_not_fatal(self):
        ds = Dataset(inputs=[[0.0], [1.0], [2.0]], outputs=[0.0, 1.0, 0.0])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        points = [[0.3, 0.3], [0.0, 1.5]]
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        result = profile_likelihood(ds, family, points, fixed=fixed)
        assert result.failed.tolist() == [True, False]
        assert result.normalized[0] == 0.0
        assert result.normalized[1] > 0.0

    def test_nonpositive_noise_variance_flagged_not_fatal(self):
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        result = profile_likelihood(
            TWO_POINT, CONSTANT, [[0.0], [-1.0], [4.0]], fixed=fixed, names=("sigma_e2",)
        )
        assert result.failed.tolist() == [True, True, False]
        assert result.normalized[:2].tolist() == [0.0, 0.0]

    def test_nan_noise_variance_is_a_caller_error(self):
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        with pytest.raises(ValueError, match="sigma_e2 must be a positive finite number"):
            profile_likelihood(
                TWO_POINT, CONSTANT, [[math.nan], [4.0]], fixed=fixed, names=("sigma_e2",)
            )

    def test_missing_noise_variance_is_a_caller_error(self):
        ds = Dataset(inputs=[[0.0], [1.0], [2.0]], outputs=[0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="sigma_e2 must be supplied"):
            profile_likelihood(ds, BasisFamily("gaussian-rbf", 1), [[0.5], [1.5]])

    def test_all_degenerate(self):
        ds = Dataset(inputs=[[0.0], [1.0], [2.0]], outputs=[0.0, 1.0, 0.0])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        with pytest.raises(AllDegenerate):
            profile_likelihood(ds, family, [[0.3, 0.3], [0.7, 0.7]], fixed=fixed)

    def test_point_width_checked(self):
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        with pytest.raises(DimensionMismatch):
            profile_likelihood(
                TWO_POINT, CONSTANT, [[1.0, 2.0]], fixed=fixed, names=("sigma_e2",)
            )
