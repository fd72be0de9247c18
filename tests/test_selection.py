"""Score comparison, averaging weights, and hyperparameter search."""
import collections
import math
import warnings

import numpy as np
import pytest

from linevidence import cli, model, selection
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
    RankDeficient,
    bma_weights,
    build_design_matrix,
    build_hyper_posterior,
    empirical_bayes_optimize,
    isotropic_prior,
    log_area_under_likelihood,
    log_bayes_factor,
    log_likelihood,
    log_marginal_likelihood,
    ml_estimate,
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

    @pytest.mark.parametrize("pair", [("alpha0", "alpha0"), ("alpha1", "alpha01")])
    def test_ordering_pair_naming_one_slot_rejected(self, pair):
        # such a pair can never hold, so a search would build its grid and
        # then raise EmptyFeasibleGrid
        bounds = {name: (0.0, 1.0) for name in pair}
        with pytest.raises(ValueError, match="names one slot twice"):
            OptimizerConfig(bounds=bounds, ordering=(pair,))

    def test_bounds_naming_one_slot_twice_rejected(self):
        # alpha1 and alpha01 name one slot, so every search would raise from
        # its sweep; the config rejects them at construction, as the sweep does
        with pytest.raises(ValueError, match="^'alpha01' sets a parameter that an earlier name"):
            OptimizerConfig(bounds={"alpha1": (0.0, 1.0), "alpha01": (0.0, 2.0)})


def _optimize(dataset, family, names, fixed):
    config = OptimizerConfig(bounds={name: (0.5, 1.5) for name in names}, grid_points=2)
    return empirical_bayes_optimize(dataset, family, "log_area", config, fixed=fixed)


def _profile(dataset, family, names, fixed):
    return profile_likelihood(dataset, family, [[1.0] * len(names)], fixed=fixed, names=names)


def _hyper_posterior(dataset, family, names, fixed):
    return build_hyper_posterior(dataset, family, [[1.0] * len(names)], fixed=fixed, names=names)


class TestSweepChecks:
    """Every sweep checks its names and fixed values against the family once,
    before any point is scored, with one set of exceptions and messages."""

    DATASET = Dataset(inputs=[[-1.0], [0.0], [1.0], [2.0]], outputs=[1.0, 0.0, 1.0, 0.5])
    FAMILY = BasisFamily("gaussian-rbf", 2, width=1.0)
    FIXED = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)

    @pytest.mark.parametrize("sweep", [_optimize, _profile, _hyper_posterior])
    @pytest.mark.parametrize(
        "names, fixed, error, message",
        [
            pytest.param(
                ["alpha0"], HyperParams(alpha=[0.0], sigma_e2=0.5),
                DimensionMismatch, "fixed alpha has length 1, family expects 2",
                id="fixed-alpha-length",
            ),
            pytest.param(
                ["alpha0", "sigma_p2"], FIXED,
                ValueError, "unrecognized parameter name 'sigma_p2'",
                id="unknown-name",
            ),
            pytest.param(
                ["alpha1", "alpha01"], FIXED, ValueError, "already set", id="slot-set-twice"
            ),
            pytest.param(
                ["alpha2"], FIXED, DimensionMismatch, "'alpha2' is out of range",
                id="alpha-out-of-range",
            ),
            pytest.param(
                ["alpha0", "sigma_e2"], None,
                ValueError, r"parameters \['alpha1'\] are neither fixed nor free",
                id="alpha-neither-fixed-nor-free",
            ),
            pytest.param(
                ["alpha0", "alpha1"], None,
                ValueError, "sigma_e2 must be supplied either fixed or free",
                id="no-sigma_e2",
            ),
        ],
    )
    def test_rejected_before_any_point(self, monkeypatch, sweep, names, fixed, error, message):
        # every design build goes through model._design_stack: one design in
        # build_design_matrix, a block of them in the search's grid stage
        built = []
        monkeypatch.setattr(model, "_design_stack", lambda *args: built.append(args))
        with pytest.raises(error, match=message):
            sweep(self.DATASET, self.FAMILY, names, fixed)
        assert built == []


_NAN, _INF = math.nan, math.inf


class TestSweepMerge:
    """The search's grid merges all its points at once by _Sweep.merge, which
    must keep, merge and reject each row as _Sweep.at does."""

    FAMILY = BasisFamily("gaussian-rbf", 2, width=1.0)
    FIXED = HyperParams(alpha=[0.5, 1.5], sigma_e2=0.5)

    @pytest.mark.parametrize(
        "names, ordering, rows",
        [
            pytest.param(
                ["alpha0", "alpha1"], (("alpha0", "alpha1"),),
                [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [_NAN, 1.0], [-_INF, _INF]],
                id="broken-ordering",
            ),
            pytest.param(
                ["sigma_e2"], (), [[2.0], [0.0], [-1.0], [5e-324], [-0.0]],
                id="nonpositive-sigma_e2",
            ),
            pytest.param(
                ["sigma_e2"], (), [[1.0], [-_INF], [3.0]], id="minus-inf-sigma_e2"
            ),
            pytest.param(
                ["alpha1", "sigma_e2"], (), [[0.0, 1.0], [3.0, -2.0], [-4.0, 0.25]],
                id="alpha0-fixed",
            ),
            pytest.param(
                ["sigma_e2", "alpha1", "alpha0"], (("alpha0", "alpha1"),),
                [[1.0, 2.0, 0.0], [_NAN, 0.0, 1.0], [_INF, 0.0, 0.0], [-1.0, 1.0, 0.0]],
                id="broken-ordering-before-variance",
            ),
            pytest.param(["sigma_e2"], (), [[1.0], [_NAN], [-1.0]], id="nan-sigma_e2-raises"),
            pytest.param(
                ["alpha0", "sigma_e2"], (), [[0.0, 1.0], [0.0, -1.0], [0.0, _INF]],
                id="inf-sigma_e2-raises",
            ),
            pytest.param(
                ["alpha1", "alpha0", "sigma_e2"], (("alpha0", "alpha1"),),
                [[1.0, 0.0, 2.0], [0.0, 1.0, _NAN], [1.0, 0.0, _NAN]],
                id="ordered-nan-sigma_e2-raises",
            ),
        ],
    )
    def test_merge_equals_at_row_by_row(self, names, ordering, rows):
        sweep = selection._Sweep(names, self.FIXED, self.FAMILY, ordering)
        vecs = np.array(rows)
        expected, raised = [], None
        for vec in vecs:
            try:
                expected.append(sweep.at(vec))
            except ValueError as exc:
                raised = exc
                break
        if raised is not None:
            with pytest.raises(type(raised), match=f"^{raised}$"):
                sweep.merge(vecs)
            return
        kept, merged = sweep.merge(vecs)
        assert kept.tolist() == [point is not None for point in expected]
        points = [np.append(*point) for point in expected if point is not None]
        assert merged.tobytes() == np.array(points).reshape(-1, 3).tobytes()


def _params_at(point, fixed):
    """The HyperParams of a trace point: its free names over the fixed values."""
    alpha = fixed.alpha.copy()
    for name, value in point.items():
        if name != "sigma_e2":
            alpha[int(name[5:])] = value
    return HyperParams(alpha=alpha, sigma_e2=point.get("sigma_e2", fixed.sigma_e2))


def _log_area_at(dataset, family, point, fixed):
    """log S of a trace point's design, -inf where build_design_matrix raises RankDeficient."""
    params = _params_at(point, fixed)
    try:
        design = build_design_matrix(dataset, family, params.alpha)
    except RankDeficient:
        return -math.inf
    return log_area_under_likelihood(dataset.outputs, design, params.sigma_e2).log_value


_X400 = np.linspace(0.0, 400.0, 50)
_X800 = np.linspace(0.0, 800.0, 50)
_EXP2 = BasisFamily("exponential-abs", 2)
_RBF2 = BasisFamily("gaussian-rbf", 2, width=1.0)


class TestEvaluateObjective:
    """How the search scores a point: log S of its design, -inf where the
    design is degenerate."""

    def test_degenerate_design_scores_minus_inf(self):
        # equal centers give two equal basis columns
        ds = Dataset(inputs=[[0.0], [1.0], [2.0]], outputs=[0.0, 1.0, 0.0])
        config = OptimizerConfig(
            bounds={"alpha0": (0.7, 1.7), "alpha1": (0.7, 1.7)}, grid_points=2, max_evals=20
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=1.0)
        _, _, trace = empirical_bayes_optimize(ds, _RBF2, "log_area", config, fixed=fixed)
        grid = {tuple(p.values()): v for p, v in trace[:4]}
        assert grid[(0.7, 0.7)] == grid[(1.7, 1.7)] == -math.inf
        assert math.isfinite(grid[(0.7, 1.7)])

    def test_overflowing_gram_flagged_in_a_sweep(self):
        # exp(|x - c|) is finite on [0, 400], but phi^T phi overflows once a
        # center lies within 45 of an end; such points are degenerate, and the
        # sweep goes on to the finite ones
        ds = Dataset(inputs=_X400, outputs=np.cos(_X400 / 40.0))
        with pytest.raises(RankDeficient):
            build_design_matrix(ds, _EXP2, [0.0, 1.0])
        config = OptimizerConfig(
            bounds={"alpha0": (0.0, 400.0), "alpha1": (0.0, 400.0)},
            grid_points=5,
            ordering=(("alpha0", "alpha1"),),
            max_evals=20,
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.01)
        _, value, trace = empirical_bayes_optimize(ds, _EXP2, "log_area", config, fixed=fixed)
        grid = {tuple(p.values()): v for p, v in trace[:10]}
        assert grid[(0.0, 100.0)] == -math.inf
        assert math.isfinite(grid[(100.0, 300.0)])
        assert math.isfinite(value)

    def test_overflowing_basis_scores_minus_inf(self):
        # exp(|x - c|) overflows to inf 800 from the center at 0; the point is
        # degenerate, and the overflow is no RuntimeWarning (which the suite
        # turns into an error).  On [0, 800] every design overflows, at least
        # in its Gram matrix, so the search ends at -inf without raising
        ds = Dataset(inputs=_X800, outputs=np.cos(_X800 / 40.0))
        with pytest.raises(RankDeficient, match="non-finite"):
            build_design_matrix(ds, _EXP2, [0.0, 400.0])
        config = OptimizerConfig(bounds={"alpha0": (0.0, 400.0)}, grid_points=3)
        fixed = HyperParams(alpha=[0.0, 400.0], sigma_e2=1.0)
        _, value, trace = empirical_bayes_optimize(ds, _EXP2, "log_area", config, fixed=fixed)
        assert trace[0] == ({"alpha0": 0.0}, -math.inf)
        assert value == -math.inf

    @pytest.mark.parametrize("objective", ["evidence", "log_marginal"])
    def test_unknown_objective_not_hidden_by_degenerate_design(self, objective):
        # log S is the only objective; the check comes before any design, so
        # a degenerate one cannot turn the caller error into -inf
        ds = Dataset(inputs=[[0.0], [1.0], [2.0]], outputs=[0.0, 1.0, 2.0])
        config = OptimizerConfig(bounds={"sigma_e2": (0.5, 2.0)}, grid_points=3)
        fixed = HyperParams(alpha=[0.3, 0.3], sigma_e2=1.0)
        _, value, _ = empirical_bayes_optimize(ds, _RBF2, "log_area", config, fixed=fixed)
        assert value == -math.inf
        with pytest.raises(ValueError, match="objective must be 'log_area'"):
            empirical_bayes_optimize(ds, _RBF2, objective, config, fixed=fixed)

    def test_area_objective_value(self):
        # on an example2 replicate, every value the search reports, grid and
        # refine, is log S of that point's design, bitwise
        rng = np.random.default_rng(np.random.SeedSequence([20250811, 0]))
        y = cli._example2_truth() + rng.normal(0.0, math.sqrt(cli._EX2_SIGMA2), cli._EX2_N)
        ds = Dataset(inputs=cli._EX2_X[:, None], outputs=y)
        lo, hi = cli._EX2_ALPHA
        config = OptimizerConfig(
            bounds={"alpha0": (lo - 0.5, lo + 0.5), "alpha1": (hi - 0.5, hi + 0.5)},
            grid_points=3,
            ordering=(("alpha0", "alpha1"),),
            max_evals=30,
        )
        fixed = HyperParams(alpha=cli._EX2_ALPHA, sigma_e2=cli._EX2_SIGMA2)
        record = {}
        best, value, trace = empirical_bayes_optimize(
            ds, cli._EX2_FAMILY, "log_area", config, fixed=fixed, record=record
        )
        assert len(trace) > record["grid_evals"] == 9
        for point, got in trace:
            assert math.isfinite(got)
            assert got == _log_area_at(ds, cli._EX2_FAMILY, point, fixed)
        assert value == max(v for _, v in trace)
        design = build_design_matrix(ds, cli._EX2_FAMILY, best.alpha)
        assert value == log_area_under_likelihood(y, design, best.sigma_e2).log_value


def _grid_case(dataset, family, bounds, grid_points, fixed, ordering=()):
    config = OptimizerConfig(
        bounds=bounds, grid_points=grid_points, ordering=ordering, max_evals=20
    )
    return dataset, family, config, fixed


_X12 = np.linspace(-1.0, 1.0, 12)
_CENTERS_FIXED = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
_VARIANCE_FIXED = HyperParams(alpha=[], sigma_e2=1.0)


class TestStackedGrid:
    """The grid stage scores its points in stacked blocks; every grid value
    must equal log S of that point's design alone, bitwise, or -inf where
    build_design_matrix raises RankDeficient.  The rbf grid has 81 points, 9
    of them degenerate, so it spans three blocks."""

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(
                _grid_case(TWO_POINT, CONSTANT, {"sigma_e2": (-1.0, 20.0)}, 43, _VARIANCE_FIXED),
                id="constant-sigma_e2",
            ),
            pytest.param(
                _grid_case(
                    Dataset(inputs=_X12, outputs=1.5 - 0.7 * _X12 + 0.3 * np.sin(9.0 * _X12)),
                    BasisFamily("polynomial", 9),
                    {"sigma_e2": (1e-3, 5.0)},
                    40,
                    _VARIANCE_FIXED,
                ),
                id="polynomial-sigma_e2",
            ),
            pytest.param(
                _grid_case(
                    Dataset(inputs=_X12, outputs=np.cos(3.0 * _X12)),
                    _RBF2,
                    {"alpha0": (-1.0, 1.0), "alpha1": (-1.0, 1.0)},
                    9,
                    _CENTERS_FIXED,
                ),
                id="rbf-equal-centers",
            ),
            pytest.param(
                _grid_case(
                    Dataset(inputs=_X800, outputs=np.cos(_X800 / 40.0)),
                    _EXP2,
                    {"alpha0": (0.0, 800.0), "alpha1": (0.0, 800.0)},
                    9,
                    _CENTERS_FIXED,
                    ordering=(("alpha0", "alpha1"),),
                ),
                id="overflowing-basis",
            ),
            pytest.param(
                _grid_case(
                    Dataset(inputs=_X400, outputs=np.cos(_X400 / 40.0)),
                    _EXP2,
                    {"alpha0": (0.0, 400.0), "alpha1": (0.0, 400.0)},
                    9,
                    HyperParams(alpha=[0.0, 0.0], sigma_e2=0.01),
                    ordering=(("alpha0", "alpha1"),),
                ),
                id="overflowing-gram",
            ),
            pytest.param(
                _grid_case(
                    TWO_POINT, BasisFamily("polynomial", 3), {"sigma_e2": (0.5, 4.0)}, 5,
                    _VARIANCE_FIXED,
                ),
                id="more-basis-than-points",
            ),
        ],
    )
    def test_grid_equals_evaluate_objective(self, case):
        dataset, family, config, fixed = case
        record = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, trace = empirical_bayes_optimize(
                dataset, family, "log_area", config, fixed=fixed, record=record
            )
        grid = trace[: record["grid_evals"]]
        values = [value for _, value in grid]
        assert record["grid_degenerate"] == values.count(-math.inf)
        for point, value in grid:
            assert value == _log_area_at(dataset, family, point, fixed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_rss_escapes_the_search(self):
        # the residuals +-1e200 square past the largest float, so log S has an
        # infinite fitting term; that is a caller error, not a degenerate design
        ds = Dataset(inputs=[[-1.0], [1.0]], outputs=[-1e200, 1e200])
        config = OptimizerConfig(bounds={"sigma_e2": (0.5, 2.0)}, grid_points=3)
        with pytest.raises(ValueError, match="all report terms must be finite"):
            empirical_bayes_optimize(ds, CONSTANT, "log_area", config, fixed=_VARIANCE_FIXED)


EXAMPLE2_AXIS = np.linspace(-10.0, 10.0, 41)
HYPER_GRID_AXIS = np.linspace(-5.0, 5.0, 21)


class TestDistinctRows:
    @pytest.mark.parametrize(
        "rows",
        [
            # example2's ordered 41 x 41 center grid: 820 distinct rows
            np.array([(a, b) for a in EXAMPLE2_AXIS for b in EXAMPLE2_AXIS if a < b]),
            # the alphas of hyper-grid's 21 x 21 x 8 grid: each center pair eight times
            np.repeat([(a, b) for a in HYPER_GRID_AXIS for b in HYPER_GRID_AXIS], 8, axis=0),
            np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0], [1.0, 0.0], [0.0, 0.0]]),
            np.empty((4, 0)),
            np.empty((0, 2)),
        ],
        ids=["example2", "hyper-grid", "signed-zeros", "no-columns", "no-rows"],
    )
    def test_matches_np_unique(self, rows):
        distinct, order, design_of = selection._distinct_rows(rows)
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        inverse = np.empty_like(order)
        inverse[order] = design_of
        np.testing.assert_array_equal(distinct, want)
        np.testing.assert_array_equal(inverse, want_inverse.ravel())
        np.testing.assert_array_equal(order, np.argsort(inverse, kind="stable"))


class TestGridRecord:
    """The search's record counts its degenerate grid points by reason: the
    message of the RankDeficient that build_design_matrix raises there."""

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(
                _grid_case(
                    Dataset(inputs=_X12, outputs=np.cos(3.0 * _X12)),
                    _RBF2,
                    {"alpha0": (-1.0, 1.0), "alpha1": (-1.0, 1.0)},
                    9,
                    _CENTERS_FIXED,
                ),
                id="rbf-equal-centers",
            ),
            pytest.param(
                _grid_case(
                    Dataset(inputs=_X800, outputs=np.cos(_X800 / 40.0)),
                    _EXP2,
                    {"alpha0": (0.0, 800.0), "alpha1": (0.0, 800.0)},
                    9,
                    _CENTERS_FIXED,
                    ordering=(("alpha0", "alpha1"),),
                ),
                id="overflowing-basis",
            ),
            pytest.param(
                _grid_case(
                    Dataset(inputs=_X400, outputs=np.cos(_X400 / 40.0)),
                    _EXP2,
                    {"alpha0": (0.0, 400.0), "alpha1": (0.0, 400.0)},
                    9,
                    HyperParams(alpha=[0.0, 0.0], sigma_e2=0.01),
                    ordering=(("alpha0", "alpha1"),),
                ),
                id="overflowing-gram",
            ),
            pytest.param(
                _grid_case(
                    TWO_POINT, BasisFamily("polynomial", 3), {"sigma_e2": (0.5, 4.0)}, 5,
                    _VARIANCE_FIXED,
                ),
                id="more-basis-than-points",
            ),
            pytest.param(
                _grid_case(
                    Dataset(
                        inputs=cli._EX2_X,
                        outputs=cli._example2_truth()
                        + np.random.default_rng(np.random.SeedSequence([20250811, 0])).normal(
                            0.0, math.sqrt(cli._EX2_SIGMA2), cli._EX2_N
                        ),
                    ),
                    cli._EX2_FAMILY,
                    {"alpha0": (-10.0, 10.0), "alpha1": (-10.0, 10.0)},
                    41,
                    HyperParams(alpha=[0.0, 0.0], sigma_e2=cli._EX2_SIGMA2),
                    ordering=(("alpha0", "alpha1"),),
                ),
                id="example2-replicate-0",
            ),
        ],
    )
    def test_reasons_are_what_build_design_matrix_raises(self, case):
        dataset, family, config, fixed = case
        record = {}
        _, _, trace = empirical_bayes_optimize(
            dataset, family, "log_area", config, fixed=fixed, record=record
        )
        raised = collections.Counter()
        for point, value in trace[: record["grid_evals"]]:
            if value == -math.inf:
                with pytest.raises(RankDeficient) as excinfo:
                    build_design_matrix(dataset, family, _params_at(point, fixed).alpha)
                raised[str(excinfo.value)] += 1
        reasons = record["grid_degenerate_by_reason"]
        assert sum(reasons.values()) == record["grid_degenerate"] > 0
        assert reasons == dict(raised)


class TestEmpiricalBayesOptimize:
    def test_flat_prior_scores_never_form_the_design_qr(self, monkeypatch):
        # the thin QR serves the Gaussian-prior fits alone
        formed = []
        monkeypatch.setattr(model, "_thin_qr", lambda matrix, *args: formed.append(matrix.shape))
        rng = np.random.default_rng(24)
        x = np.linspace(-5.0, 5.0, 60)
        family = BasisFamily("gaussian-rbf", 2)
        truth = np.exp(-0.5 * (x[:, None] - [-1.5, 2.0]) ** 2) @ [1.5, -1.2]
        dataset = Dataset(inputs=x[:, None], outputs=truth + rng.normal(0.0, 0.5, 60))
        config = OptimizerConfig(
            bounds={"alpha0": (-4.0, 4.0), "alpha1": (-4.0, 4.0)},
            grid_points=9,
            max_evals=60,
            ordering=(("alpha0", "alpha1"),),
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.25)
        best, _, trace = empirical_bayes_optimize(dataset, family, "log_area", config, fixed=fixed)
        assert len(trace) > 36  # the refine scored points beyond the 36 feasible grid points
        design = build_design_matrix(dataset, family, best.alpha)
        log_area_under_likelihood(dataset.outputs, design, best.sigma_e2)
        assert formed == []

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
        "objective, error",
        [
            ("evidence", ValueError),
            ("log_marginal", ValueError),
            ("log_area", EmptyFeasibleGrid),
        ],
    )
    def test_objective_checked_before_the_grid(self, monkeypatch, objective, error):
        # the ordering excludes every grid point, so no point is ever scored;
        # an unknown objective raises before the sweep is even compiled
        ds = Dataset(inputs=[[-1.0], [0.0], [1.0]], outputs=[1.0, 0.0, 1.0])
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        config = OptimizerConfig(
            bounds={"alpha0": (5.0, 10.0), "alpha1": (0.0, 4.0)},
            grid_points=3,
            ordering=(("alpha0", "alpha1"),),
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        compiled, sweep = [], selection._Sweep

        def counted_sweep(*args):
            compiled.append(args)
            return sweep(*args)

        monkeypatch.setattr(selection, "_Sweep", counted_sweep)
        with pytest.raises(error):
            empirical_bayes_optimize(ds, family, objective, config, fixed=fixed)
        assert len(compiled) == (objective == "log_area")

    def test_grid_stacked_and_refine_scored_once_per_point(self, monkeypatch):
        # the grid is scored in stacked blocks, with no one-design build; each
        # refine point builds one design, and only the result is a checked
        # HyperParams.  Every value, grid and refine, is log S of the point's
        # design, or -inf where build_design_matrix raises RankDeficient
        ds = Dataset(inputs=_X400, outputs=np.cos(_X400 / 40.0))
        config = OptimizerConfig(
            bounds={"alpha0": (0.0, 400.0), "alpha1": (0.0, 400.0)},
            grid_points=5,
            ordering=(("alpha0", "alpha1"),),
            max_evals=20,
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.01)
        designs, built = [], []
        build, post_init = selection.build_design_matrix, HyperParams.__post_init__

        def counted_build(dataset, family, alpha):
            designs.append(tuple(alpha))
            return build(dataset, family, alpha)

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        record = {}
        with monkeypatch.context() as patch:
            patch.setattr(selection, "build_design_matrix", counted_build)
            patch.setattr(HyperParams, "__post_init__", counted_post_init)
            best, _, trace = empirical_bayes_optimize(
                ds, _EXP2, "log_area", config, fixed=fixed, record=record
            )
        grid, refine = trace[: record["grid_evals"]], trace[record["grid_evals"] :]
        assert len(grid) == 10 and len(refine) > 0
        # 9 of the 10 ordered grid points are degenerate (7 overflow, 2 are
        # numerically singular), and so are some of the points the refine tries
        assert sum(value == -math.inf for _, value in grid) == 9
        assert any(value == -math.inf for _, value in refine)
        for point, value in trace:
            assert value == _log_area_at(ds, _EXP2, point, fixed)
        # one design built per refine point, in trace order
        assert designs == [(p["alpha0"], p["alpha1"]) for p, _ in refine]
        # one HyperParams per search: the result
        assert len(built) == 1 and built[0] is best

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


    def test_record_counts_example2_replicate_0(self):
        rng = np.random.default_rng(np.random.SeedSequence([20250811, 0]))
        y = cli._example2_truth() + rng.normal(0.0, math.sqrt(cli._EX2_SIGMA2), cli._EX2_N)
        ds = Dataset(inputs=cli._EX2_X[:, None], outputs=y)
        config = OptimizerConfig(
            bounds={"alpha0": (-10.0, 10.0), "alpha1": (-10.0, 10.0)},
            grid_points=41,
            ordering=(("alpha0", "alpha1"),),
            tolerance=1e-6,
            max_evals=400,
        )
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=cli._EX2_SIGMA2)
        record = {}
        _, _, trace = empirical_bayes_optimize(
            ds, cli._EX2_FAMILY, "log_area", config, fixed=fixed, record=record
        )
        assert record["grid_evals"] == 820
        assert record["grid_degenerate"] == 64
        assert record["grid_degenerate_by_reason"] == {
            "Gram matrix is numerically singular (pivot below relative threshold)": 58,
            "Gram matrix is not positive definite": 6,
        }
        assert record["refine_status"] == 0
        assert record["grid_s"] > 0.0 and record["refine_s"] > 0.0
        # every refine point in the trace is one the refine evaluated
        assert 0 < len(trace) - 820 <= record["refine_nfev"] < 400
        assert 0 < record["refine_nit"] <= record["refine_nfev"]

    def test_capped_refine_keeps_its_best_point(self):
        # a Nelder-Mead refine stopped by its cap in the middle of an
        # iteration has scored a point it did not accept; before the search
        # kept the best point the refine scored, max_evals = 50 returned a
        # value 4.6e-7 below its own trace maximum on this replicate
        rng = np.random.default_rng(np.random.SeedSequence([20250811, 0]))
        y = cli._example2_truth() + rng.normal(0.0, math.sqrt(cli._EX2_SIGMA2), cli._EX2_N)
        ds = Dataset(inputs=cli._EX2_X[:, None], outputs=y)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=cli._EX2_SIGMA2)
        below_trace = []
        for max_evals in range(5, 60):
            config = OptimizerConfig(
                bounds={"alpha0": (-10.0, 10.0), "alpha1": (-10.0, 10.0)},
                grid_points=11,
                ordering=(("alpha0", "alpha1"),),
                tolerance=1e-6,
                max_evals=max_evals,
            )
            best, value, trace = empirical_bayes_optimize(
                ds, cli._EX2_FAMILY, "log_area", config, fixed=fixed
            )
            top = max(v for _, v in trace)
            at_top = [(p["alpha0"], p["alpha1"]) for p, v in trace if v == top]
            if value != top or (best.alpha[0], best.alpha[1]) not in at_top:
                below_trace.append(max_evals)
        assert below_trace == []

    def test_record_without_a_refine(self):
        # three basis functions on two points: every design is degenerate, so
        # no refine runs, and the first feasible point wins the all -inf grid
        config = OptimizerConfig(bounds={"sigma_e2": (-1.0, 5.0)}, grid_points=4)
        record = {}
        best, value, trace = empirical_bayes_optimize(
            TWO_POINT, BasisFamily("polynomial", 3), "log_area", config,
            fixed=HyperParams(alpha=[], sigma_e2=1.0), record=record,
        )
        assert value == -math.inf
        assert [p["sigma_e2"] for p, _ in trace] == [1.0, 3.0, 5.0]
        assert best.sigma_e2 == 1.0
        assert record.pop("grid_s") >= 0.0
        assert record.pop("refine_s") >= 0.0
        assert record == {
            "grid_evals": 3,
            "grid_degenerate": 3,
            "grid_degenerate_by_reason": {"more basis functions (3) than observations (2)": 3},
            "refine_nfev": 0,
            "refine_nit": 0,
            "refine_status": None,
        }


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

    def test_each_value_is_the_likelihood_at_the_ml_coefficients(self):
        x = np.linspace(-2.0, 3.0, 12)
        ds = Dataset(inputs=x[:, None], outputs=np.sin(x) + 0.1 * np.cos(7.0 * x))
        family = BasisFamily("gaussian-rbf", 2, width=1.0)
        fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=0.5)
        names = ("alpha0", "alpha1", "sigma_e2")
        # (0.5, 0.5) repeats a center, so both its points are degenerate, and
        # the design (-1, 1) returns after them
        points = [
            [-1.0, 1.0, 0.1], [-1.0, 1.0, 0.4], [0.5, 0.5, 0.1],
            [0.5, 0.5, 0.4], [-1.0, 1.0, 0.2], [0.0, 2.0, 0.1],
        ]
        result = profile_likelihood(ds, family, points, fixed=fixed, names=names)
        assert result.failed.tolist() == [False, False, True, True, False, False]
        assert result.log_values[2] == result.log_values[3] == -math.inf
        for (a0, a1, sigma_e2), value in zip(points, result.log_values):
            if a0 == a1:
                continue
            design = build_design_matrix(ds, family, [a0, a1])
            theta_hat, _ = ml_estimate(ds.outputs, design)
            assert value == log_likelihood(ds.outputs, design, theta_hat, sigma_e2)

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
