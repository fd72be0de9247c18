"""Data model, basis families, design matrices, and ML estimators."""
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg.lapack import dtrtri

from linevidence import (
    BasisFamily,
    Dataset,
    DimensionMismatch,
    GaussianBelief,
    HyperParams,
    RankDeficient,
    SingularPrior,
    build_design_matrix,
    flat_posterior_coefficients,
    log_likelihood,
    ml_estimate,
    predict_at,
    resampling_estimator_stats,
)
from linevidence import model
from linevidence.model import (
    RANK_RTOL,
    _checked_cholesky,
    _cho_solve,
    _singular_values,
    _thin_qr,
    _tri_inverse,
    _tri_solve,
)

EPS = float(np.finfo(float).eps)


def two_point_dataset(y):
    return Dataset(inputs=[[-1.0], [1.0]], outputs=y)


class TestDataset:
    def test_coerces_one_dim_inputs(self):
        ds = Dataset(inputs=[1.0, 2.0, 3.0], outputs=[0.0, 0.0, 0.0])
        assert ds.inputs.shape == (3, 1)
        assert ds.n == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(DimensionMismatch):
            Dataset(inputs=np.empty((0, 1)), outputs=np.empty(0))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            Dataset(inputs=[[1.0], [2.0]], outputs=[1.0])

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError):
            Dataset(inputs=[[1.0], [np.nan]], outputs=[0.0, 0.0])
        with pytest.raises(ValueError):
            Dataset(inputs=[[1.0], [2.0]], outputs=[0.0, np.inf])


class TestBasisFamily:
    @pytest.mark.parametrize(
        "kind,size,count",
        [("constant", 1, 0), ("polynomial", 3, 0), ("gaussian-rbf", 2, 2), ("exponential-abs", 2, 2)],
    )
    def test_param_count(self, kind, size, count):
        assert BasisFamily(kind, size).param_count == count

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BasisFamily("fourier", 2)

    def test_nonpositive_size(self):
        for size in (0, True):
            with pytest.raises(ValueError):
                BasisFamily("constant", size)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            BasisFamily("gaussian-rbf", 1, width=0.0)


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(alpha=[0.0], sigma_e2=0.0)


class TestGaussianBelief:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.0, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            GaussianBelief(mean=[0.0, 0.0], cov=np.eye(3))


class TestDesignMatrix:
    def test_constant_basis_is_ones_column(self):
        ds = Dataset(inputs=[[0.3], [1.2], [-0.7]], outputs=np.zeros(3))
        design = build_design_matrix(ds, BasisFamily("constant", 1), [])
        np.testing.assert_array_equal(design.phi, np.ones((3, 1)))
        assert design.gram[0, 0] == 3.0

    def test_exponential_abs_row(self):
        # centers [-4, 6] evaluated at x = -4: |x-c| is 0 and 10
        family = BasisFamily("exponential-abs", 2)
        row = model._basis_matrix(family, np.array([-4.0, 6.0]), np.array([[-4.0]]))[0]
        np.testing.assert_allclose(row, [1.0, math.exp(10.0)], rtol=1e-15)

    def test_exponential_abs_matches_formula(self):
        x = np.array([-2.0, 0.5, 3.0])
        centers = np.array([-1.0, 2.0])
        ds = Dataset(inputs=x[:, None], outputs=np.zeros(3))
        design = build_design_matrix(ds, BasisFamily("exponential-abs", 2), centers)
        expected = np.exp(np.abs(x[:, None] - centers[None, :]))
        np.testing.assert_allclose(design.phi, expected, rtol=1e-15)

    def test_gaussian_rbf_matches_formula(self):
        x = np.array([-1.0, 0.0, 2.0])
        ds = Dataset(inputs=x[:, None], outputs=np.zeros(3))
        design = build_design_matrix(ds, BasisFamily("gaussian-rbf", 2, width=0.7), [0.0, 1.0])
        expected = np.exp(-0.5 * ((x[:, None] - np.array([0.0, 1.0])[None, :]) / 0.7) ** 2)
        np.testing.assert_allclose(design.phi, expected, rtol=1e-15)

    def test_polynomial_columns(self):
        x = np.array([0.5, -1.0, 2.0])
        ds = Dataset(inputs=x[:, None], outputs=np.zeros(3))
        design = build_design_matrix(ds, BasisFamily("polynomial", 3), [])
        np.testing.assert_allclose(design.phi, np.stack([x**0, x**1, x**2], axis=1))

    def test_alpha_length_checked(self):
        ds = Dataset(inputs=[[0.0], [1.0]], outputs=[0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            build_design_matrix(ds, BasisFamily("gaussian-rbf", 2), [0.0])

    def test_more_basis_than_points_rejected(self):
        ds = Dataset(inputs=[[0.0], [1.0]], outputs=[0.0, 0.0])
        with pytest.raises(RankDeficient):
            build_design_matrix(ds, BasisFamily("polynomial", 3), [])

    def test_duplicate_centers_rejected(self):
        x = np.linspace(-1, 1, 5)
        ds = Dataset(inputs=x[:, None], outputs=np.zeros(5))
        with pytest.raises(RankDeficient):
            build_design_matrix(ds, BasisFamily("gaussian-rbf", 2), [0.3, 0.3])

    def test_nearly_duplicate_centers_rejected(self):
        # the factorization succeeds with a relative pivot near 3e-15; the
        # relative pivot check must reject it
        x = np.linspace(-1, 1, 5)
        ds = Dataset(inputs=x[:, None], outputs=np.zeros(5))
        with pytest.raises(RankDeficient) as excinfo:
            build_design_matrix(ds, BasisFamily("gaussian-rbf", 2), [0.3, 0.3 + 1e-7])
        assert excinfo.value.__cause__ is None

    def test_log_det_gram(self):
        x = np.linspace(-1, 1, 6)
        ds = Dataset(inputs=x[:, None], outputs=np.zeros(6))
        design = build_design_matrix(ds, BasisFamily("polynomial", 2), [])
        sign, expected = np.linalg.slogdet(design.gram)
        assert sign == 1.0
        assert design.log_det_gram == pytest.approx(expected, rel=1e-12)

    def test_overflowing_gram_rejected(self):
        # phi = exp(|x - c|) is finite on [0, 400] (at most 5e173), but its
        # Gram matrix overflows; numpy factors [[inf, inf], [inf, inf]] without
        # error, so the checked Cholesky must reject the non-finite factor
        x = np.linspace(0.0, 400.0, 50)
        ds = Dataset(inputs=x, outputs=np.zeros(50))
        family = BasisFamily("exponential-abs", 2)
        with pytest.raises(RankDeficient, match="non-finite Cholesky factor"):
            build_design_matrix(ds, family, [0.0, 1.0])

    def test_overflowing_basis_rejected_without_warning(self):
        # exp(|x - c|) overflows to inf more than ~709 from a center; the
        # build reports that as RankDeficient, not as a RuntimeWarning (which
        # the suite turns into an error)
        x = np.linspace(0.0, 800.0, 50)
        ds = Dataset(inputs=x, outputs=np.zeros(50))
        family = BasisFamily("exponential-abs", 2)
        with pytest.raises(RankDeficient, match="non-finite entries"):
            build_design_matrix(ds, family, [0.0, 400.0])

    def test_feature_vector_overflow_still_warns(self):
        # predict_at does not check its basis row: the overflow comes back as inf
        family = BasisFamily("exponential-abs", 1)
        posterior = GaussianBelief(mean=[1.0], cov=[[1.0]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            mean, var = predict_at(800.0, family, [0.0], posterior)
        assert mean == var == math.inf

    # below one block of rows, whole blocks only, and whole blocks with leftover rows
    @pytest.mark.parametrize("n", [200, 1024, 1100])
    def test_thin_qr_is_orthonormal_and_reproduces_phi(self, n):
        x = np.linspace(0.0, 10.0, n)
        ds = Dataset(inputs=x[:, None], outputs=np.zeros(n))
        design = build_design_matrix(ds, BasisFamily("gaussian-rbf", 8), np.linspace(0.5, 9.5, 8))
        q, r = design.qr
        assert q.shape == (n, 8) and r.shape == (8, 8)
        np.testing.assert_array_equal(r, np.triu(r))
        np.testing.assert_allclose(q.T @ q, np.eye(8), rtol=0, atol=16 * EPS)
        np.testing.assert_allclose(
            q @ r, design.phi, rtol=0, atol=8 * EPS * np.linalg.norm(design.phi, 2)
        )
        assert design.qr is design.qr


def random_gram(rng, m, order="C"):
    """Gram matrix of M random columns whose scales span about 1e-3 to 1e3."""
    cols = rng.standard_normal((m + 5, m)) * np.exp(rng.uniform(-4.0, 4.0, m))
    gram = cols.T @ cols
    return np.asarray(0.5 * (gram + gram.T), order=order)


class TestCheckedCholesky:
    """The package's one factorization, pinned to the factorizations it replaced."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_equals_reference_factors(self, m, order):
        # scipy.linalg.cholesky calls the same LAPACK: equal to the last bit.
        # numpy links its own LAPACK build, whose factor agreed to the last bit
        # for M <= 4 (example2 designs have M = 2) and otherwise differed in
        # about 10% of these matrices, by under 5 eps times a row's norm
        rng = np.random.default_rng(m)
        for _ in range(20):
            gram = random_gram(rng, m, order)
            chol = _checked_cholesky(gram, RankDeficient, "Gram matrix")
            assert np.array_equal(chol, scipy.linalg.cholesky(gram, lower=True))
            reference = np.linalg.cholesky(gram)
            if m <= 4:
                assert np.array_equal(chol, reference)
            else:
                row_norms = np.sqrt(np.diag(gram))[:, None]
                assert np.all(np.abs(chol - reference) <= 2 * m * EPS * row_norms)

    def test_equals_numpy_on_example2_grid(self):
        # every design of example2's 41 x 41 ordered grid: the same 64 are
        # rejected as by numpy's factor and the pivot rule, and the other 756
        # factors, which every recovery-study score starts from, are equal
        x = np.linspace(-10.0, 10.0, 200)
        axis = np.linspace(-10.0, 10.0, 41)
        rejected = 0
        for i, lo in enumerate(axis):
            for hi in axis[i + 1:]:
                phi = np.exp(np.abs(x[:, None] - np.array([lo, hi])[None, :]))
                gram = phi.T @ phi
                gram = 0.5 * (gram + gram.T)
                try:
                    reference = np.linalg.cholesky(gram)
                except np.linalg.LinAlgError:
                    rejected += 1
                    with pytest.raises(RankDeficient, match="not positive definite"):
                        _checked_cholesky(gram, RankDeficient, "Gram matrix")
                    continue
                if np.min(np.diag(reference) ** 2) < RANK_RTOL * np.max(np.diag(gram)):
                    rejected += 1
                    with pytest.raises(RankDeficient, match="numerically singular"):
                        _checked_cholesky(gram, RankDeficient, "Gram matrix")
                else:
                    chol = _checked_cholesky(gram, RankDeficient, "Gram matrix")
                    assert np.array_equal(chol, reference)
        assert rejected == 64

    @pytest.mark.parametrize(
        "error, what", [(RankDeficient, "Gram matrix"), (SingularPrior, "prior covariance")]
    )
    def test_not_positive_definite(self, error, what):
        with pytest.raises(error, match=f"^{what} is not positive definite$"):
            _checked_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), error, what)

    @pytest.mark.parametrize(
        "error, what", [(RankDeficient, "Gram matrix"), (SingularPrior, "prior covariance")]
    )
    def test_pivot_below_threshold(self, error, what):
        # positive definite, but the second pivot is 1e-14 of the first
        message = f"^{what} is numerically singular \\(pivot below relative threshold\\)$"
        with pytest.raises(error, match=message):
            _checked_cholesky(np.diag([1.0, 1e-14]), error, what)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[np.inf, 1.0], [1.0, 1.0]],
            [[1.0, 1.0], [1.0, np.inf]],
            [[np.inf, np.inf], [np.inf, np.inf]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
        ],
    )
    def test_nonfinite_matrix_rejected(self, matrix):
        with pytest.raises(RankDeficient):
            _checked_cholesky(np.array(matrix), RankDeficient, "Gram matrix")

    def test_nonfinite_factor_reported_before_the_pivot_threshold(self):
        # dpotrf accepts this matrix with the factor [[inf, 0], [0, 1]], whose
        # pivot 1 is also below RANK_RTOL times the infinite diagonal entry
        message = "^Gram matrix has a non-finite Cholesky factor$"
        with pytest.raises(RankDeficient, match=message):
            _checked_cholesky(np.array([[np.inf, 1.0], [1.0, 1.0]]), RankDeficient, "Gram matrix")


class TestChoSolve:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_equals_scipy_cho_solve(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(10):
            chol = _checked_cholesky(random_gram(rng, m), RankDeficient, "Gram matrix")
            phi = rng.standard_normal((m + 7, m))
            for rhs in (
                rng.standard_normal(m),
                rng.standard_normal((m, 3)),
                np.asfortranarray(rng.standard_normal((m, 3))),
                phi.T,  # a wide right-hand side, as a transposed view
                np.eye(m),
            ):
                x = _cho_solve(chol, rhs)
                expected = scipy.linalg.cho_solve((chol, True), rhs)
                assert x.shape == expected.shape
                assert np.array_equal(x, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2,), (2, 3)])
    def test_nonfinite_rhs_rejected_as_scipy_does(self, bad, shape):
        chol = np.linalg.cholesky(np.array([[4.0, 1.0], [1.0, 3.0]]))
        rhs = np.ones(shape)
        rhs[(1,) * len(shape)] = bad
        with pytest.raises(ValueError) as expected:
            scipy.linalg.cho_solve((chol, True), rhs)
        with pytest.raises(ValueError) as excinfo:
            _cho_solve(chol, rhs)
        assert str(excinfo.value) == str(expected.value)


# Centers come from a small pool, so a stack repeats centers within and across
# designs.  From inputs in [-10, 10], an exponential-abs column centered at
# 300 is finite with a finite square, one at 400 is finite with a square past
# the largest float, and one at +-900 overflows.
_POOL_CENTERS = st.sampled_from([-900.0, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 300.0, 400.0, 900.0])


@st.composite
def design_stacks(draw):
    """``(dataset, family, alphas)``: a located family and a (K, M) stack of centers."""
    kind = draw(st.sampled_from(["gaussian-rbf", "exponential-abs"]))
    m = draw(st.integers(1, 4))
    family = BasisFamily(kind, m, width=draw(st.sampled_from([0.3, 1.0, 4.0])))
    n = draw(st.integers(1, 8))  # M > N included
    x = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    centers = _POOL_CENTERS | st.floats(-5.0, 5.0)
    k = draw(st.integers(1, 6))
    alphas = draw(st.lists(st.lists(centers, min_size=m, max_size=m), min_size=k, max_size=k))
    return Dataset(inputs=x, outputs=y), family, np.array(alphas)


class TestStackedDesigns:
    """A stack of designs is bitwise the designs built one at a time."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(design_stacks())
    def test_banked_basis_equals_one_design_bases(self, case):
        dataset, family, alphas = case
        with np.errstate(over="ignore"):
            stacked = model._basis_matrix(family, alphas, dataset.inputs)
            alone = np.array([model._basis_matrix(family, alpha, dataset.inputs) for alpha in alphas])
        assert stacked.flags.c_contiguous
        assert stacked.shape == alone.shape
        assert stacked.tobytes() == alone.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(design_stacks(), st.data())
    def test_fit_stack_equals_one_design_fits(self, case, data):
        dataset, family, alphas = case
        y = dataset.outputs
        m = family.size
        theta = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m)))
        faults, designs = [], []
        for alpha in alphas:
            try:
                designs.append(build_design_matrix(dataset, family, alpha))
            except RankDeficient as exc:
                faults.append(str(exc))
                continue
            faults.append(None)
        try:
            fits = model._fit_stack(y, family, alphas, dataset.inputs)
        except RankDeficient as exc:
            # M > N, which every design of the stack raises alike
            assert set(faults) == {str(exc)}
            return
        assert fits.faults == faults
        assert fits.admitted.tolist() == [fault is None for fault in faults]
        ml = [model._residual_sum_of_squares(y, design) for design in designs]
        assert fits.theta.tobytes() == np.array([theta_hat for theta_hat, _ in ml]).tobytes()
        assert fits.rss.tobytes() == np.array([rss for _, rss in ml]).tobytes()
        assert fits.log_det_gram.tobytes() == np.array([d.log_det_gram for d in designs]).tobytes()
        inverse = model._cho_solve(fits.chol, np.broadcast_to(np.eye(m), fits.chol.shape))
        inverse = 0.5 * (inverse + inverse.swapaxes(-1, -2))
        assert inverse.tobytes() == np.array([d.inv_gram for d in designs]).tobytes()
        # each design keeps one inverse, which no caller may write
        assert not any(d.inv_gram.flags.writeable for d in designs)
        energy = [float((y - d.phi @ theta) @ (y - d.phi @ theta)) for d in designs]
        assert model._stacked_energy(y, fits.phi, theta).tobytes() == np.array(energy).tobytes()


def random_triangular(rng, m, lower):
    """A random ``m x m`` matrix whose ``lower`` (or upper) triangle is nonsingular.

    The other triangle is random too: the inverse must ignore it.
    """
    matrix = rng.standard_normal((m, m))
    matrix[np.diag_indices(m)] = rng.choice([-1.0, 1.0], m) * rng.uniform(0.2, 3.0, m)
    return matrix


class TestTriInverse:
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("m", range(1, 11))
    def test_inverts_as_the_triangular_solve_does(self, m, lower):
        rng = np.random.default_rng(300 + m)
        for _ in range(10):
            matrix = random_triangular(rng, m, lower)
            tri = np.tril(matrix) if lower else np.triu(matrix)
            inv = _tri_inverse(matrix, lower, SingularPrior, "prior covariance factor")
            bound = 8.0 * m * EPS * np.linalg.cond(tri)
            # bitwise, and in the same layout, numpy's zeroing of dtrtri's output
            raw = dtrtri(matrix, lower=int(lower))[0]
            expected = np.tril(raw) if lower else np.triu(raw)
            assert inv.tobytes() == expected.tobytes()
            assert inv.strides == expected.strides
            assert np.linalg.norm(tri @ inv - np.eye(m), 2) <= bound
            expected = scipy.linalg.solve_triangular(matrix, np.eye(m), lower=lower)
            assert np.linalg.norm(inv - expected, 2) <= bound * np.linalg.norm(expected, 2)

    @pytest.mark.parametrize("lower", [True, False])
    def test_triangle_masks_are_shared_and_read_only(self, lower):
        mask = model._triangle_mask(5, 4, lower)
        assert model._triangle_mask(5, 4, lower) is mask
        expected = np.tri(5, 4, dtype=bool) if lower else np.triu(np.ones((5, 4), dtype=bool))
        assert np.array_equal(mask, expected)
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = False

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize(
        "error, what",
        [(SingularPrior, "prior covariance factor"), (RankDeficient, "Gram factor")],
    )
    def test_zero_diagonal_entry(self, lower, error, what):
        rng = np.random.default_rng(310)
        for k in range(4):
            matrix = random_triangular(rng, 4, lower)
            matrix[k, k] = 0.0
            with pytest.raises(error, match=f"^{what} is singular"):
                _tri_inverse(matrix, lower, error, what)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (2, 1), (1, 2)])
    def test_nonfinite_factor_rejected_as_scipy_does(self, lower, bad, entry):
        matrix = random_triangular(np.random.default_rng(320), 3, lower)
        matrix[entry] = bad
        with pytest.raises(ValueError) as expected:
            scipy.linalg.solve_triangular(matrix, np.eye(3), lower=lower)
        with pytest.raises(ValueError) as excinfo:
            _tri_inverse(matrix, lower, SingularPrior, "prior covariance factor")
        assert str(excinfo.value) == str(expected.value)


class TestTriSolve:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_solves_as_the_triangular_solve_does(self, m):
        rng = np.random.default_rng(330 + m)
        for _ in range(10):
            matrix = random_triangular(rng, m, False)
            rhs = rng.standard_normal(m)
            x = _tri_solve(matrix, rhs, SingularPrior, "posterior precision QR factor")
            expected = scipy.linalg.solve_triangular(matrix, rhs)
            bound = 8.0 * m * EPS * np.linalg.cond(np.triu(matrix))
            assert np.linalg.norm(x - expected) <= bound * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "error, what",
        [(SingularPrior, "posterior precision QR factor"), (RankDeficient, "Gram factor")],
    )
    def test_zero_diagonal_entry(self, error, what):
        rng = np.random.default_rng(340)
        for k in range(4):
            matrix = random_triangular(rng, 4, False)
            matrix[k, k] = 0.0
            with pytest.raises(error, match=f"^{what} is singular"):
                _tri_solve(matrix, np.ones(4), error, what)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (2, 1), (1, 2), "rhs"])
    def test_nonfinite_input_rejected_as_scipy_does(self, bad, entry):
        matrix = random_triangular(np.random.default_rng(350), 3, False)
        rhs = np.ones(3)
        if entry == "rhs":
            rhs[1] = bad
        else:
            matrix[entry] = bad
        with pytest.raises(ValueError) as expected:
            scipy.linalg.solve_triangular(matrix, rhs)
        with pytest.raises(ValueError) as excinfo:
            _tri_solve(matrix, rhs, SingularPrior, "posterior precision QR factor")
        assert str(excinfo.value) == str(expected.value)


class TestSmallFactorKernels:
    # the bordered matrix of a ridge fit is 2M x (M + 1)
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 12])
    def test_r_mode_qr_is_numpys_bitwise(self, m):
        rng = np.random.default_rng(360 + m)
        for _ in range(5):
            matrix = rng.standard_normal((2 * m, m + 1))
            assert _thin_qr(matrix, "r").tobytes() == np.linalg.qr(matrix, "r").tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 12])
    def test_singular_values_match_numpy(self, m):
        rng = np.random.default_rng(370 + m)
        for _ in range(5):
            r = np.triu(rng.standard_normal((m, m))) + 3.0 * np.eye(m)
            expected = np.linalg.svd(r, compute_uv=False)
            np.testing.assert_allclose(_singular_values(r), expected, rtol=8 * m * EPS, atol=0)


class TestLogLikelihood:
    def test_zero_residual_normalization_cancels(self):
        # sigma_e2 = 1/(2 pi) makes the per-point constant vanish
        x = np.linspace(0, 1, 4)
        ds = Dataset(inputs=x[:, None], outputs=2.0 * x)
        design = build_design_matrix(ds, BasisFamily("polynomial", 2), [])
        value = log_likelihood(ds.outputs, design, [0.0, 2.0], 1.0 / (2.0 * math.pi))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_standard_normal_at_origin(self):
        ds = Dataset(inputs=[[0.0]], outputs=[0.0])
        design = build_design_matrix(ds, BasisFamily("constant", 1), [])
        value = log_likelihood(np.array([0.0]), design, [0.0], 1.0)
        assert value == pytest.approx(-0.5 * math.log(2.0 * math.pi), rel=1e-15)

    def test_matches_per_point_density_oracle(self):
        rng = np.random.default_rng(17)
        x = np.linspace(-1, 1, 4)
        ds = Dataset(inputs=x[:, None], outputs=rng.normal(size=4))
        design = build_design_matrix(ds, BasisFamily("polynomial", 2), [])
        theta = rng.normal(size=2)
        sigma2 = 0.6
        ours = log_likelihood(ds.outputs, design, theta, sigma2)
        mean = design.phi @ theta
        oracle = float(
            np.sum(stats.norm.logpdf(ds.outputs, loc=mean, scale=math.sqrt(sigma2)))
        )
        assert ours == pytest.approx(oracle, rel=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        theta = [0.4, -0.2]
        perm = rng.permutation(5)
        d1 = build_design_matrix(
            Dataset(inputs=x[:, None], outputs=y), BasisFamily("polynomial", 2), []
        )
        d2 = build_design_matrix(
            Dataset(inputs=x[perm][:, None], outputs=y[perm]), BasisFamily("polynomial", 2), []
        )
        assert log_likelihood(y, d1, theta, 0.7) == pytest.approx(
            log_likelihood(y[perm], d2, theta, 0.7), rel=1e-14
        )

    def test_dimension_mismatch(self):
        ds = Dataset(inputs=[[0.0], [1.0]], outputs=[0.0, 1.0])
        design = build_design_matrix(ds, BasisFamily("constant", 1), [])
        with pytest.raises(DimensionMismatch):
            log_likelihood(np.array([0.0, 1.0]), design, [0.0, 1.0], 1.0)
        with pytest.raises(DimensionMismatch):
            log_likelihood(np.array([0.0]), design, [0.0], 1.0)


class TestMlEstimate:
    @pytest.mark.parametrize("c,want_var", [(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)])
    def test_symmetric_two_point_rows(self, c, want_var):
        ds = two_point_dataset([-c, c])
        design = build_design_matrix(ds, BasisFamily("constant", 1), [])
        theta, sigma2 = ml_estimate(ds.outputs, design)
        assert theta[0] == 0.0
        assert sigma2 == want_var

    def test_zero_data(self):
        ds = two_point_dataset([0.0, 0.0])
        design = build_design_matrix(ds, BasisFamily("constant", 1), [])
        theta, sigma2 = ml_estimate(ds.outputs, design)
        assert theta[0] == 0.0
        assert sigma2 == 0.0

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(12)
        x = np.linspace(-2, 2, 30)
        y = rng.normal(size=30)
        ds = Dataset(inputs=x[:, None], outputs=y)
        design = build_design_matrix(ds, BasisFamily("polynomial", 3), [])
        theta, _ = ml_estimate(y, design)
        resid = y - design.phi @ theta
        norms = np.linalg.norm(design.phi, axis=0)
        inner = np.abs(design.phi.T @ resid)
        assert np.all(inner <= 1e-9 * np.linalg.norm(y) * norms)

    def test_equals_flat_prior_posterior_mean(self):
        rng = np.random.default_rng(3)
        x = np.linspace(-1, 1, 9)
        y = rng.normal(size=9)
        ds = Dataset(inputs=x[:, None], outputs=y)
        design = build_design_matrix(ds, BasisFamily("polynomial", 3), [])
        theta, _ = ml_estimate(y, design)
        posterior = flat_posterior_coefficients(y, design, 0.5)
        np.testing.assert_allclose(theta, posterior.mean, rtol=1e-12)


class TestSamplingDistribution:
    def test_matches_resampling_oracle(self):
        x = np.linspace(-1, 1, 6)
        ds = Dataset(inputs=x[:, None], outputs=np.zeros(6))
        design = build_design_matrix(ds, BasisFamily("polynomial", 2), [])
        theta_true = np.array([0.8, -0.3])
        # least squares under y = Phi theta_true + e: cov sigma_e2 (Phi^T Phi)^{-1}
        cov = 0.5 * np.linalg.inv(design.phi.T @ design.phi)
        stats_out = resampling_estimator_stats(design, theta_true, 0.5, 20_000, seed=77)
        reps = stats_out.n_reps
        for i in range(2):
            for j in range(2):
                want = cov[i, j]
                se = math.sqrt((cov[i, i] * cov[j, j] + want**2) / (reps - 1))
                assert abs(stats_out.theta_cov[i, j] - want) < 3 * se
