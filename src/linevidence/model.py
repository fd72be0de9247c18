"""Core data model for linear-in-parameters regression.

The observation model is ``y = Phi theta + e`` with ``e ~ N(0, sigma_e2 I)``.
``Phi`` is an N x M design matrix whose columns are basis functions evaluated
at the inputs; basis parameters such as centers enter through ``alpha``.
Everything downstream (posteriors, evidence-style scores, experiment drivers)
is built on the types and operations defined here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .exceptions import DegenerateDof, DimensionMismatch, LinEvidenceError, RankDeficient

# Relative pivot threshold: a Cholesky pivot below RANK_RTOL times the largest
# diagonal entry means the matrix is numerically singular (for a Gram matrix,
# the columns are numerically dependent).
RANK_RTOL = 1e-12

_SYMMETRY_RTOL = 1e-10

BASIS_KINDS = ("constant", "polynomial", "gaussian-rbf", "exponential-abs")


def _as_float_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Observed inputs and outputs.

    Parameters
    ----------
    inputs : array_like, shape (N, d) or (N,)
        Input locations.  A 1-D array is treated as N scalar inputs.
    outputs : array_like, shape (N,)
        Observed responses.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        x = _as_float_array(self.inputs, "inputs")
        y = _as_float_array(self.outputs, "outputs")
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise DimensionMismatch("inputs must be a 1-D or 2-D array")
        if y.ndim != 1:
            raise DimensionMismatch("outputs must be a 1-D array")
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"inputs have {x.shape[0]} rows but outputs have {y.shape[0]}"
            )
        if y.shape[0] < 1:
            raise DimensionMismatch("dataset must contain at least one point")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "outputs", y)

    @property
    def n(self) -> int:
        return self.outputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class BasisFamily:
    """A named family of basis functions.

    ``kind`` selects the functional form, ``size`` is the number M of basis
    functions, and ``width`` is the length scale of the gaussian-rbf kind
    (ignored by the others).  The parameter layout is one center per basis
    for the located kinds and empty for constant/polynomial:

    - ``constant``:        phi_m(x) = 1
    - ``polynomial``:      phi_m(x) = x**(m-1), scalar inputs only
    - ``gaussian-rbf``:    phi_m(x) = exp(-(x - c_m)**2 / (2 width**2))
    - ``exponential-abs``: phi_m(x) = exp(|x - c_m|)
    """

    kind: str
    size: int
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {BASIS_KINDS}")
        if not isinstance(self.size, (int, np.integer)) or self.size < 1:
            raise ValueError("basis size must be a positive integer")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError("width must be a positive finite number")

    @property
    def param_count(self) -> int:
        """Length of the ``alpha`` vector this family expects."""
        return self.size if self.kind in ("gaussian-rbf", "exponential-abs") else 0


@dataclass(frozen=True)
class HyperParams:
    """Basis parameters plus noise (and optionally prior) variances.

    ``prior_scale`` is the isotropic prior variance sigma_p^2 on the
    coefficients.
    """

    alpha: np.ndarray
    sigma_e2: float
    prior_scale: float | None = None

    def __post_init__(self):
        alpha = np.atleast_1d(_as_float_array(self.alpha, "alpha"))
        if alpha.ndim != 1:
            raise DimensionMismatch("alpha must be a 1-D array")
        object.__setattr__(self, "alpha", alpha)
        _check_variances(self.sigma_e2, self.prior_scale)
        # keep scalars as plain floats so serialization never sees numpy reprs
        object.__setattr__(self, "sigma_e2", float(self.sigma_e2))
        if self.prior_scale is not None:
            object.__setattr__(self, "prior_scale", float(self.prior_scale))


@dataclass(frozen=True)
class GaussianBelief:
    """A multivariate normal summarized by its mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(_as_float_array(self.mean, "mean"))
        cov = np.atleast_2d(_as_float_array(self.cov, "cov"))
        if mean.ndim != 1 or cov.ndim != 2:
            raise DimensionMismatch("mean must be 1-D and cov 2-D")
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        asym = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
        scale = max(float(np.max(np.abs(cov))) if cov.size else 0.0, 1.0)
        if asym > _SYMMETRY_RTOL * scale:
            raise ValueError("covariance is not symmetric within tolerance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _checked_cholesky(
    matrix: np.ndarray, error: type[LinEvidenceError], what: str
) -> np.ndarray:
    """Lower Cholesky factor with a relative pivot check; raises ``error``.

    Used for Gram matrices (``RankDeficient``) and prior covariances and
    posterior precisions (``SingularPrior``); ``what`` names the matrix in
    the message.  LAPACK ``dpotrf`` is called directly, reading the lower
    triangle and zeroing the upper one, as ``np.linalg.cholesky`` does.
    Checked here: ``dpotrf`` must succeed, the factor must be finite, and
    no squared pivot may fall below ``RANK_RTOL`` times the largest diagonal
    entry of ``matrix``.  A returned factor is therefore finite, and
    :func:`_cho_solve` does not check it again.
    """
    chol, info = dpotrf(matrix, lower=1, clean=1)
    if info != 0:
        raise error(f"{what} is not positive definite")
    pivots = chol.diagonal() ** 2
    # every entry of a row of the factor enters that row's pivot, so a
    # non-finite factor that dpotrf accepts has an infinite or NaN pivot
    if not math.isfinite(pivots.max()):
        raise error(f"{what} has a non-finite Cholesky factor")
    if pivots.min() < RANK_RTOL * matrix.diagonal().max():
        raise error(f"{what} is numerically singular (pivot below relative threshold)")
    return chol


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(chol chol^T) x = rhs`` for a factor from :func:`_checked_cholesky`.

    LAPACK ``dpotrs`` is called directly; ``rhs`` may be 1-D or 2-D.  As in
    ``scipy.linalg.cho_solve``, a non-finite ``rhs`` raises ``ValueError``
    with scipy's message.  The factor is not checked: ``_checked_cholesky``
    returns only finite factors.
    """
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpotrs(chol, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _log_det_from_factor(factor: np.ndarray) -> float:
    """``log det(F^T F)`` of a triangular factor ``F``: ``2 sum log |F_ii|``."""
    return 2.0 * float(np.log(np.abs(factor.diagonal())).sum())


@dataclass(frozen=True)
class DesignMatrix:
    """A validated design matrix with its cached Gram factorization.

    Built through :func:`build_design_matrix`; construction fails with
    :class:`RankDeficient` unless ``phi`` has full column rank (which
    requires M <= N).
    """

    phi: np.ndarray
    gram: np.ndarray
    chol: np.ndarray

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def m(self) -> int:
        return self.phi.shape[1]

    @property
    def log_det_gram(self) -> float:
        # log det from the factor diagonal; stable for large N and M
        return _log_det_from_factor(self.chol)

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``gram @ x = rhs`` using the cached Cholesky factor."""
        return _cho_solve(self.chol, rhs)

    def inv_gram(self) -> np.ndarray:
        inv = _cho_solve(self.chol, np.eye(self.m))
        return 0.5 * (inv + inv.T)


def _basis_matrix(family: BasisFamily, alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    n, d = x.shape
    if family.kind == "constant":
        return np.ones((n, family.size))
    if d != 1:
        raise DimensionMismatch(
            f"{family.kind} basis requires scalar inputs, got input_dim={d}"
        )
    t = x[:, 0]
    if family.kind == "polynomial":
        return np.vander(t, family.size, increasing=True)
    diff = t[:, None] - alpha[None, :]
    if family.kind == "gaussian-rbf":
        return np.exp(-0.5 * (diff / family.width) ** 2)
    return np.exp(np.abs(diff))


def feature_vector(family: BasisFamily, alpha, x) -> np.ndarray:
    """Basis row phi(x) for a single input point.

    ``x`` may be a scalar or a length-d vector; returns a length-M array.
    Unlike :func:`build_design_matrix`, it does not check the row: an
    overflowing exponential-abs value comes back as inf, with numpy's
    overflow ``RuntimeWarning``.
    """
    alpha = _check_alpha(family, alpha)
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.ndim != 1:
        raise DimensionMismatch("x must be a scalar or 1-D point")
    return _basis_matrix(family, alpha, pt[None, :])[0]


def _check_alpha(family: BasisFamily, alpha) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(alpha, dtype=float))
    if arr.size != family.param_count:
        raise DimensionMismatch(
            f"{family.kind} basis with size {family.size} expects "
            f"{family.param_count} parameters, got {arr.size}"
        )
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("alpha must contain only finite values")
    return arr


def build_design_matrix(dataset: Dataset, family: BasisFamily, alpha) -> DesignMatrix:
    """Evaluate the basis family at the dataset inputs.

    Raises
    ------
    DimensionMismatch
        If ``alpha`` has the wrong length for the family.
    RankDeficient
        If M > N, the basis produced non-finite values, or the Gram matrix
        overflows or fails the positive-definiteness check.
    """
    alpha = _check_alpha(family, alpha)
    # an exponential-abs basis overflows to inf more than ~709 from its center,
    # and a finite phi can still overflow its Gram matrix; the finite check and
    # the checked Cholesky report these as RankDeficient, so neither overflow
    # is a warning
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _basis_matrix(family, alpha, dataset.inputs)
        if phi.shape[1] > phi.shape[0]:
            raise RankDeficient(
                f"more basis functions ({phi.shape[1]}) than observations ({phi.shape[0]})"
            )
        if not np.isfinite(phi).all():
            raise RankDeficient("design matrix contains non-finite entries")
        gram = phi.T @ phi
        gram = 0.5 * (gram + gram.T)
    chol = _checked_cholesky(gram, RankDeficient, "Gram matrix")
    return DesignMatrix(phi=phi, gram=gram, chol=chol)


def log_likelihood(y, design: DesignMatrix, theta, sigma_e2: float) -> float:
    """Gaussian log likelihood log p(y | theta, sigma_e2), in log domain throughout."""
    energy = _residual_energy(y, design, theta)
    _check_noise_var(sigma_e2)
    return _log_likelihood_at(design.n, energy, sigma_e2)


def _residual_energy(y, design: DesignMatrix, theta) -> float:
    """``||y - Phi theta||^2`` after the length checks of ``y`` and ``theta``."""
    y = _check_outputs(y, design)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (design.m,):
        raise DimensionMismatch(f"theta must have length {design.m}")
    resid = y - design.phi @ theta
    return float(resid @ resid)


def _log_likelihood_at(n: int, energy: float, sigma_e2: float) -> float:
    """:func:`log_likelihood` from its residual energy, at one checked sigma_e2."""
    return float(-0.5 * n * np.log(2.0 * np.pi * sigma_e2) - 0.5 * energy / sigma_e2)


def ml_estimate(y, design: DesignMatrix) -> tuple[np.ndarray, float]:
    """Maximum-likelihood coefficients and (biased) noise variance.

    Returns ``theta_hat = (Phi^T Phi)^{-1} Phi^T y`` and
    ``sigma2_ml = ||y - Phi theta_hat||^2 / N``.
    """
    y = _check_outputs(y, design)
    theta_hat, rss = _residual_sum_of_squares(y, design)
    return theta_hat, rss / design.n


def _residual_sum_of_squares(y: np.ndarray, design: DesignMatrix) -> tuple[np.ndarray, float]:
    theta_hat = design.solve_gram(design.phi.T @ y)
    resid = y - design.phi @ theta_hat
    # direct sum of squares: nonnegative by construction, no cancellation
    return theta_hat, float(resid @ resid)


def residual_dof(design: DesignMatrix) -> int:
    """N - M, raising DegenerateDof when it is zero."""
    dof = design.n - design.m
    if dof <= 0:
        raise DegenerateDof("operation requires N > M residual degrees of freedom")
    return dof


def _check_outputs(y, design: DesignMatrix) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (design.n,):
        raise DimensionMismatch(f"y must have length {design.n}")
    return y


def _check_noise_var(sigma_e2: float) -> None:
    if not (math.isfinite(sigma_e2) and sigma_e2 > 0):
        raise ValueError("sigma_e2 must be a positive finite number")


def _check_variances(sigma_e2: float, prior_scale: float | None) -> None:
    """The rules for the two variances of a ``HyperParams``."""
    _check_noise_var(sigma_e2)
    if prior_scale is not None and not (math.isfinite(prior_scale) and prior_scale > 0):
        raise ValueError("prior_scale must be positive and finite when given")
