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
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd, dpotrf, dpotrs, dtrtri, dtrtrs

from .exceptions import DimensionMismatch, LinEvidenceError, RankDeficient

# Relative pivot threshold: a Cholesky pivot below RANK_RTOL times the largest
# diagonal entry means the matrix is numerically singular (for a Gram matrix,
# the columns are numerically dependent).
RANK_RTOL = 1e-12

_SYMMETRY_RTOL = 1e-10

BASIS_KINDS = ("constant", "polynomial", "gaussian-rbf", "exponential-abs")


def _is_count(value) -> bool:
    """True for a Python or NumPy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_count(self.size) or self.size < 1:
            raise ValueError("basis size must be a positive integer")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError("width must be a positive finite number")

    @property
    def param_count(self) -> int:
        """Length of the ``alpha`` vector this family expects."""
        return self.size if self.kind in ("gaussian-rbf", "exponential-abs") else 0


@dataclass(frozen=True)
class HyperParams:
    """Basis parameters ``alpha`` plus the noise variance ``sigma_e2``."""

    alpha: np.ndarray
    sigma_e2: float

    def __post_init__(self):
        alpha = np.atleast_1d(_as_float_array(self.alpha, "alpha"))
        if alpha.ndim != 1:
            raise DimensionMismatch("alpha must be a 1-D array")
        object.__setattr__(self, "alpha", alpha)
        _check_noise_var(self.sigma_e2)
        # keep scalars as plain floats so serialization never sees numpy reprs
        object.__setattr__(self, "sigma_e2", float(self.sigma_e2))


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


# What _checked_cholesky says of a factor, by the index _factor_faults gives:
# 4 * (dpotrf failed) + 2 * (largest squared pivot finite) + (smallest squared
# pivot below RANK_RTOL times the largest diagonal entry), so each index names
# the first rule it breaks, in the order dpotrf, finiteness, threshold; None
# where it breaks none
_NOT_PD = "is not positive definite"
_NON_FINITE_FACTOR = "has a non-finite Cholesky factor"
_SINGULAR = "is numerically singular (pivot below relative threshold)"
_FACTOR_FAULTS = (_NON_FINITE_FACTOR, _NON_FINITE_FACTOR, None, _SINGULAR) + (_NOT_PD,) * 4
# a numpy integer: a Python int times a numpy bool takes microseconds
_TWO = np.int64(2)


def _factor_faults(info, chol: np.ndarray, matrix: np.ndarray):
    """Index into ``_FACTOR_FAULTS`` of ``dpotrf``'s result for one matrix or a stack.

    ``info`` and ``chol`` are ``dpotrf``'s status and lower factor of
    ``matrix``: an int, an ``(M, M)`` factor and matrix, or a ``(K,)``
    status array with ``(K, M, M)`` stacks, which give a ``(K,)`` array.
    A factor ``dpotrf`` rejected is squared but not read, so it must hold
    zeros: ``dpotrf`` leaves entries of ``matrix`` there, whose squares may
    overflow.
    """
    diagonal = chol.diagonal(0, -2, -1)
    # the diagonal of an accepted factor is positive, so the extreme squared
    # pivots are, bitwise, the squares of its extreme entries; every entry of
    # a row of the factor enters that row's pivot, so a non-finite factor
    # that dpotrf accepts has an infinite or NaN pivot
    top, low = np.maximum.reduce(diagonal, -1), np.minimum.reduce(diagonal, -1)
    finite = top * top < math.inf
    singular = low * low < RANK_RTOL * np.maximum.reduce(matrix.diagonal(0, -2, -1), -1)
    return (info != 0) * 4 + _TWO * finite + singular


def _checked_cholesky(
    matrix: np.ndarray, error: type[LinEvidenceError], what: str
) -> np.ndarray:
    """Lower Cholesky factor with a relative pivot check; raises ``error``.

    Used for Gram matrices (``RankDeficient``) and prior covariances and
    posterior precisions (``SingularPrior``); ``what`` names the matrix in
    the message.  LAPACK ``dpotrf`` is called directly, reading the lower
    triangle and zeroing the upper one, as NumPy's Cholesky does.
    Checked by :func:`_factor_faults`, in this order: ``dpotrf`` must
    succeed, the factor must be finite, and no squared pivot may fall below
    ``RANK_RTOL`` times the largest diagonal entry of ``matrix``.  A
    returned factor is therefore finite, and :func:`_cho_solve` does not
    check it again.
    """
    chol, info = dpotrf(matrix, 1, 1)  # lower=1, clean=1
    if info:
        chol.fill(0.0)
    fault = _FACTOR_FAULTS[_factor_faults(info, chol, matrix)]
    if fault:
        raise error(f"{what} {fault}")
    return chol


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(chol chol^T) x = rhs`` for a factor from :func:`_checked_cholesky`.

    LAPACK ``dpotrs`` is called directly; ``rhs`` may be 1-D or 2-D.  A
    ``(K, M, M)`` stack of factors solves a ``(K, M)`` stack of right-hand
    sides, one ``dpotrs`` call per factor.  As in SciPy's Cholesky solve, a
    non-finite ``rhs`` raises ``ValueError`` with scipy's message.  The
    factors are not checked: ``_checked_cholesky`` returns only finite ones.
    """
    _check_finite(rhs)
    if chol.ndim == 3:
        x = np.empty(rhs.shape)
        for k in range(len(chol)):
            x[k] = _potrs(chol[k], rhs[k])
        return x
    return _potrs(chol, rhs)


def _potrs(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x, info = dpotrs(chol, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _tri_inverse(
    factor: np.ndarray, lower: bool, error: type[LinEvidenceError], what: str
) -> np.ndarray:
    """Inverse of the lower or upper triangle of ``factor``; raises ``error``.

    LAPACK ``dtrtri`` is called directly and the other triangle of the
    result is zeroed by :func:`_triangle`: ~4.4 us for an 8 x 8 factor.  So
    the inverse stands in for SciPy's triangular solve against the identity,
    whose threaded ``dtrtrs`` costs milliseconds on a small factor (see
    :mod:`linevidence.gaussian_prior`).  As in that solve,
    a non-finite ``factor`` raises ``ValueError`` with scipy's message; an
    exactly zero diagonal entry raises ``error``, with ``what`` naming the
    factor.
    """
    _check_finite(factor)
    inv, info = dtrtri(factor, lower=int(lower))
    if info > 0:
        raise error(f"{what} is singular (zero diagonal entry {info})")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal trtri")
    return _triangle(inv, lower)


def _triangle(matrix: np.ndarray, lower: bool) -> np.ndarray:
    """``np.tril(matrix)`` if ``lower``, else ``np.triu(matrix)``, bitwise and in the same layout.

    The same ``np.where`` NumPy runs, against a mask cached per shape and
    side: ``np.triu`` builds a fresh ``np.tri`` mask on every call, and at
    8 x 8 took 5.1 us, against 1.5 us here.
    """
    return np.where(_triangle_mask(*matrix.shape, lower), matrix, 0.0)


@lru_cache(maxsize=64)
def _triangle_mask(rows: int, cols: int, lower: bool) -> np.ndarray:
    """The entries :func:`_triangle` keeps; read-only, as every caller shares it."""
    mask = np.tri(rows, cols, dtype=bool) if lower else ~np.tri(rows, cols, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _tri_solve(
    factor: np.ndarray, rhs: np.ndarray, error: type[LinEvidenceError], what: str
) -> np.ndarray:
    """Solve ``U x = rhs`` for the upper triangle ``U`` of ``factor``; raises ``error``.

    LAPACK ``dtrtrs`` is called directly: on an 8 x 8 factor it takes
    ~0.8 us, and SciPy's triangular solve ~16 us.  As in that solve, a
    non-finite ``factor`` or ``rhs`` raises ``ValueError`` with scipy's
    message; an exactly zero diagonal entry raises ``error``, with ``what``
    naming the factor, as :func:`_tri_inverse` does.
    """
    _check_finite(factor)
    _check_finite(rhs)
    x, info = dtrtrs(factor, rhs)
    if info > 0:
        raise error(f"{what} is singular (zero diagonal entry {info})")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal trtrs")
    return x


def _check_finite(array: np.ndarray) -> None:
    if not np.isfinite(array).all():
        raise ValueError("array must not contain infs or NaNs")


def _singular_values(matrix: np.ndarray) -> np.ndarray:
    """NumPy's singular values of ``matrix`` (no vectors), by a direct LAPACK ``dgesdd`` call."""
    _, singular, _, info = dgesdd(matrix, compute_uv=0)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return singular


def _log_det_from_factor(factor: np.ndarray):
    """``log det(F^T F)`` of a triangular factor ``F``: ``2 sum log |F_ii|``.

    A float for one factor; an array for a ``(K, M, M)`` stack of them.
    """
    log_det = 2.0 * np.log(np.abs(factor.diagonal(0, -2, -1))).sum(axis=-1)
    return float(log_det) if log_det.ndim == 0 else log_det


def _thin_qr(matrix: np.ndarray, mode: str = "reduced"):
    """``np.linalg.qr(matrix, mode)`` of a tall ``matrix``, mode "reduced" or "r".

    Mode "r" is one direct LAPACK ``dgeqrf`` call, whose R is bitwise
    NumPy's, with the Householder vectors zeroed by :func:`_triangle`: ~4.8
    us for a 16 x 9 matrix, against NumPy's ~14 us.  A
    reduced QR of two or more whole blocks of 256 rows is a TSQR (Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012) of LAPACK
    calls too small for OpenBLAS to thread (see gaussian_prior).
    """
    rows, cols = matrix.shape
    if mode == "r":
        # dgeqrf's info reports only an illegal argument, which this call
        # cannot make; its Householder vectors fill the lower triangle
        return _triangle(dgeqrf(matrix)[0][: min(rows, cols)], False)
    block = max(256, cols)
    whole = rows - rows % block
    if whole <= block:
        return np.linalg.qr(matrix, mode)
    q_blocks, tops = np.linalg.qr(matrix[:whole].reshape(-1, block, cols))
    q_top, r = np.linalg.qr(np.vstack([tops.reshape(-1, cols), matrix[whole:]]))
    k = len(tops) * cols
    q_whole = q_blocks @ q_top[:k].reshape(-1, cols, cols)
    return np.vstack([q_whole.reshape(whole, cols), q_top[k:]]), r


@dataclass(frozen=True)
class DesignMatrix:
    """A validated design matrix with its cached Gram factorization.

    Built through :func:`build_design_matrix`; construction fails with
    :class:`RankDeficient` unless ``phi`` has full column rank (which
    requires M <= N).  The sigma_e2-free factors of a fit, ``log_det_gram``,
    ``inv_gram`` and ``qr``, are formed on first use and kept.
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

    @cached_property
    def log_det_gram(self) -> float:
        """``log det(Phi^T Phi)`` from the factor diagonal; stable for large N and M."""
        return _log_det_from_factor(self.chol)

    @cached_property
    def inv_gram(self) -> np.ndarray:
        """``(Phi^T Phi)^{-1}``, symmetrized; formed on first use and kept, read-only."""
        inv = _cho_solve(self.chol, np.eye(self.m))
        inv = 0.5 * (inv + inv.T)
        inv.flags.writeable = False
        return inv

    @cached_property
    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        """Thin QR ``(Q, R)`` of ``phi``, formed on first use and kept."""
        return _thin_qr(self.phi)


def _basis_matrix(family: BasisFamily, alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Basis values at the rows of ``x``: shape ``(..., N, M)`` for ``alpha`` of shape ``(..., P)``.

    Leading axes of ``alpha`` index designs, so a ``(K, P)`` stack gives the
    K designs at once, as the search's grid stage scores them; each design
    is bitwise equal to its own one-design call.  A located family evaluates
    each distinct center of a stack once, as the columns of one design, and
    gathers them into a C-contiguous stack.  A 1-D ``alpha`` gives one
    ``(N, M)`` design.
    """
    n, d = x.shape
    lead = alpha.shape[:-1]
    if family.kind == "constant":
        return np.ones(lead + (n, family.size))
    if d != 1:
        raise DimensionMismatch(
            f"{family.kind} basis requires scalar inputs, got input_dim={d}"
        )
    t = x[:, 0]
    if family.kind == "polynomial":
        return np.tile(np.vander(t, family.size, increasing=True), lead + (1, 1))
    if lead:
        # elementwise, so a gathered column is bitwise its center's own
        centers, columns = np.unique(alpha, return_inverse=True)
        bank = _basis_matrix(family, centers, x).T
        columns = columns.reshape(alpha.shape)
        phi = np.empty(lead + (n, family.size))
        for j in range(family.size):
            phi[..., j] = bank[columns[..., j]]
        return phi
    diff = t[:, None] - alpha
    if family.kind == "gaussian-rbf":
        return np.exp(-0.5 * (diff / family.width) ** 2)
    return np.exp(np.abs(diff))


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
    phi, gram, finite = _design_stack(family, alpha, dataset.inputs)
    return DesignMatrix(phi=phi, gram=gram, chol=_gram_factor(gram, finite))


def _design_stack(family: BasisFamily, alphas: np.ndarray, x: np.ndarray):
    """``(phi, gram, finite)`` of the designs of a ``(..., P)`` stack of checked alphas.

    ``finite`` flags each design whose basis is finite; the Gram matrix of
    any other one holds no meaning, and :func:`_gram_factor` rejects it.
    M > N is true of every design of the family at once, so it raises
    ``RankDeficient`` for the whole stack.  A 1-D ``alpha`` gives one design.
    """
    # an exponential-abs basis overflows to inf more than ~709 from its center,
    # and a finite phi can still overflow its Gram matrix; the finite check and
    # the checked Cholesky report these as RankDeficient, so neither overflow
    # is a warning
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _basis_matrix(family, alphas, x)
        n, m = phi.shape[-2:]
        if m > n:
            raise RankDeficient(f"more basis functions ({m}) than observations ({n})")
        finite = np.isfinite(phi).all(axis=(-2, -1))
        gram = phi.swapaxes(-1, -2) @ phi
        gram = 0.5 * (gram + gram.swapaxes(-1, -2))
    return phi, gram, finite


_NON_FINITE_DESIGN = "design matrix contains non-finite entries"
_GRAM = "Gram matrix"
# what _gram_factor raises of a finite design, by _factor_faults's index
_GRAM_FAULTS = tuple(fault and f"{_GRAM} {fault}" for fault in _FACTOR_FAULTS)


def _gram_factor(gram: np.ndarray, finite: bool) -> np.ndarray:
    """The checked Cholesky factor of one design's Gram matrix from :func:`_design_stack`."""
    if not finite:
        raise RankDeficient(_NON_FINITE_DESIGN)
    return _checked_cholesky(gram, RankDeficient, _GRAM)


class _StackFit(NamedTuple):
    """:func:`_fit_stack`'s fits; all but the first two fields hold its admitted designs only."""

    admitted: np.ndarray
    faults: list
    phi: np.ndarray
    chol: np.ndarray
    theta: np.ndarray
    rss: np.ndarray
    log_det_gram: np.ndarray


def _fit_stack(y: np.ndarray, family: BasisFamily, alphas: np.ndarray, x: np.ndarray) -> _StackFit:
    """Least-squares fits of the designs of a ``(K, P)`` stack of checked alphas.

    ``admitted`` flags the designs :func:`build_design_matrix` accepts, and
    ``faults`` lists, per design, the message of the ``RankDeficient`` it
    raises there, or None.  For the admitted designs, ``phi``, ``chol``,
    ``theta``, ``rss`` and ``log_det_gram`` are bitwise what each one built
    alone gives.  The Gram matrices, ``Phi^T y`` and the residuals are
    stacked products.  Each finite design is factored by one ``dpotrf``
    call, and :func:`_factor_faults` judges the factors at once, as
    :func:`_gram_factor` judges one; the admitted ones are solved by
    :func:`_cho_solve`.  Raises ``RankDeficient`` when M > N.
    """
    phi, gram, finite = _design_stack(family, alphas, x)
    chol = np.zeros_like(gram)
    info = np.zeros(len(gram), dtype=int)
    for k in np.flatnonzero(finite):
        chol[k], info[k] = dpotrf(gram[k], 1, 1)  # lower=1, clean=1
    chol[info != 0] = 0.0  # as _factor_faults requires
    # a non-finite design is never factored, and its verdict is not read
    codes = _factor_faults(info, chol, gram).tolist()
    faults = [
        _GRAM_FAULTS[code] if ok else _NON_FINITE_DESIGN
        for ok, code in zip(finite.tolist(), codes)
    ]
    admitted = np.array([fault is None for fault in faults], dtype=bool)
    phi, chol = phi[admitted], chol[admitted]
    theta = _cho_solve(chol, phi.swapaxes(-1, -2) @ y)
    rss = _stacked_energy(y, phi, theta)
    return _StackFit(admitted, faults, phi, chol, theta, rss, _log_det_from_factor(chol))


def _stacked_energy(y: np.ndarray, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``||y - Phi theta||^2`` of each design of a ``(K, N, M)`` stack, at one theta or K."""
    resid = y - (phi @ theta[..., None])[..., 0]
    # direct sums of squares, as _residual_sum_of_squares takes them
    return (resid[..., None, :] @ resid[..., None])[..., 0, 0]


def log_likelihood(y, design: DesignMatrix, theta, sigma_e2: float) -> float:
    """Gaussian log likelihood log p(y | theta, sigma_e2), in log domain throughout."""
    y = _check_outputs(y, design)
    theta = _check_theta(theta, design.m)
    resid = y - design.phi @ theta
    _check_noise_var(sigma_e2)
    return float(_log_likelihood_at(design.n, float(resid @ resid), sigma_e2))


def _check_theta(theta, m: int) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (m,):
        raise DimensionMismatch(f"theta must have length {m}")
    return theta


def _log_likelihood_at(n: int, energy, sigma_e2):
    """:func:`log_likelihood` from its residual energy, at checked sigma_e2; scalars or arrays."""
    return -0.5 * n * np.log(2.0 * np.pi * sigma_e2) - 0.5 * energy / sigma_e2


def ml_estimate(y, design: DesignMatrix) -> tuple[np.ndarray, float]:
    """Maximum-likelihood coefficients and (biased) noise variance.

    Returns ``theta_hat = (Phi^T Phi)^{-1} Phi^T y`` and
    ``sigma2_ml = ||y - Phi theta_hat||^2 / N``.
    """
    y = _check_outputs(y, design)
    theta_hat, rss = _residual_sum_of_squares(y, design)
    return theta_hat, rss / design.n


def _residual_sum_of_squares(y: np.ndarray, design: DesignMatrix) -> tuple[np.ndarray, float]:
    theta_hat = _cho_solve(design.chol, design.phi.T @ y)
    resid = y - design.phi @ theta_hat
    # direct sum of squares: nonnegative by construction, no cancellation
    return theta_hat, float(resid @ resid)


def _check_outputs(y, design: DesignMatrix) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (design.n,):
        raise DimensionMismatch(f"y must have length {design.n}")
    return y


def _check_noise_var(sigma_e2: float) -> None:
    if not (math.isfinite(sigma_e2) and sigma_e2 > 0):
        raise ValueError("sigma_e2 must be a positive finite number")
