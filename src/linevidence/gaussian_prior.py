"""Inference under a proper Gaussian coefficient prior.

With theta ~ N(mu_p, Sigma_theta) and Sigma_theta = L L^T the marginal
likelihood is the proper Gaussian evidence

    Z = N(y | Phi mu_p, Phi Sigma_theta Phi^T + sigma_e2 I).

No N x N matrix is formed.  Every score and posterior comes from the ridge
solution beta, the minimizer of ||y~ - Phi beta||^2 + sigma_e2 beta^T
Sigma_theta^{-1} beta with y~ = y - Phi mu_p, through the M x M posterior
precision A = Phi^T Phi + sigma_e2 Sigma_theta^{-1} and the matrix
determinant lemma (Rasmussen & Williams, GPML, App. A.3):

    log det(Phi Sigma_theta Phi^T + sigma_e2 I)
        = (N - M) log sigma_e2 + log det Sigma_theta + log det A
    y~^T (Phi Sigma_theta Phi^T + sigma_e2 I)^{-1} y~
        = (||y~ - Phi beta||^2 + sigma_e2 beta^T Sigma_theta^{-1} beta) / sigma_e2

and the posterior is N(mu_p + beta, sigma_e2 A^{-1}).  ``_ridge_fit`` computes
all of this by two routes, O(N M + M^3) once the design has its cached thin
QR (``DesignMatrix.qr``): the R factor of ``[Phi; sigma_e L^{-1}]`` (so A =
R^T R without squaring the condition number of Phi) and the Cholesky factor
of A.  Both are always computed and cross-checked with a tolerance tied to
cond(A); collapsing the pair into one route would hide exactly the
numerical failures the check exists to catch.  The QR values are returned.
Both routes take the quadratic form from the residual, never as ``y~^T y~ -
b^T A^{-1} b``, which cancels most of its digits when y is large against it.
The fit has two parts: ``_shift`` forms the products no prior covariance
enters (y~, ||y~||, Q^T y~ and Phi^T y~), and ``_covariance_fit`` runs the
checked prior Cholesky, both routes and their three comparisons under one
covariance.  The ladder forms the first part once and runs the second per
rung; the recheck of :func:`predict_at`, which needs only the covariance,
runs the second on the all-zero products of y = Phi mu_p and forms none.

Both routes are made of LAPACK calls on M x M and 2M x (M + 1) matrices,
where the cost is in the calls, not the arithmetic.  OpenBLAS threads some
of them at a cost out of all proportion to their work: with two threads on a
2-core Xeon, a tall ``dgeqrf`` (one QR of a 2008 x 9 matrix) took 4-10 ms
inside a scoring call, and ``dtrtrs`` against an 8 x 8 identity took a
median of 2-3.5 ms (up to 13 ms) right after other BLAS work, where a direct
triangular inverse took 40 us.  So ``model._thin_qr`` blocks the design's QR,
and every triangular inverse goes through ``model._tri_inverse``.  The
NumPy and SciPy wrappers cost several times the kernel they call; at M = 8,
best per-call times on that host, the 2M-row QR took 14.1 us through
NumPy's QR and 2.7 us as a direct ``dgeqrf``, the back-substitution 15.6 us
through SciPy's triangular solve and 0.8 us as ``dtrtrs``, and the singular
values of R 12.2 us through NumPy's SVD and 8.0 us as ``dgesdd``.  So each fit
calls these kernels directly, through ``model._thin_qr``,
``model._tri_solve`` and ``model._singular_values``.  With the kernels this
cheap, NumPy's glue around them is trimmed too: each triangle is zeroed by
``model._triangle`` against a cached mask (5.1 us through ``np.triu``, which
builds a new mask per call, 1.5 us cached), and each norm is :func:`_norm`,
NumPy's own formula without the dispatch of ``np.linalg.norm`` (1.3 us at
M = 8 and 1.6 us at N = 2000 through NumPy, 0.7 and 0.8 us direct), with
||y~ - Phi beta|| the square root of the residual energy the fit already
forms.  Every value is bitwise what the NumPy calls give.

The diffuse-limit ladder scores each of an increasing sequence of isotropic
prior scales as :func:`log_marginal_likelihood` does, bitwise, and splits
-log Z into its fitting term (which converges to the flat-prior fitting
term) and its log-determinant term (which grows without bound), making the
Z -> 0 diffuse limit visible term by term.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import ConsistencyError, DimensionMismatch, SingularPrior
from .improper_prior import EvidenceReport
from .model import (
    BasisFamily,
    DesignMatrix,
    GaussianBelief,
    _check_noise_var,
    _check_outputs,
    _checked_cholesky,
    _cho_solve,
    _log_det_from_factor,
    _singular_values,
    _thin_qr,
    _tri_inverse,
    _tri_solve,
    feature_vector,
)

_EPS = float(np.finfo(float).eps)
_DUAL_ROUTE_RTOL = 1e-10


def isotropic_prior(m: int, scale: float, mean: float = 0.0) -> GaussianBelief:
    """N(mean * 1, scale * I) prior over M coefficients."""
    if not (math.isfinite(scale) and scale > 0):
        raise SingularPrior("prior scale must be positive and finite")
    return GaussianBelief(mean=_isotropic_mean(m, mean), cov=float(scale) * np.eye(m))


def _isotropic_mean(m: int, mean: float) -> np.ndarray:
    if not math.isfinite(mean):
        raise ValueError("prior mean must be finite")
    return np.full(m, float(mean))


def _check_prior(design: DesignMatrix, prior: GaussianBelief) -> None:
    if prior.dim != design.m:
        raise DimensionMismatch(
            f"prior is {prior.dim}-dimensional but the design has {design.m} columns"
        )


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` bitwise: NumPy's own formula for ``ord=None``, without its dispatch."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    return _norm(a - b) / max(_norm(a), _norm(b), 1e-300)


def _route_rtol(baseline: float, cond_bound: float) -> float:
    # no backward-stable solve with a matrix of condition number cond_bound
    # can beat eps * cond_bound, so widen the agreement tolerance with
    # conditioning but never below the baseline
    return max(baseline, 32.0 * _EPS * cond_bound)


def _qr_route(
    design: DesignMatrix, q_t_shifted: np.ndarray, sigma_e2: float, prior_inv_chol: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """beta, posterior covariance, log det A and the singular values of R.

    With ``Phi = Q_phi R_phi`` the design's thin QR, R factors ``[[R_phi,
    Q_phi^T y~], [sigma_e L^{-1}, 0]]``, the least-squares problem of
    ``[Phi; sigma_e L^{-1}]`` bordered by [y~; 0] (A = R^T R, R beta = its
    last column), with Q_phi^T y~ a product, not the semi-normal equations.
    """
    m = design.m
    small = np.zeros((2 * m, m + 1))
    small[:m, :m] = design.qr[1]
    small[:m, m] = q_t_shifted
    small[m:, :m] = math.sqrt(sigma_e2) * prior_inv_chol
    r_full = _thin_qr(small, "r")
    r = r_full[:m, :m]
    beta = _tri_solve(r, r_full[:m, m], SingularPrior, "posterior precision QR factor")
    r_inv = _tri_inverse(r, False, SingularPrior, "posterior precision QR factor")
    cov = sigma_e2 * (r_inv @ r_inv.T)
    log_det_a = _log_det_from_factor(r)
    return beta, 0.5 * (cov + cov.T), log_det_a, _singular_values(r)


def _cholesky_route(
    design: DesignMatrix, phi_t_shifted: np.ndarray, sigma_e2: float, prior_inv_chol: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """beta, posterior covariance and log det A from the Cholesky factor of A."""
    a = design.gram + sigma_e2 * (prior_inv_chol.T @ prior_inv_chol)
    a_chol = _checked_cholesky(a, SingularPrior, "posterior precision")
    beta = _cho_solve(a_chol, phi_t_shifted)
    cov = sigma_e2 * _cho_solve(a_chol, np.eye(design.m))
    log_det_a = _log_det_from_factor(a_chol)
    return beta, 0.5 * (cov + cov.T), log_det_a


class _RidgeFit(NamedTuple):
    mean: np.ndarray  # posterior mean mu_p + beta
    cov: np.ndarray  # posterior covariance sigma_e2 A^{-1}
    fitting: float  # half the Mahalanobis norm of y - Phi mu_p
    penalty: float  # half the log determinant of the output covariance
    cond: float  # condition number of the posterior precision A


class _Shifted(NamedTuple):
    """The products of a fit that no prior covariance enters, formed once per data."""

    y: np.ndarray  # y~ = y - Phi mu_p
    norm: float  # ||y~||
    q_t: np.ndarray  # Q_phi^T y~, from the design's thin QR
    phi_t: np.ndarray  # Phi^T y~


def _shift(y: np.ndarray, design: DesignMatrix, prior_mean: np.ndarray) -> _Shifted:
    shifted = y - design.phi @ prior_mean
    return _Shifted(shifted, _norm(shifted), shifted @ design.qr[0], design.phi.T @ shifted)


def _ridge_fit(y, design: DesignMatrix, sigma_e2: float, prior: GaussianBelief) -> _RidgeFit:
    """The one checked Gaussian-prior fit, O(N M + M^3) once the design has its QR.

    Checks the arguments and runs :func:`_covariance_fit` on the products
    of :func:`_shift`.
    """
    y = _check_outputs(y, design)
    _check_noise_var(sigma_e2)
    _check_prior(design, prior)
    return _covariance_fit(
        design, _shift(y, design, prior.mean), sigma_e2, prior.mean, prior.cov
    )


def _covariance_fit(
    design: DesignMatrix,
    shifted: _Shifted,
    sigma_e2: float,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
) -> _RidgeFit:
    """The fit under one prior covariance, from the data's :func:`_shift` products.

    Runs :func:`_qr_route` and :func:`_cholesky_route` and returns the QR
    values.  The routes must agree on log Z to
    ``32 eps (cond(A) (|fitting| + |penalty|) + ||y~|| ||y~ - Phi beta|| / sigma_e2)``
    (the second term is the rounding of a residual taken from a large y),
    on the posterior covariance to ``rtol = max(1e-10, 32 eps cond(A))`` in
    relative norm, and on the posterior mean to ``rtol (||mean|| + ||y~|| /
    ||R||)``, where the second term is the rounding of y~ carried into beta,
    so a mean that is zero in exact arithmetic is still checked; otherwise
    :class:`ConsistencyError` is raised.  A prior covariance or posterior
    precision that is not positive definite, or whose factor is not finite,
    raises :class:`SingularPrior`.
    """
    prior_chol = _checked_cholesky(prior_cov, SingularPrior, "prior covariance")
    n, m = design.n, design.m
    prior_inv_chol = _tri_inverse(prior_chol, True, SingularPrior, "prior covariance factor")
    log_det_rest = (n - m) * math.log(sigma_e2) + _log_det_from_factor(prior_chol)

    def terms(beta: np.ndarray, log_det_a: float) -> tuple[float, float, float]:
        resid = shifted.y - design.phi @ beta
        shrink = prior_inv_chol @ beta
        energy = float(resid @ resid)
        fitting = (energy + sigma_e2 * float(shrink @ shrink)) / (2.0 * sigma_e2)
        return fitting, 0.5 * (log_det_rest + log_det_a), energy

    # the Cholesky route runs first: it is the one that fails outright when
    # A is singular to working precision
    beta_ch, cov_ch, log_det_ch = _cholesky_route(design, shifted.phi_t, sigma_e2, prior_inv_chol)
    beta, cov, log_det_a, singular = _qr_route(design, shifted.q_t, sigma_e2, prior_inv_chol)
    cond_a = float(singular[0] / singular[-1]) ** 2
    fitting, penalty, energy = terms(beta, log_det_a)
    fitting_ch, penalty_ch, _ = terms(beta_ch, log_det_ch)

    # sqrt(energy) is bitwise the norm of the residual
    z_tol = 32.0 * _EPS * (
        cond_a * (abs(fitting) + abs(penalty)) + shifted.norm * math.sqrt(energy) / sigma_e2
    )
    if not abs((fitting + penalty) - (fitting_ch + penalty_ch)) <= z_tol:
        raise ConsistencyError("log evidence routes disagree beyond tolerance")
    rtol = _route_rtol(_DUAL_ROUTE_RTOL, cond_a)
    mean, mean_ch = prior_mean + beta, prior_mean + beta_ch
    mean_scale = max(_norm(mean), _norm(mean_ch)) + float(shifted.norm / singular[0])
    if not _norm(mean - mean_ch) <= rtol * mean_scale:
        raise ConsistencyError("posterior mean routes disagree beyond tolerance")
    if not _rel_gap(cov, cov_ch) <= rtol:
        raise ConsistencyError("posterior covariance routes disagree beyond tolerance")
    return _RidgeFit(mean, cov, fitting, penalty, cond_a)


def posterior_coefficients(
    y, design: DesignMatrix, sigma_e2: float, prior: GaussianBelief
) -> GaussianBelief:
    """Gaussian-prior posterior over theta, N(mu_p + beta, sigma_e2 A^{-1}).

    Computed by both routes of the module: the R factor of ``[Phi; sigma_e
    L^{-1}]``, from the design's cached thin QR, and the Cholesky factor of
    ``A = Phi^T Phi + sigma_e2 Sigma^{-1}``.  They must agree within a
    tolerance of ``max(1e-10, 32 eps cond(A))`` relative (see ``_ridge_fit``)
    or :class:`ConsistencyError` is raised.  The QR result is returned.
    """
    fit = _ridge_fit(y, design, sigma_e2, prior)
    return GaussianBelief(mean=fit.mean, cov=fit.cov)


def predict_at(
    x,
    family: BasisFamily,
    alpha,
    posterior: GaussianBelief,
    *,
    design: DesignMatrix | None = None,
    sigma_e2: float | None = None,
    prior: GaussianBelief | None = None,
) -> tuple[float, float]:
    """Predictive mean and variance of f(x) = phi(x)^T theta under ``posterior``.

    ``posterior`` may come from either prior: the Gaussian-prior
    :func:`posterior_coefficients` or the flat-prior one.  The variance is
    phi(x)^T Sigma phi(x), with tiny negative round-off clamped to zero.
    When ``design``, ``sigma_e2`` and ``prior`` are supplied, the posterior
    covariance is additionally recomputed from them by both routes of the
    module (the QR route and the M x M Cholesky of the posterior
    precision A, cross-checked as in :func:`posterior_coefficients`), and
    the variance ``sigma_e2 phi^T A^{-1} phi`` must agree with the one from
    ``posterior`` to ``max(1e-10, 32 eps cond(A))``.  Supplying only some of
    the three raises ValueError.
    """
    supplied = sum(arg is not None for arg in (design, sigma_e2, prior))
    if supplied not in (0, 3):
        raise ValueError("design, sigma_e2 and prior must be given together or not at all")
    row = feature_vector(family, alpha, x)
    if row.size != posterior.dim:
        raise DimensionMismatch(
            f"basis row has length {row.size} but posterior is {posterior.dim}-dimensional"
        )
    mean = float(row @ posterior.mean)
    var = float(row @ posterior.cov @ row)
    if supplied:
        if design.m != posterior.dim:
            raise DimensionMismatch(
                f"design has {design.m} columns but posterior is {posterior.dim}-dimensional"
            )
        # the posterior covariance does not depend on y, so fit at y = Phi mu_p,
        # whose products are all zero, without forming them
        _check_noise_var(sigma_e2)
        _check_prior(design, prior)
        zero = _Shifted(np.zeros(design.n), 0.0, np.zeros(design.m), np.zeros(design.m))
        fit = _covariance_fit(design, zero, sigma_e2, prior.mean, prior.cov)
        var_fit = float(row @ fit.cov @ row)
        denom = max(abs(var), abs(var_fit), 1e-300)
        if abs(var - var_fit) > _route_rtol(_DUAL_ROUTE_RTOL, fit.cond) * max(denom, 1.0):
            raise ConsistencyError("predictive variance routes disagree beyond tolerance")
    return mean, max(var, 0.0)


def log_marginal_likelihood(
    y, design: DesignMatrix, sigma_e2: float, prior: GaussianBelief
) -> EvidenceReport:
    """Proper log evidence log Z = log N(y | Phi mu_p, Phi Sigma Phi^T + sigma_e2 I).

    Term split: fitting is half the Mahalanobis norm of ``y - Phi mu_p``,
    penalty is half the log determinant of the output covariance, constant is
    ``N/2 log(2 pi)``.  Both come from the determinant lemma on the M x M
    posterior precision, cross-checked between the QR route, from the
    design's cached thin QR, and the Cholesky route; no N x N matrix is formed.
    """
    return _evidence(design, _ridge_fit(y, design, sigma_e2, prior))


def _evidence(design: DesignMatrix, fit: _RidgeFit) -> EvidenceReport:
    constant = 0.5 * design.n * math.log(2.0 * math.pi)
    return EvidenceReport.from_terms(fit.fitting, fit.penalty, constant)


class LadderPoint(NamedTuple):
    sigma_p2: float
    log_z: float
    part1: float
    part2: float


def diffuse_limit_decomposition(
    y,
    design: DesignMatrix,
    sigma_e2: float,
    sigma_p2_ladder: Sequence[float],
    prior_mean: float = 0.0,
) -> list[LadderPoint]:
    """Split -log Z into fitting and volume parts along a prior-scale ladder.

    Each isotropic prior scale s of the strictly increasing ladder is scored
    bitwise as :func:`log_marginal_likelihood` scores ``isotropic_prior(M,
    s, prior_mean)``: every rung runs its own checked fit, both routes and
    their comparisons, on the data's one set of products and the design's
    one QR.  With ``y~ = y - Phi mu_p``,

        part1 = y~^T (s Phi Phi^T + sigma_e2 I)^{-1} y~ / 2
        part2 = log det(s Phi Phi^T + sigma_e2 I) / 2

    are the rung's fitting and penalty terms, and ``log_z = -(part1 + part2 +
    N/2 log 2pi)``.

    As s grows, part1 falls to the flat-prior fitting term while part2 grows
    without bound: the evidence of an ever-more-diffuse proper prior vanishes
    instead of approaching the likelihood area.
    """
    ladder = np.asarray(sigma_p2_ladder, dtype=float)
    if ladder.ndim != 1 or ladder.size == 0:
        raise ValueError("sigma_p2_ladder must be a nonempty 1-D sequence")
    if np.any(~np.isfinite(ladder)) or np.any(ladder <= 0):
        raise ValueError("ladder entries must be positive and finite")
    if np.any(np.diff(ladder) <= 0):
        raise ValueError("sigma_p2_ladder must be strictly increasing")
    # the rungs share the data's products, and each runs the checks of its
    # own fit; the ladder checks above stand in for isotropic_prior's
    prior_mean = _isotropic_mean(design.m, prior_mean)
    y = _check_outputs(y, design)
    _check_noise_var(sigma_e2)
    shifted = _shift(y, design, prior_mean)
    out: list[LadderPoint] = []
    for s in ladder.tolist():
        fit = _covariance_fit(design, shifted, sigma_e2, prior_mean, s * np.eye(design.m))
        rung = _evidence(design, fit)
        out.append(LadderPoint(s, rung.log_value, rung.fitting_term, rung.penalty_term))
    return out


def penalty_crossing_scale(design: DesignMatrix, sigma_e2: float, bound: float) -> float:
    """log(sigma_p2) at which the ladder's part2 reaches ``bound``.

    Inverts the large-scale form ``part2 ~ (M log sigma_p2 + log det(Phi^T Phi)
    + (N - M) log sigma_e2) / 2``; valid once sigma_p2 dominates
    sigma_e2 / lambda_min(Phi^T Phi).  Returned in log domain so arbitrarily
    large bounds stay representable even when sigma_p2 itself would overflow.
    """
    _check_noise_var(sigma_e2)
    if not math.isfinite(bound):
        raise ValueError("bound must be finite")
    n, m = design.n, design.m
    return float((2.0 * bound - design.log_det_gram - (n - m) * math.log(sigma_e2)) / m)
