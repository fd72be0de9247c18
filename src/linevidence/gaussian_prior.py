"""Inference under a proper Gaussian coefficient prior.

With theta ~ N(mu_p, Sigma_theta) the marginal likelihood is the proper
Gaussian evidence

    Z = N(y | Phi mu_p, Phi Sigma_theta Phi^T + sigma_e2 I),

and the posterior over theta has two algebraically equivalent closed forms:
an M x M system in coefficient space and an N x N system in data space.  Both
are always computed and cross-checked; collapsing the pair into one route
would hide exactly the numerical failures the check exists to catch.

The diffuse-limit ladder evaluates log Z along an increasing sequence of
isotropic prior scales and splits -log Z into the Woodbury-reduced fitting
part (which converges to the flat-prior fitting term) and the log-determinant
part (which grows without bound), making the Z -> 0 diffuse limit visible
term by term.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .exceptions import ConsistencyError, DimensionMismatch, SingularPrior
from .improper_prior import EvidenceReport
from .model import (
    BasisFamily,
    DesignMatrix,
    GaussianBelief,
    _check_noise_var,
    _check_outputs,
    _checked_cholesky,
    feature_vector,
)

_DUAL_ROUTE_RTOL = 1e-10
_LADDER_RTOL = 1e-8


def isotropic_prior(m: int, scale: float, mean: float = 0.0) -> GaussianBelief:
    """N(mean * 1, scale * I) prior over M coefficients."""
    if not (math.isfinite(scale) and scale > 0):
        raise SingularPrior("prior scale must be positive and finite")
    if not math.isfinite(mean):
        raise ValueError("prior mean must be finite")
    return GaussianBelief(mean=np.full(m, float(mean)), cov=float(scale) * np.eye(m))


def _check_prior(design: DesignMatrix, prior: GaussianBelief) -> None:
    if prior.dim != design.m:
        raise DimensionMismatch(
            f"prior is {prior.dim}-dimensional but the design has {design.m} columns"
        )


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / denom


def _dual_route_rtol(design: DesignMatrix, sigma_e2: float, prior: GaussianBelief) -> float:
    # the data-space route solves with Phi Sigma Phi^T + sigma_e2 I, whose
    # eigenvalues lie in [sigma_e2, sigma_e2 + trace(Sigma Phi^T Phi)]; no
    # backward-stable solve can beat eps * cond of that matrix, so widen the
    # agreement tolerance with conditioning but never below the baseline
    spread = max(float(np.trace(prior.cov @ design.gram)), 0.0)
    cond_bound = 1.0 + spread / sigma_e2
    return max(_DUAL_ROUTE_RTOL, 32.0 * float(np.finfo(float).eps) * cond_bound)


def output_covariance(design: DesignMatrix, sigma_e2: float, prior: GaussianBelief) -> np.ndarray:
    """Marginal covariance of y: ``Phi Sigma_theta Phi^T + sigma_e2 I``."""
    _check_noise_var(sigma_e2)
    _check_prior(design, prior)
    cov = design.phi @ prior.cov @ design.phi.T + sigma_e2 * np.eye(design.n)
    return 0.5 * (cov + cov.T)


def posterior_coefficients(
    y, design: DesignMatrix, sigma_e2: float, prior: GaussianBelief
) -> GaussianBelief:
    """Gaussian-prior posterior over theta, computed by both closed forms.

    Route 1 solves the M x M system ``(Phi^T Phi + sigma_e2 Sigma^{-1})``;
    route 2 solves the N x N system through the output covariance.  They must
    agree to 1e-10 in relative norm or :class:`ConsistencyError` is raised.
    The M x M result is returned (M <= N always holds here).
    """
    y = _check_outputs(y, design)
    _check_noise_var(sigma_e2)
    _check_prior(design, prior)
    prior_chol = _checked_cholesky(prior.cov, SingularPrior, "prior covariance")
    shifted = y - design.phi @ prior.mean

    # M x M route
    prior_inv = scipy.linalg.cho_solve((prior_chol, True), np.eye(design.m))
    a = design.gram + sigma_e2 * prior_inv
    a = 0.5 * (a + a.T)
    try:
        a_chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularPrior("posterior precision is not positive definite") from exc
    mean_mm = prior.mean + scipy.linalg.cho_solve((a_chol, True), design.phi.T @ shifted)
    cov_mm = sigma_e2 * scipy.linalg.cho_solve((a_chol, True), np.eye(design.m))
    cov_mm = 0.5 * (cov_mm + cov_mm.T)

    # N x N route
    s_yy = output_covariance(design, sigma_e2, prior)
    s_chol = np.linalg.cholesky(s_yy)
    gain = prior.cov @ design.phi.T  # M x N
    mean_nn = prior.mean + gain @ scipy.linalg.cho_solve((s_chol, True), shifted)
    cov_nn = prior.cov - gain @ scipy.linalg.cho_solve((s_chol, True), gain.T)
    cov_nn = 0.5 * (cov_nn + cov_nn.T)

    rtol = _dual_route_rtol(design, sigma_e2, prior)
    if _rel_gap(mean_mm, mean_nn) > rtol:
        raise ConsistencyError("posterior mean routes disagree beyond tolerance")
    if _rel_gap(cov_mm, cov_nn) > rtol:
        raise ConsistencyError("posterior covariance routes disagree beyond tolerance")
    return GaussianBelief(mean=mean_mm, cov=cov_mm)


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
    When ``design``, ``sigma_e2`` and ``prior`` are supplied, the variance is
    additionally recomputed through the data-space (Woodbury) form
    ``phi^T Sigma phi - phi^T Sigma Phi^T (Phi Sigma Phi^T + sigma_e2 I)^{-1}
    Phi Sigma phi`` and the two values must agree to 1e-10.
    """
    row = feature_vector(family, alpha, x)
    if row.size != posterior.dim:
        raise DimensionMismatch(
            f"basis row has length {row.size} but posterior is {posterior.dim}-dimensional"
        )
    mean = float(row @ posterior.mean)
    var = float(row @ posterior.cov @ row)
    if design is not None and sigma_e2 is not None and prior is not None:
        _check_prior(design, prior)
        s_yy = output_covariance(design, sigma_e2, prior)
        s_chol = np.linalg.cholesky(s_yy)
        v = design.phi @ (prior.cov @ row)
        var_ww = float(row @ prior.cov @ row) - float(
            v @ scipy.linalg.cho_solve((s_chol, True), v)
        )
        denom = max(abs(var), abs(var_ww), 1e-300)
        rtol = _dual_route_rtol(design, sigma_e2, prior)
        if abs(var - var_ww) > rtol * max(denom, 1.0):
            raise ConsistencyError("predictive variance routes disagree beyond tolerance")
    return mean, max(var, 0.0)


def log_marginal_likelihood(
    y, design: DesignMatrix, sigma_e2: float, prior: GaussianBelief
) -> EvidenceReport:
    """Proper log evidence log Z = log N(y | Phi mu_p, Phi Sigma Phi^T + sigma_e2 I).

    Term split: fitting is half the Mahalanobis norm of ``y - Phi mu_p``,
    penalty is half the log determinant of the output covariance, constant is
    ``N/2 log(2 pi)``.
    """
    y = _check_outputs(y, design)
    _check_noise_var(sigma_e2)
    _check_prior(design, prior)
    # reject singular priors before building Sigma_yy
    _checked_cholesky(prior.cov, SingularPrior, "prior covariance")
    s_yy = output_covariance(design, sigma_e2, prior)
    try:
        s_chol = np.linalg.cholesky(s_yy)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError("output covariance lost positive definiteness") from exc
    shifted = y - design.phi @ prior.mean
    white = scipy.linalg.solve_triangular(s_chol, shifted, lower=True)
    fitting = 0.5 * float(white @ white)
    penalty = float(np.sum(np.log(np.diag(s_chol))))
    constant = 0.5 * design.n * math.log(2.0 * math.pi)
    return EvidenceReport.from_terms(fitting, penalty, constant)


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

    For each isotropic prior scale s in the strictly increasing ladder,

        part1 = (y~^T y~ - y~^T Phi ((sigma_e2/s) I + Phi^T Phi)^{-1} Phi^T y~)
                / (2 sigma_e2)
        part2 = log det(s Phi Phi^T + sigma_e2 I) / 2

    with ``y~ = y - Phi mu_p``, and ``log_z = -(part1 + part2 + N/2 log 2pi)``.
    A single eigendecomposition of the Gram matrix is shared by every rung;
    each rung is cross-checked against a direct N x N factorization (both the
    quadratic form and the determinant) at 1e-8 relative tolerance.

    As s grows, part1 falls to the flat-prior fitting term while part2 grows
    without bound: the evidence of an ever-more-diffuse proper prior vanishes
    instead of approaching the likelihood area.
    """
    y = _check_outputs(y, design)
    _check_noise_var(sigma_e2)
    if not math.isfinite(prior_mean):
        raise ValueError("prior_mean must be finite")
    ladder = np.asarray(sigma_p2_ladder, dtype=float)
    if ladder.ndim != 1 or ladder.size == 0:
        raise ValueError("sigma_p2_ladder must be a nonempty 1-D sequence")
    if np.any(~np.isfinite(ladder)) or np.any(ladder <= 0):
        raise ValueError("ladder entries must be positive and finite")
    if np.any(np.diff(ladder) <= 0):
        raise ValueError("sigma_p2_ladder must be strictly increasing")

    n, m = design.n, design.m
    eigvals, eigvecs = np.linalg.eigh(design.gram)
    shifted = y - prior_mean * np.sum(design.phi, axis=1)
    yy = float(shifted @ shifted)
    w = eigvecs.T @ (design.phi.T @ shifted)
    w2 = w**2
    log_2pi_term = 0.5 * n * math.log(2.0 * math.pi)

    out: list[LadderPoint] = []
    eye_n = np.eye(n)
    phi_phi_t = design.phi @ design.phi.T
    lam_max = float(eigvals[-1])
    for s in ladder:
        ridge = sigma_e2 / s
        part1 = (yy - float(np.sum(w2 / (ridge + eigvals)))) / (2.0 * sigma_e2)
        part2 = 0.5 * (
            float(np.sum(np.log(s * eigvals + sigma_e2)))
            + (n - m) * math.log(sigma_e2)
        )

        # direct N x N route for the same two quantities
        s_yy = s * phi_phi_t + sigma_e2 * eye_n
        s_chol = np.linalg.cholesky(0.5 * (s_yy + s_yy.T))
        white = scipy.linalg.solve_triangular(s_chol, shifted, lower=True)
        part1_direct = 0.5 * float(white @ white)
        part2_direct = float(np.sum(np.log(np.diag(s_chol))))
        # the direct route cannot beat eps * cond(S): widen only when the
        # assembled N x N matrix is too ill-conditioned for 1e-8 to be
        # representable, never below the baseline tolerance
        cond_s = (s * lam_max + sigma_e2) / sigma_e2
        rung_rtol = max(_LADDER_RTOL, 32.0 * np.finfo(float).eps * cond_s)
        if not math.isclose(part1, part1_direct, rel_tol=rung_rtol, abs_tol=1e-12):
            raise ConsistencyError(
                f"Woodbury fitting term disagrees with direct route at sigma_p2={s}"
            )
        if not math.isclose(part2, part2_direct, rel_tol=rung_rtol, abs_tol=1e-12):
            raise ConsistencyError(
                f"log-determinant term disagrees with direct route at sigma_p2={s}"
            )

        log_z = -(part1 + part2 + log_2pi_term)
        out.append(LadderPoint(float(s), log_z, part1, part2))
    return out


def penalty_crossing_scale(design: DesignMatrix, sigma_e2: float, bound: float) -> float:
    """log(sigma_p2) at which the ladder's part2 reaches ``bound``.

    Inverts the large-scale form ``part2 ~ (M log sigma_p2 + sum log lambda_i
    + (N - M) log sigma_e2) / 2``; valid once sigma_p2 dominates
    sigma_e2 / lambda_min.  Returned in log domain so arbitrarily large
    bounds stay representable even when sigma_p2 itself would overflow.
    """
    _check_noise_var(sigma_e2)
    if not math.isfinite(bound):
        raise ValueError("bound must be finite")
    eigvals = np.linalg.eigvalsh(design.gram)
    n, m = design.n, design.m
    return float(
        (2.0 * bound - float(np.sum(np.log(eigvals))) - (n - m) * math.log(sigma_e2)) / m
    )
