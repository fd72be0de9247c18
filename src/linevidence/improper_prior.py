"""Inference under the improper (flat) coefficient prior.

With an unnormalized uniform prior on theta the "evidence" is not a proper
marginal likelihood; what remains well defined is the area under the
likelihood,

    S(y) = (2 pi sigma_e2)^(-(N-M)/2) det(Phi^T Phi)^(-1/2)
           * exp(-||y - f_hat||^2 / (2 sigma_e2)),

where ``f_hat`` is the least-squares fit.  This module computes the flat-prior
posterior and smoothing distributions, log S and the unbiased
noise-variance estimator derived from it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConsistencyError, DegenerateFitWarning
from .model import (
    DesignMatrix,
    GaussianBelief,
    _check_noise_var,
    _check_outputs,
    _residual_sum_of_squares,
    residual_dof,
)

_REPORT_RTOL = 1e-10
_IDENTITY_RTOL = 1e-9
# Residuals below this fraction of ||y||^2 count as an exact interpolation.
# zero-residual detector: an exact interpolation computes rss at the rounding
# floor eps^2 * cond^2 relative to y^T y, while a genuinely small fit stays
# many orders above it; eps^1.5 with headroom separates the two even for
# Gram conditioning near the rank threshold
_DEGENERATE_RTOL = 1e4 * float(np.finfo(float).eps) ** 1.5


@dataclass(frozen=True)
class EvidenceReport:
    """A log score broken into its fitting / penalty / constant parts.

    The invariant ``log_value == -(fitting_term + penalty_term +
    constant_term)`` is checked at construction.
    """

    log_value: float
    fitting_term: float
    penalty_term: float
    constant_term: float

    def __post_init__(self):
        terms = (self.log_value, self.fitting_term, self.penalty_term, self.constant_term)
        if not all(math.isfinite(t) for t in terms):
            raise ValueError("all report terms must be finite")
        total = self.fitting_term + self.penalty_term + self.constant_term
        if abs(self.log_value + total) > _REPORT_RTOL * max(1.0, abs(self.log_value)):
            raise ValueError(
                "log_value must equal the negated sum of the three terms"
            )

    @classmethod
    def from_terms(cls, fitting: float, penalty: float, constant: float) -> "EvidenceReport":
        return cls(
            log_value=-(fitting + penalty + constant),
            fitting_term=fitting,
            penalty_term=penalty,
            constant_term=constant,
        )


class _FlatFit(NamedTuple):
    """The sigma_e2-free part of the flat-prior fit of one design."""

    design: DesignMatrix
    theta_hat: np.ndarray
    rss: float
    log_det_gram: float
    inv_gram: np.ndarray | None


def _flat_fit(y: np.ndarray, design: DesignMatrix, posterior: bool = False) -> _FlatFit:
    """Fit checked outputs ``y`` once; ``(Phi^T Phi)^{-1}`` only for a posterior.

    Every sigma_e2 then costs only :func:`_area_report` or
    :func:`_flat_posterior` arithmetic.
    """
    theta_hat, rss = _residual_sum_of_squares(y, design)
    inv_gram = design.inv_gram() if posterior else None
    return _FlatFit(design, theta_hat, rss, design.log_det_gram, inv_gram)


def _area_terms(rss, log_det_gram, dof: int, sigma_e2):
    """The fitting, penalty and constant terms of log S, of scalars or arrays alike."""
    # perfbench/check_smoke.py perturbs the next line to prove wrong scores fail
    fitting = rss / (2.0 * sigma_e2)
    penalty = 0.5 * log_det_gram
    constant = 0.5 * dof * np.log(2.0 * np.pi * sigma_e2)
    return fitting, penalty, constant


def _area_report(fit: _FlatFit, sigma_e2: float) -> EvidenceReport:
    """log S of a fit at one checked sigma_e2."""
    design = fit.design
    fitting, penalty, constant = _area_terms(
        fit.rss, fit.log_det_gram, design.n - design.m, sigma_e2
    )
    return EvidenceReport.from_terms(fitting, penalty, float(constant))


def _log_area_values(rss: np.ndarray, log_det_gram: np.ndarray, dof: int, sigma_e2: np.ndarray):
    """log S of a stack of fits, each at its own checked sigma_e2.

    Each value is bitwise the ``log_value`` of the :func:`_area_report` of
    that fit alone.  A term that is not finite makes the value not finite,
    so the report is built only there, where it raises its ``ValueError``.
    """
    terms = _area_terms(rss, log_det_gram, dof, sigma_e2)
    log_value = -(terms[0] + terms[1] + terms[2])
    for k in np.flatnonzero(~np.isfinite(log_value)):
        EvidenceReport.from_terms(*(float(term[k]) for term in terms))
    return log_value


def _flat_posterior(fit: _FlatFit, sigma_e2: float) -> GaussianBelief:
    """Posterior of a fit made with ``posterior=True``, at one checked sigma_e2."""
    # each belief owns its mean, as if it had been fitted alone
    return GaussianBelief(mean=fit.theta_hat.copy(), cov=sigma_e2 * fit.inv_gram)


def posterior_coefficients(y, design: DesignMatrix, sigma_e2: float) -> GaussianBelief:
    """Flat-prior posterior over theta: N(theta_hat, sigma_e2 (Phi^T Phi)^{-1})."""
    y = _check_outputs(y, design)
    _check_noise_var(sigma_e2)
    return _flat_posterior(_flat_fit(y, design, posterior=True), sigma_e2)


def smooth(y, design: DesignMatrix, sigma_e2: float) -> GaussianBelief:
    """Posterior over the noise-free fitted values f = Phi theta.

    Mean is the projection ``f_hat = Phi (Phi^T Phi)^{-1} Phi^T y`` and the
    covariance is ``sigma_e2 Phi (Phi^T Phi)^{-1} Phi^T``.  Two quadratic-form
    identities are asserted on the way out: ``f_hat^T f_hat = y^T Phi
    (Phi^T Phi)^{-1} Phi^T y`` and ``||y - f_hat||^2 = y^T y - f_hat^T f_hat``
    (so the fit never has more energy than the data).
    """
    y = _check_outputs(y, design)
    _check_noise_var(sigma_e2)
    theta_hat, rss = _residual_sum_of_squares(y, design)
    f_hat = design.phi @ theta_hat
    yy = float(y @ y)
    ff = float(f_hat @ f_hat)
    scale = max(yy, 1.0)
    quad = float((design.phi.T @ y) @ theta_hat)
    if abs(ff - quad) > _IDENTITY_RTOL * scale:
        raise ConsistencyError("fitted-energy identity violated beyond tolerance")
    if abs(rss - (yy - ff)) > _IDENTITY_RTOL * scale:
        raise ConsistencyError("residual-energy identity violated beyond tolerance")
    if ff > yy * (1.0 + _IDENTITY_RTOL) + _IDENTITY_RTOL:
        raise ConsistencyError("fit energy exceeds data energy")
    half = design.solve_gram(design.phi.T)
    cov = sigma_e2 * (design.phi @ half)
    cov = 0.5 * (cov + cov.T)
    return GaussianBelief(mean=f_hat, cov=cov)


def log_area_under_likelihood(y, design: DesignMatrix, sigma_e2: float) -> EvidenceReport:
    """Closed-form log S(y | alpha, sigma_e2).

    Term split: fitting ``rss / (2 sigma_e2)``, penalty
    ``log det(Phi^T Phi) / 2``, constant ``(N - M)/2 log(2 pi sigma_e2)``;
    ``log_value`` is minus their sum.
    """
    y = _check_outputs(y, design)
    _check_noise_var(sigma_e2)
    return _area_report(_flat_fit(y, design), sigma_e2)


def _zero_residual(y: np.ndarray, rss: float) -> bool:
    """True when ``rss`` is at the rounding floor of an exact interpolation."""
    return rss <= _DEGENERATE_RTOL * max(float(y @ y), np.finfo(float).tiny)


def unbiased_noise_variance(y, design: DesignMatrix) -> float:
    """Noise-variance estimate ``||y - f_hat||^2 / (N - M)``.

    This is the maximizer of S over sigma_e2 and is unbiased, unlike the
    maximum-likelihood divisor N.  Requires N > M; an interpolating fit
    returns the boundary value with a :class:`DegenerateFitWarning`.
    """
    y = _check_outputs(y, design)
    dof = residual_dof(design)
    _, rss = _residual_sum_of_squares(y, design)
    if _zero_residual(y, rss):
        warnings.warn(
            "residual is numerically zero; noise-variance estimate is at the boundary",
            DegenerateFitWarning,
            stacklevel=2,
        )
    return rss / dof

