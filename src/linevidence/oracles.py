"""Brute-force reference implementations.

Everything here recomputes a quantity the library also provides in closed
form, using a deliberately different numerical route (tensor-grid quadrature,
Monte Carlo, resampling).  Tests compare the two; the oracles therefore avoid
the cached Gram factorizations and solve their small systems with plain
``lstsq``/``pinv`` calls instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .exceptions import DegenerateDof, DimensionMismatch, DimensionTooLarge
from .model import DesignMatrix, GaussianBelief, _check_noise_var

_CHUNK = 65536
# half-width of the quadrature box in marginal posterior standard deviations
_BOX_STDS = 12.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor trapezoid grid: an odd node count per axis on a +-12-sigma box."""

    nodes_per_dim: int = 801

    def __post_init__(self):
        n = self.nodes_per_dim
        if not isinstance(n, (int, np.integer)) or n < 3 or n % 2 == 0:
            raise ValueError("nodes_per_dim must be an odd integer of at least 3")


def _loglik_batch(thetas: np.ndarray, y: np.ndarray, phi: np.ndarray, sigma_e2: float) -> np.ndarray:
    """Gaussian log likelihood for a batch of coefficient vectors, by definition."""
    resid = y[None, :] - thetas @ phi.T
    n = y.size
    return -0.5 * n * np.log(2.0 * np.pi * sigma_e2) - 0.5 * np.einsum(
        "ij,ij->i", resid, resid
    ) / sigma_e2


def quadrature_log_area(
    y, design: DesignMatrix, sigma_e2: float, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Trapezoid-grid estimate of log integral of the likelihood over theta.

    Supports M <= 2 (the box grows exponentially with dimension).  The box is
    centered on the least-squares solution and spans ``_BOX_STDS`` marginal
    posterior standard deviations per axis; the likelihood is evaluated from
    its definition on the grid and accumulated entirely in log domain.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    phi = design.phi
    n, m = phi.shape
    if y.shape != (n,):
        raise DimensionMismatch(f"y must have length {n}")
    if m > 2:
        raise DimensionTooLarge("quadrature oracle supports at most 2 coefficients")

    center, *_ = np.linalg.lstsq(phi, y, rcond=None)
    cov = sigma_e2 * np.linalg.inv(phi.T @ phi)
    stds = np.sqrt(np.diag(cov))

    axes = []
    log_weights_1d = []
    for j in range(m):
        lo = center[j] - _BOX_STDS * stds[j]
        hi = center[j] + _BOX_STDS * stds[j]
        nodes = np.linspace(lo, hi, spec.nodes_per_dim)
        h = nodes[1] - nodes[0]
        w = np.full(spec.nodes_per_dim, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        axes.append(nodes)
        log_weights_1d.append(np.log(w))

    if m == 1:
        thetas = axes[0][:, None]
        parts = []
        for start in range(0, thetas.shape[0], _CHUNK):
            block = slice(start, start + _CHUNK)
            logf = _loglik_batch(thetas[block], y, phi, sigma_e2)
            parts.append(scipy.special.logsumexp(logf + log_weights_1d[0][block]))
        return float(scipy.special.logsumexp(parts))

    # m == 2: sweep rows of the tensor grid in slabs
    parts = []
    rows_per_slab = max(1, _CHUNK // spec.nodes_per_dim)
    t2 = axes[1]
    for start in range(0, spec.nodes_per_dim, rows_per_slab):
        t1 = axes[0][start : start + rows_per_slab]
        grid = np.stack(
            [np.repeat(t1, t2.size), np.tile(t2, t1.size)], axis=1
        )
        logf = _loglik_batch(grid, y, phi, sigma_e2)
        logw = (
            np.repeat(log_weights_1d[0][start : start + rows_per_slab], t2.size)
            + np.tile(log_weights_1d[1], t1.size)
        )
        parts.append(scipy.special.logsumexp(logf + logw))
    return float(scipy.special.logsumexp(parts))


def output_covariance(design: DesignMatrix, sigma_e2: float, prior: GaussianBelief) -> np.ndarray:
    """Marginal covariance of y, ``Phi Sigma_theta Phi^T + sigma_e2 I``, formed densely.

    A reference only: the package scores the Gaussian prior through the
    M x M posterior precision and never forms this N x N matrix.
    """
    _check_noise_var(sigma_e2)
    if prior.dim != design.m:
        raise DimensionMismatch("prior dimension must match the design columns")
    cov = design.phi @ prior.cov @ design.phi.T + sigma_e2 * np.eye(design.n)
    return 0.5 * (cov + cov.T)


def data_space_posterior_mean(
    y, design: DesignMatrix, sigma_e2: float, prior: GaussianBelief
) -> np.ndarray:
    """Gaussian-prior posterior mean in its data-space form.

    ``mu_p + Sigma_theta Phi^T S_yy^{-1} (y - Phi mu_p)``, with ``S_yy`` the
    dense output covariance of :func:`output_covariance`: a reference for
    the package's M x M posterior precision routes.
    """
    shifted = np.asarray(y, dtype=float) - design.phi @ prior.mean
    s_yy = output_covariance(design, sigma_e2, prior)
    return prior.mean + prior.cov @ design.phi.T @ np.linalg.solve(s_yy, shifted)


def monte_carlo_log_marginal(
    y,
    design: DesignMatrix,
    sigma_e2: float,
    prior: GaussianBelief,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of log Z by averaging the likelihood over prior draws.

    Returns ``(log_z_hat, se_log)`` where ``se_log`` is the delta-method
    standard error of the log estimate.  The average is taken in log domain,
    so no unshifted exponential is ever materialized.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    phi = design.phi
    if y.shape != (phi.shape[0],):
        raise DimensionMismatch(f"y must have length {phi.shape[0]}")
    if prior.dim != phi.shape[1]:
        raise DimensionMismatch("prior dimension must match the design columns")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(prior.cov)
    logf = np.empty(n_samples)
    for start in range(0, n_samples, _CHUNK):
        stop = min(start + _CHUNK, n_samples)
        z = rng.standard_normal((stop - start, prior.dim))
        thetas = prior.mean[None, :] + z @ chol.T
        logf[start:stop] = _loglik_batch(thetas, y, phi, sigma_e2)
    log_z = float(scipy.special.logsumexp(logf)) - math.log(n_samples)
    # the relative standard error is scale-free, so normalized weights serve
    w = scipy.special.softmax(logf)
    se_log = float(np.std(w, ddof=1)) / (float(np.mean(w)) * math.sqrt(n_samples))
    return log_z, se_log


@dataclass(frozen=True)
class ResamplingStats:
    """Empirical behaviour of the classical estimators under refitting."""

    theta_mean: np.ndarray
    theta_cov: np.ndarray
    sigma2_ml_mean: float
    sigma2_ml_var: float
    sigma2_unbiased_mean: float
    sigma2_unbiased_var: float
    n_reps: int


def resampling_estimator_stats(
    design: DesignMatrix,
    theta_true,
    sigma_e2: float,
    n_reps: int,
    seed: int,
) -> ResamplingStats:
    """Refit the model on ``n_reps`` fresh noise draws and tabulate estimators.

    For each replicate, data are regenerated as ``Phi theta_true + e`` on the
    fixed design, then the least-squares coefficients and both noise-variance
    estimators (divisor N and divisor N - M) are recorded.
    """
    theta_true = np.atleast_1d(np.asarray(theta_true, dtype=float))
    phi = design.phi
    n, m = phi.shape
    if theta_true.shape != (m,):
        raise DimensionMismatch(f"theta_true must have length {m}")
    if n <= m:
        raise DegenerateDof("resampling needs N > M for the variance estimators")
    if n_reps < 1000:
        raise ValueError("n_reps must be at least 1000 for stable statistics")
    rng = np.random.default_rng(seed)
    f_true = phi @ theta_true
    noise = rng.normal(0.0, math.sqrt(sigma_e2), size=(n_reps, n))
    ys = f_true[None, :] + noise
    pinv = np.linalg.pinv(phi)
    thetas = ys @ pinv.T
    resid = ys - thetas @ phi.T
    rss = np.einsum("ij,ij->i", resid, resid)
    ml = rss / n
    unbiased = rss / (n - m)
    return ResamplingStats(
        theta_mean=thetas.mean(axis=0),
        theta_cov=np.cov(thetas, rowvar=False, ddof=1).reshape(m, m),
        sigma2_ml_mean=float(ml.mean()),
        sigma2_ml_var=float(ml.var(ddof=1)),
        sigma2_unbiased_mean=float(unbiased.mean()),
        sigma2_unbiased_var=float(unbiased.var(ddof=1)),
        n_reps=n_reps,
    )
