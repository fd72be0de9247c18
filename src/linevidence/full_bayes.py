"""Two-step sampling from the joint posterior over hyperparameters and
coefficients.

The hyperparameter posterior is represented on a finite grid with weights
proportional to the likelihood area S(y | eta) (a flat hyper-prior is
implied).  Joint draws then proceed in two exact steps: a categorical draw of
eta from the grid weights, followed by Gaussian coefficient draws from the
flat-prior posterior at that eta.  Model-averaged quantities (the averaged
log likelihood of a fixed coefficient vector) use log-sum-exp over the same
weights.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.special

from . import improper_prior
from .exceptions import AllDegenerate, NonFiniteMassWarning
from .model import BasisFamily, Dataset, GaussianBelief, HyperParams, build_design_matrix, log_likelihood
from .selection import _DEGENERATE, _grid_points, _positive_variances, assemble_hyperparams

_BOUNDARY_MASS_LIMIT = 0.5


@dataclass(frozen=True)
class HyperPosteriorGrid:
    """Discrete posterior over hyperparameter grid points.

    ``log_weights`` holds log S(y | eta_i) (-inf where the design failed,
    mirrored in ``failed``); ``probs`` is the normalized version.  The
    flat-prior coefficient posterior at each usable point is cached in
    ``posteriors`` so joint sampling never refits.
    """

    points: np.ndarray
    names: tuple[str, ...]
    fixed: HyperParams | None
    log_weights: np.ndarray
    probs: np.ndarray
    posteriors: tuple[GaussianBelief | None, ...]
    failed: np.ndarray

    @property
    def size(self) -> int:
        return self.points.shape[0]


def build_hyper_posterior(
    dataset: Dataset,
    family: BasisFamily,
    eta_points,
    fixed: HyperParams | None = None,
    names: Sequence[str] | None = None,
) -> HyperPosteriorGrid:
    """Weight each grid point by its likelihood area and normalize.

    Degenerate points (rank-deficient designs, nonpositive variances) are flagged
    and carry -inf weight instead of aborting the sweep; if more than half of
    the resulting probability mass sits on the bounding box of the grid, a
    :class:`NonFiniteMassWarning` is emitted because the continuous integral
    the grid stands in for is then likely not finite.
    """
    names, points = _grid_points(family, eta_points, names)
    k = points.shape[0]
    log_weights = np.full(k, -math.inf)
    posteriors: list[GaussianBelief | None] = [None] * k
    failed = np.array([not _positive_variances(names, vec) for vec in points], dtype=bool)
    y = dataset.outputs
    for i in np.flatnonzero(~failed):
        params = assemble_hyperparams(names, points[i], fixed, family)
        try:
            design = build_design_matrix(dataset, family, params.alpha)
            report = improper_prior.log_area_under_likelihood(y, design, params.sigma_e2)
            log_weights[i] = report.log_value
            posteriors[i] = improper_prior.posterior_coefficients(
                y, design, params.sigma_e2
            )
        except _DEGENERATE:
            failed[i] = True
    if np.all(failed):
        raise AllDegenerate("every grid point has weight zero")
    probs = scipy.special.softmax(log_weights)

    lo = points.min(axis=0)
    hi = points.max(axis=0)
    on_boundary = np.any((points == lo) | (points == hi), axis=1)
    boundary_mass = float(probs[on_boundary].sum())
    if boundary_mass > _BOUNDARY_MASS_LIMIT:
        warnings.warn(
            f"{boundary_mass:.0%} of the posterior mass lies on the grid boundary; "
            "the hyperparameter integral may not be finite",
            NonFiniteMassWarning,
            stacklevel=2,
        )
    return HyperPosteriorGrid(
        points=points,
        names=tuple(names),
        fixed=fixed,
        log_weights=log_weights,
        probs=probs,
        posteriors=tuple(posteriors),
        failed=failed,
    )


def sample_posterior(
    grid: HyperPosteriorGrid, n_outer: int, n_inner: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Joint posterior draws: eta from the grid, theta exactly given eta.

    Returns ``(eta_samples, theta_samples)`` with shapes (R, d) and
    (R, n_inner, M).  Coefficient draws use the Cholesky factor of the cached
    posterior covariance, so given a seed the output is fully deterministic.
    """
    if n_outer < 1 or n_inner < 1:
        raise ValueError("n_outer and n_inner must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.choice(grid.size, size=n_outer, p=grid.probs)
    eta_samples = grid.points[idx]
    first = next(p for p in grid.posteriors if p is not None)
    m = first.dim
    theta_samples = np.empty((n_outer, n_inner, m))
    chol_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for r, i in enumerate(idx):
        i = int(i)
        if i not in chol_cache:
            belief = grid.posteriors[i]
            chol_cache[i] = (belief.mean, np.linalg.cholesky(belief.cov))
        mean, chol = chol_cache[i]
        z = rng.standard_normal((n_inner, m))
        theta_samples[r] = mean + z @ chol.T
    return eta_samples, theta_samples


def averaged_model_loglik(
    grid: HyperPosteriorGrid, dataset: Dataset, family: BasisFamily, theta
) -> float:
    """log of the grid-averaged likelihood sum_i p(eta_i | y) p(y | theta, eta_i).

    Evaluated by log-sum-exp; grid points with zero probability are skipped,
    so flagged degenerate points never contribute.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    terms = []
    for i in range(grid.size):
        p = grid.probs[i]
        if p <= 0.0:
            continue
        params = assemble_hyperparams(list(grid.names), grid.points[i], grid.fixed, family)
        design = build_design_matrix(dataset, family, params.alpha)
        ll = log_likelihood(dataset.outputs, design, theta, params.sigma_e2)
        terms.append(math.log(p) + ll)
    if not terms:
        raise AllDegenerate("no usable grid points")
    return float(scipy.special.logsumexp(terms))
