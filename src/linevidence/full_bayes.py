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
from .exceptions import AllDegenerate, NonFiniteMassWarning, RankDeficient, SingularPrior
from .model import (
    BasisFamily,
    Dataset,
    GaussianBelief,
    HyperParams,
    _check_theta,
    _checked_cholesky,
    _log_likelihood_at,
    _stacked_energy,
)
from .selection import _score_points, _score_posteriors, _Sweep

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
    the grid stands in for is then likely not finite.  Only axes that take at
    least two values bound that box; a grid on which no axis varies is one
    point, all of it boundary.

    ``names``, ``fixed`` and ``family`` are checked once for the whole grid
    (the fixed alpha's length, known names, no slot set twice, alphas in
    range, every parameter fixed or free); a point is checked only for its
    own values (a NaN or infinite sigma_e2 or alpha raises).  The
    flat-prior fit depends on alpha alone, so the sweep builds and fits
    each distinct alpha once, in any order of the points.
    """
    sweep = _Sweep(names, fixed, family)
    points = sweep.grid(eta_points)

    def weigh(fit, sigma_e2: float) -> tuple[float, GaussianBelief]:
        return (
            improper_prior._area_report(fit, sigma_e2).log_value,
            improper_prior._flat_posterior(fit, sigma_e2),
        )

    _, scored = _score_posteriors(sweep, points, dataset, family, weigh)
    failed = np.array([s is None for s in scored])
    if np.all(failed):
        raise AllDegenerate("every grid point has weight zero")
    log_weights = np.array([-math.inf if s is None else s[0] for s in scored])
    posteriors = tuple(None if s is None else s[1] for s in scored)
    probs = scipy.special.softmax(log_weights)

    lo = points.min(axis=0)
    hi = points.max(axis=0)
    varies = lo < hi
    on_edge = ((points == lo) | (points == hi)) & varies
    on_boundary = np.any(on_edge, axis=1) | ~np.any(varies)
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
        names=tuple(sweep.names),
        fixed=fixed,
        log_weights=log_weights,
        probs=probs,
        posteriors=posteriors,
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
    for count in (n_outer, n_inner):
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError("n_outer and n_inner must be integers of at least 1")
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
            chol = _checked_cholesky(belief.cov, SingularPrior, "posterior covariance")
            chol_cache[i] = (belief.mean, chol)
        mean, chol = chol_cache[i]
        z = rng.standard_normal((n_inner, m))
        theta_samples[r] = mean + z @ chol.T
    return eta_samples, theta_samples


def averaged_model_loglik(
    grid: HyperPosteriorGrid, dataset: Dataset, family: BasisFamily, theta
) -> float:
    """log of the grid-averaged likelihood sum_i p(eta_i | y) p(y | theta, eta_i).

    Evaluated by log-sum-exp over the points with mass, each distinct alpha
    fitted once.  A ``theta`` of the wrong length raises; so does a point
    with mass where its design is degenerate (the ``RankDeficient`` that
    ``build_design_matrix`` raises there) or it is infeasible
    (``ValueError``).
    """
    sweep = _Sweep(grid.names, grid.fixed, family)
    mass = np.flatnonzero(grid.probs > 0.0)
    if mass.size == 0:
        raise AllDegenerate("no usable grid points")
    theta = _check_theta(theta, family.size)

    def likelihood(fits, design, sigma_e2):
        energy = _stacked_energy(dataset.outputs, fits.phi, theta)
        return _log_likelihood_at(dataset.n, energy[design], sigma_e2)

    kept, loglik, faults = _score_points(sweep, grid.points[mass], dataset, family, likelihood)
    if faults:
        raise RankDeficient(faults[0])
    if not np.all(kept):
        point = grid.points[mass[np.argmin(kept)]]
        raise ValueError(f"grid point {point.tolist()} carries mass but is infeasible")
    terms = [math.log(grid.probs[i]) + ll for i, ll in zip(mass, loglik)]
    return float(scipy.special.logsumexp(terms))
