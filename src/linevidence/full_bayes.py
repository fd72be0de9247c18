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
from .model import (
    BasisFamily,
    Dataset,
    GaussianBelief,
    HyperParams,
    _log_likelihood_at,
    _residual_energy,
)
from .selection import _design_builder, _grid_points, _score_point, assemble_hyperparams

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

    The design and its flat-prior fit (theta_hat, residual sum of squares,
    log det and inverse of Phi^T Phi) depend on the basis parameters alone:
    consecutive points with equal alpha share one design build and one fit,
    and each of their sigma_e2 values costs arithmetic only.  A grid that
    lists the variances innermost, as
    ``itertools.product(alpha_axes..., sigma_axis)`` does, builds and fits
    each admissible design once (a degenerate one raises again at every
    point); with a variance outermost every point builds and fits its own.
    Weights and posteriors do not depend on the order.
    """
    names, points = _grid_points(family, eta_points, names)
    fit = None

    def weigh(params: HyperParams, design) -> tuple[float, GaussianBelief]:
        nonlocal fit
        if fit is None or fit.design is not design:
            fit = improper_prior._flat_fit(dataset.outputs, design, posterior=True)
        return (
            improper_prior._area_report(fit, params.sigma_e2).log_value,
            improper_prior._flat_posterior(fit, params.sigma_e2),
        )

    design_for = _design_builder(dataset, family)
    scored = [_score_point(design_for, family, weigh, names, vec, fixed) for vec in points]
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
        names=tuple(names),
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
    so flagged degenerate points never contribute.  A degenerate design at a
    point with mass raises, and so does a ``theta`` of the wrong length.  As in
    :func:`build_hyper_posterior`, consecutive points with equal alpha share
    one design build and one residual ``||y - Phi theta||^2``, and each of
    their sigma_e2 values costs arithmetic only, so the grid's order sets how
    many designs are built but not the result.
    """
    design_for = _design_builder(dataset, family)
    held, energy = None, None
    terms = []
    for i in range(grid.size):
        p = grid.probs[i]
        if p <= 0.0:
            continue
        params = assemble_hyperparams(list(grid.names), grid.points[i], grid.fixed, family)
        design = design_for(params.alpha)
        if design is not held:
            held, energy = design, _residual_energy(dataset.outputs, design, theta)
        ll = _log_likelihood_at(design.n, energy, params.sigma_e2)
        terms.append(math.log(p) + ll)
    if not terms:
        raise AllDegenerate("no usable grid points")
    return float(scipy.special.logsumexp(terms))
