"""Model comparison and hyperparameter point estimation.

Scores of different kinds never mix: a proper marginal likelihood and a
flat-prior likelihood area are not commensurable, so Bayes factors and
averaging weights require every candidate to carry the same ``kind`` tag.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.optimize
import scipy.special

from . import gaussian_prior, improper_prior
from .exceptions import (
    AllDegenerate,
    DegenerateDof,
    DimensionMismatch,
    EmptyFeasibleGrid,
    MixedKinds,
    RankDeficient,
    SingularPrior,
)
from .model import BasisFamily, Dataset, HyperParams, build_design_matrix, log_likelihood, ml_estimate

SCORE_KINDS = ("proper", "fake")
OBJECTIVES = ("log_area", "log_marginal")

_VARIANCE_NAMES = ("sigma_e2", "sigma_p2")

# Failures that mark one sweep point as degenerate.  Anything else, such as a
# ValueError from malformed caller input, propagates out of the sweep.
_DEGENERATE = (RankDeficient, SingularPrior, DegenerateDof)


@dataclass(frozen=True)
class ModelScore:
    """A labelled log score with its kind ('proper' evidence or 'fake' area)."""

    label: str
    log_evidence: float
    kind: str

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"kind must be one of {SCORE_KINDS}")
        if math.isnan(self.log_evidence) or self.log_evidence == math.inf:
            raise ValueError("log_evidence must be finite or -inf")


def log_bayes_factor(a: ModelScore, b: ModelScore) -> float:
    """log (evidence_a / evidence_b); both scores must share a kind."""
    if a.kind != b.kind:
        raise MixedKinds(
            f"cannot compare a {a.kind!r} score with a {b.kind!r} score"
        )
    if a.log_evidence == -math.inf and b.log_evidence == -math.inf:
        raise AllDegenerate("both scores are -inf; the ratio is undefined")
    return a.log_evidence - b.log_evidence


def bma_weights(scores: Sequence[ModelScore], log_prior_weights=None) -> np.ndarray:
    """Normalized posterior model weights from log scores.

    Computed by ``scipy.special.softmax``, which subtracts the maximum, so a
    common offset added to every score leaves the weights unchanged up to
    round-off.  Scores of -inf get weight zero; if all scores are -inf there
    is nothing to normalize and :class:`AllDegenerate` is raised.
    """
    if len(scores) == 0:
        raise ValueError("at least one score is required")
    kinds = {s.kind for s in scores}
    if len(kinds) > 1:
        raise MixedKinds(f"scores mix kinds {sorted(kinds)}")
    logs = np.array([s.log_evidence for s in scores], dtype=float)
    if log_prior_weights is not None:
        lpw = np.asarray(log_prior_weights, dtype=float)
        if lpw.shape != logs.shape:
            raise DimensionMismatch("log_prior_weights must match the number of scores")
        logs = logs + lpw
    if np.max(logs) == -math.inf:
        raise AllDegenerate("all scores are -inf")
    return scipy.special.softmax(logs)


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid-then-refine search settings.

    ``bounds`` maps free-parameter names to finite (lo, hi) boxes; recognized
    names are ``alpha0 .. alpha{k}``, ``sigma_e2`` and ``sigma_p2``.
    ``ordering`` lists (low, high) name pairs that must satisfy low < high,
    e.g. ``(("alpha0", "alpha1"),)`` to keep centers sorted.
    """

    bounds: Mapping[str, tuple[float, float]]
    grid_points: int | Sequence[int] = 21
    local_refine: bool = True
    max_evals: int = 2000
    tolerance: float = 1e-6
    ordering: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("bounds must name at least one free parameter")
        for name, (lo, hi) in self.bounds.items():
            _check_param_name(name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds for {name!r} must be finite with lo < hi")
        counts = self.grid_counts()
        if any(k < 2 for k in counts):
            raise ValueError("grid_points must be at least 2 per dimension")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        for lo_name, hi_name in self.ordering:
            if lo_name not in self.bounds or hi_name not in self.bounds:
                raise ValueError("ordering names must appear in bounds")

    def grid_counts(self) -> list[int]:
        if isinstance(self.grid_points, (int, np.integer)):
            return [int(self.grid_points)] * len(self.bounds)
        counts = [int(k) for k in self.grid_points]
        if len(counts) != len(self.bounds):
            raise ValueError("grid_points sequence must match the number of bounds")
        return counts


def _check_param_name(name: str) -> None:
    if name in _VARIANCE_NAMES:
        return
    if name.startswith("alpha") and name[5:].isdigit():
        return
    raise ValueError(
        f"unrecognized parameter name {name!r}; use alpha<i>, sigma_e2 or sigma_p2"
    )


def assemble_hyperparams(
    names: Sequence[str],
    values: Sequence[float],
    fixed: HyperParams | None,
    family: BasisFamily,
) -> HyperParams:
    """Merge free parameter values over the fixed baseline into a HyperParams."""
    if len(names) != len(values):
        raise DimensionMismatch("names and values must have equal length")
    k = family.param_count
    if fixed is not None:
        if fixed.alpha.size != k:
            raise DimensionMismatch(
                f"fixed alpha has length {fixed.alpha.size}, family expects {k}"
            )
        alpha = fixed.alpha.astype(float).copy()
    else:
        alpha = np.full(k, np.nan)
    sigma_e2 = fixed.sigma_e2 if fixed is not None else None
    prior_scale = fixed.prior_scale if fixed is not None else None
    prior_mean = fixed.prior_mean if fixed is not None else None
    for name, value in zip(names, values):
        _check_param_name(name)
        value = float(value)
        if name == "sigma_e2":
            sigma_e2 = value
        elif name == "sigma_p2":
            prior_scale = value
        else:
            idx = int(name[5:])
            if idx >= k:
                raise DimensionMismatch(
                    f"{name!r} is out of range for a family with {k} parameters"
                )
            alpha[idx] = value
    if np.any(np.isnan(alpha)):
        missing = [f"alpha{i}" for i in np.flatnonzero(np.isnan(alpha))]
        raise ValueError(f"parameters {missing} are neither fixed nor free")
    if sigma_e2 is None:
        raise ValueError("sigma_e2 must be supplied either fixed or free")
    return HyperParams(
        alpha=alpha, sigma_e2=sigma_e2, prior_scale=prior_scale, prior_mean=prior_mean
    )


def evaluate_objective(
    dataset: Dataset, family: BasisFamily, params: HyperParams, objective: str
) -> float:
    """Score one hyperparameter setting; -inf for degenerate candidates."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    try:
        design = build_design_matrix(dataset, family, params.alpha)
        if objective == "log_area":
            return improper_prior.log_area_under_likelihood(
                dataset.outputs, design, params.sigma_e2
            ).log_value
        if params.prior_scale is None:
            raise ValueError("log_marginal objective requires prior_scale")
        prior = gaussian_prior.isotropic_prior(
            design.m, params.prior_scale, params.prior_mean or 0.0
        )
        return gaussian_prior.log_marginal_likelihood(
            dataset.outputs, design, params.sigma_e2, prior
        ).log_value
    except _DEGENERATE:
        return -math.inf


def _positive_variances(names, values) -> bool:
    return all(v > 0 for n, v in zip(names, values) if n in _VARIANCE_NAMES)


def _grid_points(
    family: BasisFamily, eta_points, names: Sequence[str] | None
) -> tuple[list[str], np.ndarray]:
    """Grid points as a (K, len(names)) array; names default to every alpha."""
    if names is None:
        names = [f"alpha{i}" for i in range(family.param_count)]
    names = list(names)
    points = np.atleast_2d(np.asarray(eta_points, dtype=float))
    if points.shape[1] != len(names):
        raise DimensionMismatch(
            f"eta points have {points.shape[1]} columns for {len(names)} names"
        )
    return names, points


def _feasible(names, values, config: OptimizerConfig) -> bool:
    if not _positive_variances(names, values):
        return False
    by_name = dict(zip(names, values))
    for lo_name, hi_name in config.ordering:
        if not by_name[lo_name] < by_name[hi_name]:
            return False
    return True


def empirical_bayes_optimize(
    dataset: Dataset,
    family: BasisFamily,
    objective: str,
    config: OptimizerConfig,
    fixed: HyperParams | None = None,
) -> tuple[HyperParams, float, list[tuple[dict, float]]]:
    """Maximize a log score over free hyperparameters by grid then refine.

    The coarse stage sweeps a lexicographically ordered tensor grid over the
    bound boxes, skipping infeasible points (ordering violations, nonpositive
    variances); ties keep the lexicographically smallest point.  When
    ``local_refine`` is set, a Nelder-Mead polish starts from the best grid
    point within the same bounds.  Every evaluated point is recorded in the
    returned trace, so reruns are byte-for-byte reproducible.

    Returns ``(best_params, best_value, trace)``.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if objective == "log_marginal" and "sigma_p2" not in config.bounds:
        if fixed is None or fixed.prior_scale is None:
            raise ValueError("log_marginal objective requires sigma_p2 fixed or free")
    names = list(config.bounds)
    axes = [
        np.linspace(lo, hi, k)
        for (lo, hi), k in zip(config.bounds.values(), config.grid_counts())
    ]
    trace: list[tuple[dict, float]] = []
    best_value = -math.inf
    best_vec: np.ndarray | None = None

    def score(vec: np.ndarray) -> float:
        params = assemble_hyperparams(names, vec, fixed, family)
        value = evaluate_objective(dataset, family, params, objective)
        trace.append((dict(zip(names, (float(v) for v in vec))), value))
        return value

    feasible_seen = False
    for combo in itertools.product(*axes):
        vec = np.asarray(combo)
        if not _feasible(names, vec, config):
            continue
        feasible_seen = True
        value = score(vec)
        if value > best_value or best_vec is None:
            best_value, best_vec = value, vec
    if not feasible_seen:
        raise EmptyFeasibleGrid("constraints exclude every grid point")

    if config.local_refine and math.isfinite(best_value):

        def negated(vec: np.ndarray) -> float:
            if not _feasible(names, vec, config):
                return math.inf
            value = score(np.asarray(vec))
            return -value if math.isfinite(value) else math.inf

        result = scipy.optimize.minimize(
            negated,
            best_vec,
            method="Nelder-Mead",
            bounds=list(config.bounds.values()),
            options={
                "xatol": config.tolerance,
                "fatol": max(1e-12, config.tolerance * 1e-4),
                "maxfev": config.max_evals,
            },
        )
        if math.isfinite(result.fun) and -result.fun > best_value:
            best_value, best_vec = -float(result.fun), np.asarray(result.x)

    best = assemble_hyperparams(names, best_vec, fixed, family)
    return best, best_value, trace


@dataclass(frozen=True)
class ProfileResult:
    """Profile likelihood over a hyperparameter grid."""

    points: np.ndarray
    names: tuple[str, ...]
    log_values: np.ndarray
    normalized: np.ndarray
    log_max: float
    failed: np.ndarray


def profile_likelihood(
    dataset: Dataset,
    family: BasisFamily,
    eta_points,
    fixed: HyperParams | None = None,
    names: Sequence[str] | None = None,
) -> ProfileResult:
    """Likelihood maximized over theta, profiled on a hyperparameter grid.

    At each grid point the coefficients are set to their closed-form ML value
    and the likelihood is evaluated there.  Values are normalized by a joint
    (grid plus Nelder-Mead polish) maximization so the normalized profile lies
    in (0, 1] wherever it is defined; grid points with a nonpositive variance
    or a degenerate design are flagged in ``failed`` and get zero weight
    rather than failing the whole sweep.
    """
    names, points = _grid_points(family, eta_points, names)

    def log_profile(vec) -> float:
        """-inf where a variance is nonpositive or the design is degenerate."""
        if not _positive_variances(names, vec):
            return -math.inf
        params = assemble_hyperparams(names, vec, fixed, family)
        try:
            design = build_design_matrix(dataset, family, params.alpha)
            theta_hat, _ = ml_estimate(dataset.outputs, design)
        except _DEGENERATE:
            return -math.inf
        return log_likelihood(dataset.outputs, design, theta_hat, params.sigma_e2)

    log_values = np.array([log_profile(vec) for vec in points])
    failed = log_values == -math.inf
    if np.all(failed):
        raise AllDegenerate("every grid point failed")

    best_idx = int(np.argmax(log_values))
    log_max = float(log_values[best_idx])

    def negated(vec) -> float:
        value = log_profile(vec)
        return -value if math.isfinite(value) else math.inf

    result = scipy.optimize.minimize(
        negated,
        points[best_idx],
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-12, "maxfev": 400 * max(1, len(names))},
    )
    if math.isfinite(result.fun):
        log_max = max(log_max, -float(result.fun))

    normalized = np.exp(log_values - log_max)
    normalized[failed] = 0.0
    return ProfileResult(
        points=points,
        names=tuple(names),
        log_values=log_values,
        normalized=normalized,
        log_max=log_max,
        failed=failed,
    )
