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


def bma_weights(scores: Sequence[ModelScore]) -> np.ndarray:
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
    grid_points: int = 21
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
        if not isinstance(self.grid_points, (int, np.integer)) or self.grid_points < 2:
            raise ValueError("grid_points must be an integer of at least 2")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if not isinstance(self.max_evals, (int, np.integer)) or self.max_evals < 1:
            raise ValueError("max_evals must be an integer of at least 1")
        for lo_name, hi_name in self.ordering:
            if lo_name not in self.bounds or hi_name not in self.bounds:
                raise ValueError("ordering names must appear in bounds")


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
    return HyperParams(alpha=alpha, sigma_e2=sigma_e2, prior_scale=prior_scale)


def evaluate_objective(
    dataset: Dataset, family: BasisFamily, params: HyperParams, objective: str
) -> float:
    """Score one hyperparameter setting; -inf for degenerate candidates."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if objective == "log_marginal" and params.prior_scale is None:
        raise ValueError("log_marginal objective requires prior_scale")

    def score(params: HyperParams, design) -> float:
        if objective == "log_area":
            return improper_prior.log_area_under_likelihood(
                dataset.outputs, design, params.sigma_e2
            ).log_value
        prior = gaussian_prior.isotropic_prior(design.m, params.prior_scale)
        return gaussian_prior.log_marginal_likelihood(
            dataset.outputs, design, params.sigma_e2, prior
        ).log_value

    value = _score_design(_design_builder(dataset, family), params, score)
    return -math.inf if value is None else value


def _design_builder(dataset: Dataset, family: BasisFamily):
    """A ``design_for(alpha)`` that reuses the design of the previous alpha.

    It holds at most one design: the last one built, keyed by ``alpha``'s
    bytes.  Any other alpha is built through this module's
    ``build_design_matrix`` binding, and the held design is replaced only
    when that build succeeds, so a degenerate alpha raises afresh at every
    call and no exception is ever stored.  Points that share alpha therefore
    share one design only when they are consecutive.
    """
    held_key, held_design = None, None

    def design_for(alpha: np.ndarray):
        nonlocal held_key, held_design
        key = alpha.tobytes()
        if key != held_key:
            held_key, held_design = key, build_design_matrix(dataset, family, alpha)
        return held_design

    return design_for


def _score_design(design_for, params: HyperParams, score):
    """``score(params, design)``, or None when the design or its score is degenerate."""
    try:
        return score(params, design_for(params.alpha))
    except _DEGENERATE:
        return None


def _positive_variances(names, values) -> bool:
    return all(v > 0 for n, v in zip(names, values) if n in _VARIANCE_NAMES)


def _score_point(design_for, family, score, names, vec, fixed):
    """``_score_design`` at one sweep point; None also where a variance is nonpositive."""
    if not _positive_variances(names, vec):
        return None
    params = assemble_hyperparams(names, vec, fixed, family)
    return _score_design(design_for, params, score)


# Private, like the scorers above: a traced run wraps every public function, and
# a public sweep helper would hide the caller that tells grid, refine and polish apart.
def _grid_then_polish(score, points, bounds, options):
    """Score every grid point, then polish the first best one by Nelder-Mead.

    ``score(vec)`` gives a log value, or None for a point that is no candidate.
    The polish runs only from a finite best value and is kept only if higher.
    Returns ``(values, best_vec, best_value)``, values -inf where score gave None.
    """
    values = []
    best_vec, best_value = None, -math.inf
    for vec in points:
        value = score(vec)
        values.append(-math.inf if value is None else value)
        if value is not None and (value > best_value or best_vec is None):
            best_vec, best_value = vec, value
    if math.isfinite(best_value):

        def negated(vec: np.ndarray) -> float:
            value = score(vec)
            return -value if value is not None and math.isfinite(value) else math.inf

        result = scipy.optimize.minimize(
            negated, best_vec, method="Nelder-Mead", bounds=bounds, options=options
        )
        if math.isfinite(result.fun) and -result.fun > best_value:
            best_value, best_vec = -float(result.fun), np.asarray(result.x)
    return np.array(values), best_vec, best_value


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

    The coarse stage scores a lexicographically ordered tensor grid over the
    bound boxes, skipping infeasible points (ordering violations, nonpositive
    variances); ties keep the lexicographically smallest point.  Unless every
    grid point is degenerate, a Nelder-Mead refine then starts from the best
    grid point within the same bounds, and its result is kept only when it
    scores higher.  Every evaluated point is recorded in the returned trace,
    so reruns are byte-for-byte reproducible.

    Returns ``(best_params, best_value, trace)``.
    """
    names = list(config.bounds)
    axes = [np.linspace(lo, hi, config.grid_points) for lo, hi in config.bounds.values()]
    trace: list[tuple[dict, float]] = []

    def score(vec: np.ndarray) -> float | None:
        if not _feasible(names, vec, config):
            return None
        params = assemble_hyperparams(names, vec, fixed, family)
        value = evaluate_objective(dataset, family, params, objective)
        trace.append((dict(zip(names, (float(v) for v in vec))), value))
        return value

    _, best_vec, best_value = _grid_then_polish(
        score,
        (np.asarray(combo) for combo in itertools.product(*axes)),
        list(config.bounds.values()),
        {
            "xatol": config.tolerance,
            "fatol": max(1e-12, config.tolerance * 1e-4),
            "maxfev": config.max_evals,
        },
    )
    if best_vec is None:
        raise EmptyFeasibleGrid("constraints exclude every grid point")
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
    and the likelihood is evaluated there.  Values are normalized by the
    larger of the grid maximum and an unbounded Nelder-Mead polish started
    from the best grid point, so the normalized profile lies in (0, 1]
    wherever it is defined; grid points with a nonpositive variance or a
    degenerate design are flagged in ``failed`` and get zero weight rather
    than failing the whole sweep.
    """
    names, points = _grid_points(family, eta_points, names)

    def profiled(params: HyperParams, design) -> float:
        theta_hat, _ = ml_estimate(dataset.outputs, design)
        return log_likelihood(dataset.outputs, design, theta_hat, params.sigma_e2)

    # a fresh builder per point keeps one build per evaluation; the grid
    # points are distinct, so a shared builder would save nothing
    log_values, _, log_max = _grid_then_polish(
        lambda vec: _score_point(
            _design_builder(dataset, family), family, profiled, names, vec, fixed
        ),
        points,
        None,
        {"xatol": 1e-8, "fatol": 1e-12, "maxfev": 400 * max(1, len(names))},
    )
    failed = log_values == -math.inf
    if np.all(failed):
        raise AllDegenerate("every grid point failed")
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
