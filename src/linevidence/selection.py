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

from . import gaussian_prior, improper_prior, model
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

_VARIANCE_SLOTS = {"sigma_e2": -2, "sigma_p2": -1}

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
    e.g. ``(("alpha0", "alpha1"),)`` to keep centers sorted.  ``tolerance``
    is the refine's absolute tolerance on the parameters and on the log
    score alike, so it must lie above the score's rounding floor (see
    :func:`empirical_bayes_optimize`); ``max_evals`` caps the refine's
    score evaluations.
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
            _slot(name)
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


def _slot(name: str) -> int:
    """Where ``name`` sits in a merged point: a variance at -2 or -1, alpha i at i.

    ``alpha1`` and ``alpha01`` name one slot.
    """
    if name in _VARIANCE_SLOTS:
        return _VARIANCE_SLOTS[name]
    if name.startswith("alpha") and name[5:].isdigit():
        return int(name[5:])
    raise ValueError(
        f"unrecognized parameter name {name!r}; use alpha<i>, sigma_e2 or sigma_p2"
    )


class _Sweep:
    """A sweep's free names, compiled once against its fixed baseline and family.

    Construction makes, once per sweep, the checks of :func:`assemble_hyperparams`
    that do not depend on a point's values.  Each point merges over the baseline
    into one vector: the alphas, then sigma_e2 and sigma_p2.  ``names`` defaults
    to every alpha; ``ordering`` holds (low, high) name pairs to keep increasing.
    """

    def __init__(self, names, fixed: HyperParams | None, family: BasisFamily, ordering=()):
        k = family.param_count
        self.names = [f"alpha{i}" for i in range(k)] if names is None else list(names)
        # NaN marks a slot that is neither fixed nor, yet, free
        self._base = np.full(k + 2, np.nan)
        if fixed is not None:
            if fixed.alpha.size != k:
                raise DimensionMismatch(
                    f"fixed alpha has length {fixed.alpha.size}, family expects {k}"
                )
            self._base[:k], self._base[-2] = fixed.alpha, fixed.sigma_e2
            if fixed.prior_scale is not None:
                self._base[-1] = fixed.prior_scale
        self._slots = []
        for name in self.names:
            slot = _slot(name)
            if slot in self._slots:
                raise ValueError(f"{name!r} sets a parameter that an earlier name already set")
            if slot >= k:
                raise DimensionMismatch(
                    f"{name!r} is out of range for a family with {k} parameters"
                )
            self._slots.append(slot)
        unset = np.isnan(self._base)
        unset[self._slots] = False
        if np.any(unset[:k]):
            missing = [f"alpha{i}" for i in np.flatnonzero(unset[:k])]
            raise ValueError(f"parameters {missing} are neither fixed nor free")
        if unset[-2]:
            raise ValueError("sigma_e2 must be supplied either fixed or free")
        self.has_prior_scale = not unset[-1]
        self._ordering = [(self.names.index(lo), self.names.index(hi)) for lo, hi in ordering]

    def grid(self, eta_points) -> np.ndarray:
        """``eta_points`` as a (K, len(names)) array."""
        points = np.atleast_2d(np.asarray(eta_points, dtype=float))
        if points.shape[1] != len(self.names):
            raise DimensionMismatch(
                f"eta points have {points.shape[1]} columns for {len(self.names)} names"
            )
        return points

    def _merge(self, vec):
        """The unchecked ``(alpha, sigma_e2, prior_scale)`` of one point; alpha is new."""
        merged = self._base.copy()
        merged[self._slots] = vec
        prior_scale = float(merged[-1]) if self.has_prior_scale else None
        return merged[:-2], float(merged[-2]), prior_scale

    def at(self, vec: np.ndarray):
        """``(alpha, sigma_e2, prior_scale)`` at one point, or None where it is infeasible.

        A broken ordering makes a point infeasible before its variances are
        read, and a nonpositive variance makes it infeasible; a NaN or
        infinite variance raises.
        """
        for lo, hi in self._ordering:
            if not vec[lo] < vec[hi]:
                return None
        alpha, sigma_e2, prior_scale = self._merge(vec)
        if sigma_e2 <= 0 or (prior_scale is not None and prior_scale <= 0):
            return None
        model._check_variances(sigma_e2, prior_scale)
        return alpha, sigma_e2, prior_scale


def assemble_hyperparams(
    names: Sequence[str],
    values: Sequence[float],
    fixed: HyperParams | None,
    family: BasisFamily,
) -> HyperParams:
    """Merge free parameter values over the fixed baseline into a HyperParams.

    The checks on ``names``, ``fixed`` and ``family`` are the ones every sweep
    makes once, before its first point: the fixed alpha's length, known names,
    no slot set twice, alphas in range, every alpha and sigma_e2 either fixed
    or free.  The merged values then get every check of ``HyperParams``, so a
    nonpositive variance raises here, where a sweep flags its point instead.
    """
    if len(names) != len(values):
        raise DimensionMismatch("names and values must have equal length")
    return HyperParams(*_Sweep(names, fixed, family)._merge(values))


def _check_objective(objective: str, has_prior_scale: bool) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if objective == "log_marginal" and not has_prior_scale:
        raise ValueError("log_marginal objective requires prior_scale")


def evaluate_objective(
    dataset: Dataset, family: BasisFamily, params: HyperParams, objective: str
) -> float:
    """Score one hyperparameter setting; -inf for degenerate candidates."""
    _check_objective(objective, params.prior_scale is not None)

    def score(design, sigma_e2: float, prior_scale: float | None) -> float:
        if objective == "log_area":
            return improper_prior.log_area_under_likelihood(
                dataset.outputs, design, sigma_e2
            ).log_value
        prior = gaussian_prior.isotropic_prior(design.m, prior_scale)
        return gaussian_prior.log_marginal_likelihood(
            dataset.outputs, design, sigma_e2, prior
        ).log_value

    point = (params.alpha, params.sigma_e2, params.prior_scale)
    value = _score_design(_design_builder(dataset, family), point, score)
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


def _score_design(design_for, point, score):
    """``score(design, sigma_e2, prior_scale)`` at ``point = (alpha, sigma_e2, prior_scale)``.

    None where the point is None, as ``_Sweep.at`` gives for an infeasible
    one, or where its design or score is degenerate.
    """
    if point is None:
        return None
    alpha, sigma_e2, prior_scale = point
    try:
        return score(design_for(alpha), sigma_e2, prior_scale)
    except _DEGENERATE:
        return None


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
    scores higher.  The refine stops once its simplex spans at most
    ``config.tolerance`` in every parameter and in the log score, or after
    ``config.max_evals`` evaluations.  ``config.tolerance`` must therefore
    lie above the rounding floor of the score: log S is resolved only to
    ~5e-8 to 2e-7 absolute on the two-center study, whose data reach ~4e7,
    and a simplex asked to agree more closely than that shrinks onto
    rounding noise until the cap.  Every evaluated point is recorded in the
    returned trace, so reruns are byte-for-byte reproducible.

    Returns ``(best_params, best_value, trace)``.
    """
    sweep = _Sweep(config.bounds, fixed, family, config.ordering)
    _check_objective(objective, sweep.has_prior_scale)
    axes = [np.linspace(lo, hi, config.grid_points) for lo, hi in config.bounds.values()]
    trace: list[tuple[dict, float]] = []

    def score(vec: np.ndarray) -> float | None:
        point = sweep.at(vec)
        if point is None:
            return None
        value = evaluate_objective(dataset, family, HyperParams(*point), objective)
        trace.append((dict(zip(sweep.names, (float(v) for v in vec))), value))
        return value

    _, best_vec, best_value = _grid_then_polish(
        score,
        (np.asarray(combo) for combo in itertools.product(*axes)),
        list(config.bounds.values()),
        {
            "xatol": config.tolerance,
            "fatol": config.tolerance,
            "maxfev": config.max_evals,
        },
    )
    if best_vec is None:
        raise EmptyFeasibleGrid("constraints exclude every grid point")
    return HyperParams(*sweep.at(best_vec)), best_value, trace


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
    sweep = _Sweep(names, fixed, family)
    points = sweep.grid(eta_points)

    def profiled(design, sigma_e2: float, *_) -> float:
        theta_hat, _ = ml_estimate(dataset.outputs, design)
        return log_likelihood(dataset.outputs, design, theta_hat, sigma_e2)

    # a fresh builder per point keeps one build per evaluation; the grid
    # points are distinct, so a shared builder would save nothing
    log_values, _, log_max = _grid_then_polish(
        lambda vec: _score_design(_design_builder(dataset, family), sweep.at(vec), profiled),
        points,
        None,
        {"xatol": 1e-8, "fatol": 1e-12, "maxfev": 400 * max(1, len(sweep.names))},
    )
    failed = log_values == -math.inf
    if np.all(failed):
        raise AllDegenerate("every grid point failed")
    normalized = np.exp(log_values - log_max)
    normalized[failed] = 0.0
    return ProfileResult(
        points=points,
        names=tuple(sweep.names),
        log_values=log_values,
        normalized=normalized,
        log_max=log_max,
        failed=failed,
    )
