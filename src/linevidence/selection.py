"""Model comparison and hyperparameter point estimation.

Scores of different kinds never mix: a proper marginal likelihood and a
flat-prior likelihood area are not commensurable, so Bayes factors and
averaging weights require every candidate to carry the same ``kind`` tag.
"""
from __future__ import annotations

import collections
import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.optimize
import scipy.special

from . import improper_prior, model
from .exceptions import (
    AllDegenerate,
    DegenerateDof,
    DimensionMismatch,
    EmptyFeasibleGrid,
    MixedKinds,
    RankDeficient,
    SingularPrior,
)
from .model import BasisFamily, Dataset, HyperParams, build_design_matrix

SCORE_KINDS = ("proper", "fake")
OBJECTIVES = ("log_area",)

# Failures that mark one sweep point as degenerate.  Anything else, such as a
# ValueError from malformed caller input, propagates out of the sweep.
_DEGENERATE = (RankDeficient, SingularPrior, DegenerateDof)

# Designs per stacked block of the search's grid stage.  A block's bases,
# (block, N, M), are held at once, so the search's peak memory grows with it,
# and a larger block adds that transient memory to the benchmark's
# peak_rss_mb; 32 designs already amortize the per-call cost of the stacked
# products.
_GRID_BLOCK = 32


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
    names are ``alpha0 .. alpha{k}`` and ``sigma_e2``.
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
    """Where ``name`` sits in a merged point: sigma_e2 at -1, alpha i at i.

    ``alpha1`` and ``alpha01`` name one slot.
    """
    if name == "sigma_e2":
        return -1
    if name.startswith("alpha") and name[5:].isdigit():
        return int(name[5:])
    raise ValueError(f"unrecognized parameter name {name!r}; use alpha<i> or sigma_e2")


class _Sweep:
    """A sweep's free names, compiled once against its fixed baseline and family.

    Construction checks, once per sweep and before any point is scored, what
    does not depend on a point's values: the fixed alpha has the family's
    length (``DimensionMismatch``), every name is ``alpha<i>`` or ``sigma_e2``,
    no two names set one slot, every alpha index is in range
    (``DimensionMismatch``), and every alpha and sigma_e2 is either fixed or
    free.  Each point merges over the baseline into one vector: the alphas,
    then sigma_e2.  ``names`` defaults to every alpha; ``ordering`` holds
    (low, high) name pairs to keep increasing.
    """

    def __init__(self, names, fixed: HyperParams | None, family: BasisFamily, ordering=()):
        k = family.param_count
        self.names = [f"alpha{i}" for i in range(k)] if names is None else list(names)
        # NaN marks a slot that is neither fixed nor, yet, free
        self._base = np.full(k + 1, np.nan)
        if fixed is not None:
            if fixed.alpha.size != k:
                raise DimensionMismatch(
                    f"fixed alpha has length {fixed.alpha.size}, family expects {k}"
                )
            self._base[:k], self._base[-1] = fixed.alpha, fixed.sigma_e2
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
        if unset[-1]:
            raise ValueError("sigma_e2 must be supplied either fixed or free")
        self._ordering = [(self.names.index(lo), self.names.index(hi)) for lo, hi in ordering]

    def grid(self, eta_points) -> np.ndarray:
        """``eta_points`` as a (K, len(names)) array."""
        points = np.atleast_2d(np.asarray(eta_points, dtype=float))
        if points.shape[1] != len(self.names):
            raise DimensionMismatch(
                f"eta points have {points.shape[1]} columns for {len(self.names)} names"
            )
        return points

    def at(self, vec: np.ndarray):
        """``(alpha, sigma_e2)`` at one point, or None where it is infeasible.

        A broken ordering makes a point infeasible before its variance is read,
        and a nonpositive sigma_e2 makes it infeasible; a NaN or infinite one
        raises.  ``alpha`` is a new array.
        """
        for lo, hi in self._ordering:
            if not vec[lo] < vec[hi]:
                return None
        merged = self._base.copy()
        merged[self._slots] = vec
        sigma_e2 = float(merged[-1])
        if sigma_e2 <= 0:
            return None
        model._check_noise_var(sigma_e2)
        return merged[:-1], sigma_e2

    def merge(self, vecs: np.ndarray):
        """``(kept, merged)`` of a ``(P, len(names))`` array of points, by :meth:`at`'s rules.

        ``kept`` flags the feasible points, and ``merged`` holds one row per
        feasible point, in order: its alphas, then its sigma_e2, bitwise what
        :meth:`at` gives.  A point with a broken ordering is infeasible
        whatever its variance, and one with a nonpositive sigma_e2 is
        infeasible; a feasible ordering with a NaN or infinite sigma_e2
        raises.
        """
        merged = np.tile(self._base, (len(vecs), 1))
        merged[:, self._slots] = vecs
        kept = ~(merged[:, -1] <= 0)
        for lo, hi in self._ordering:
            kept &= vecs[:, lo] < vecs[:, hi]
        merged = merged[kept]
        nonfinite = merged[~np.isfinite(merged[:, -1]), -1]
        if nonfinite.size:
            model._check_noise_var(float(nonfinite[0]))
        return kept, merged


def _check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")


def evaluate_objective(
    dataset: Dataset, family: BasisFamily, params: HyperParams, objective: str
) -> float:
    """log S, the flat-prior likelihood area, at one setting; -inf if degenerate.

    ``objective`` must be ``"log_area"``; any other value raises ``ValueError``
    before the design is built.  A degenerate design (rank-deficient,
    overflowing, or with no residual degrees of freedom) scores -inf.
    """
    _check_objective(objective)
    try:
        design = build_design_matrix(dataset, family, params.alpha)
        return improper_prior.log_area_under_likelihood(
            dataset.outputs, design, params.sigma_e2
        ).log_value
    except _DEGENERATE:
        return -math.inf


def _fit_memo(dataset: Dataset, family: BasisFamily, fit):
    """A ``fit_for(alpha)`` giving ``fit(dataset.outputs, design)`` of alpha's design.

    It holds at most one result: ``fit`` of the last design built, keyed by
    ``alpha``'s bytes.  Any other alpha is built through this module's
    ``build_design_matrix`` binding and fitted, and the held result is
    replaced only when both succeed, so a degenerate alpha raises afresh at
    every call and no exception is ever stored.  Points that share alpha
    therefore share one build and one fit only when they are consecutive.
    """
    held_key, held = None, None

    def fit_for(alpha: np.ndarray):
        nonlocal held_key, held
        key = alpha.tobytes()
        if key != held_key:
            design = build_design_matrix(dataset, family, alpha)
            held, held_key = fit(dataset.outputs, design), key
        return held

    return fit_for


def _score_design(fit_for, point, score):
    """``score(fit_for(alpha), sigma_e2)`` at ``point = (alpha, sigma_e2)``.

    None where the point is None, as ``_Sweep.at`` gives for an infeasible
    one, or where its design, fit or score is degenerate.
    """
    if point is None:
        return None
    alpha, sigma_e2 = point
    try:
        return score(fit_for(alpha), sigma_e2)
    except _DEGENERATE:
        return None


def _grid_log_area(
    dataset: Dataset, family: BasisFamily, alphas: np.ndarray, sigma_e2: np.ndarray
):
    """log S at each row of ``alphas`` with its ``sigma_e2``, -inf where degenerate.

    Scored in stacked blocks of ``_GRID_BLOCK`` designs by
    ``model._fit_stack``; each value is bitwise equal to
    :func:`evaluate_objective` at that point.  Returns the values and the
    degenerate points counted by the message of the ``RankDeficient`` that
    ``build_design_matrix`` raises there.
    """
    values = np.full(len(alphas), -math.inf)
    reasons = collections.Counter()
    dof = dataset.n - family.size
    for start in range(0, len(alphas), _GRID_BLOCK):
        block = slice(start, start + _GRID_BLOCK)
        try:
            admitted, rss, log_det, faults = model._fit_stack(
                dataset.outputs, family, alphas[block], dataset.inputs
            )
        except _DEGENERATE as exc:
            reasons[str(exc)] += len(alphas[block])
            continue
        reasons.update(fault for fault in faults if fault is not None)
        values[start + np.flatnonzero(admitted)] = improper_prior._log_area_values(
            rss, log_det, dof, sigma_e2[block][admitted]
        )
    return values, reasons


# Private, like the scorers above: a traced run wraps every public function, and
# a public sweep helper would hide the caller that tells grid, refine and polish apart.
def _grid_then_polish(score, points, values, bounds, options):
    """Polish the first best grid point by Nelder-Mead.

    ``values`` holds the caller's score of each of ``points``, -inf for a
    point that is no candidate; ``score(vec)`` gives the polish a log value,
    or None for a point that is no candidate.  The first point with the
    highest value wins, even when every value is -inf; the polish runs only
    from a finite best value and is kept only if higher.  The polish's best
    is the best point it scored: a Nelder-Mead run stopped by ``maxfev`` in
    the middle of an iteration can leave a scored point out of its
    ``result.x``, and that point is taken when it scores strictly higher than
    ``result.fun``.  Returns ``(best_vec, best_value, result)``: best_vec is
    None when there are no points, and result is the polish's
    ``OptimizeResult``, or None when the polish did not run.
    """
    if len(points) == 0:
        return None, -math.inf, None
    best = int(np.argmax(values))
    best_vec, best_value, result = points[best], float(values[best]), None
    if math.isfinite(best_value):
        scored = [-math.inf, None]  # the best finite value the polish scored, and its point

        def negated(vec: np.ndarray) -> float:
            value = score(vec)
            if value is None or not math.isfinite(value):
                return math.inf
            if value > scored[0]:
                scored[:] = value, vec  # scipy passes each point as a fresh copy
            return -value

        result = scipy.optimize.minimize(
            negated, best_vec, method="Nelder-Mead", bounds=bounds, options=options
        )
        polished, polished_vec = -float(result.fun), np.asarray(result.x)
        if scored[0] > polished:
            polished, polished_vec = scored
        if polished > best_value:
            best_value, best_vec = polished, polished_vec
    return best_vec, best_value, result


def empirical_bayes_optimize(
    dataset: Dataset,
    family: BasisFamily,
    objective: str,
    config: OptimizerConfig,
    fixed: HyperParams | None = None,
    *,
    record: dict | None = None,
) -> tuple[HyperParams, float, list[tuple[dict, float]]]:
    """Maximize log S over the free hyperparameters of one family by grid then refine.

    ``objective`` must be ``"log_area"`` (see :func:`evaluate_objective`).  The
    coarse stage scores a lexicographically ordered tensor grid over the
    bound boxes, skipping infeasible points (ordering violations, nonpositive
    variances); ties keep the lexicographically smallest point.  It scores
    the feasible points in stacked blocks of designs, each value bitwise
    equal to :func:`evaluate_objective` at that point.  Unless every
    grid point is degenerate, a Nelder-Mead refine then starts from the best
    grid point within the same bounds, and its result is kept only when it
    scores higher.  The refine scores each point by one
    :func:`evaluate_objective` call.  It stops once its simplex spans at most
    ``config.tolerance`` in every parameter and in the log score, or after
    ``config.max_evals`` evaluations.  ``config.tolerance`` must therefore
    lie above the rounding floor of the score: log S is resolved only to
    ~5e-8 to 2e-7 absolute on the two-center study, whose data reach ~4e7,
    and a simplex asked to agree more closely than that shrinks onto
    rounding noise until the cap.  Every evaluated point is recorded in the
    returned trace, grid points in grid order and then refine points, so
    reruns are byte-for-byte reproducible.

    A ``record`` dict, when given, is filled with the run's counts and
    times: ``grid_evals`` (feasible grid points scored), ``grid_degenerate``
    (those scoring -inf), ``grid_degenerate_by_reason`` (those counted by
    the message of the ``RankDeficient`` that :func:`build_design_matrix`
    raises there), ``grid_s`` (the grid stage's wall seconds), the refine's
    ``refine_nfev``, ``refine_nit`` and ``refine_status`` (scipy's; 0 means
    converged) and ``refine_s`` (its wall seconds).  Without a refine the
    two counts are 0 and the status is None.

    Returns ``(best_params, best_value, trace)``.
    """
    _check_objective(objective)
    sweep = _Sweep(config.bounds, fixed, family, config.ordering)
    started = time.perf_counter()
    axes = [np.linspace(lo, hi, config.grid_points) for lo, hi in config.bounds.values()]
    # the tensor grid in itertools.product order: the last name varies fastest
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    kept, merged = sweep.merge(grid)
    vecs = grid[kept]
    values, reasons = _grid_log_area(dataset, family, merged[:, :-1], merged[:, -1])
    trace = [
        (dict(zip(sweep.names, vec)), value)
        for vec, value in zip(vecs.tolist(), values.tolist())
    ]
    grid_s = time.perf_counter() - started

    def named(vec: np.ndarray) -> dict:
        return dict(zip(sweep.names, (float(v) for v in vec)))

    def score(vec: np.ndarray) -> float | None:
        point = sweep.at(vec)
        if point is None:
            return None
        value = evaluate_objective(dataset, family, HyperParams(*point), objective)
        trace.append((named(vec), value))
        return value

    started = time.perf_counter()
    best_vec, best_value, result = _grid_then_polish(
        score,
        vecs,
        values,
        list(config.bounds.values()),
        {
            "xatol": config.tolerance,
            "fatol": config.tolerance,
            "maxfev": config.max_evals,
        },
    )
    refine_s = time.perf_counter() - started
    if record is not None:
        record.update(
            grid_evals=len(vecs),
            grid_degenerate=int(np.sum(np.isneginf(values))),
            grid_degenerate_by_reason=dict(sorted(reasons.items())),
            grid_s=grid_s,
            refine_nfev=0 if result is None else int(result.nfev),
            refine_nit=0 if result is None else int(result.nit),
            refine_status=None if result is None else int(result.status),
            refine_s=refine_s,
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

    At each point the likelihood is evaluated at the closed-form ML
    coefficients, from the residual of their least-squares fit; consecutive
    points with equal alpha, in the grid or the polish, share one design
    build and one fit.  Values are normalized by the larger of the grid
    maximum and an unbounded Nelder-Mead polish started from the best grid
    point, so the normalized profile lies in (0, 1] wherever it is defined;
    grid points with a nonpositive variance or a degenerate design are
    flagged in ``failed`` and get zero weight rather than failing the sweep.
    """
    sweep = _Sweep(names, fixed, family)
    points = sweep.grid(eta_points)

    fit_for = _fit_memo(dataset, family, improper_prior._flat_fit)

    def profiled(fit, sigma_e2: float) -> float:
        return model._log_likelihood_at(dataset.n, fit.rss, sigma_e2)

    def score(vec: np.ndarray) -> float | None:
        return _score_design(fit_for, sweep.at(vec), profiled)

    log_values = np.array([-math.inf if v is None else v for v in map(score, points)])
    _, log_max, _ = _grid_then_polish(
        score,
        points,
        log_values,
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
