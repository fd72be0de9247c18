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
    DimensionMismatch,
    EmptyFeasibleGrid,
    MixedKinds,
    RankDeficient,
)
from .model import BasisFamily, Dataset, HyperParams, build_design_matrix

SCORE_KINDS = ("proper", "fake")

# Failures that mark one sweep point as degenerate.  Anything else, such as a
# ValueError from malformed caller input, propagates out of the sweep.
_DEGENERATE = (RankDeficient,)

# Distinct designs per stacked block of every grid sweep (_score_points).  A
# block's bases, (block, N, M), are held at once, so a sweep's peak memory
# grows with it, and a larger block adds that transient memory to the
# benchmark's peak_rss_mb; 32 designs already amortize the per-call cost of
# the stacked products.
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
    ``ordering`` lists (low, high) pairs of two different names that must
    satisfy low < high, e.g. ``(("alpha0", "alpha1"),)`` to keep centers
    sorted.  ``tolerance``
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
            if _slot(lo_name) == _slot(hi_name):
                raise ValueError(f"ordering pair {(lo_name, hi_name)} names one slot twice")
        slots = [_slot(name) for name in self.bounds]
        for k, name in enumerate(self.bounds):
            if slots[k] in slots[:k]:
                raise ValueError(f"{name!r} sets a parameter that an earlier name already set")


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


def _fit_design(dataset: Dataset, family: BasisFamily, alpha, posterior: bool = False):
    """The flat fit of alpha's design built alone, or None where it is degenerate."""
    try:
        design = build_design_matrix(dataset, family, alpha)
    except _DEGENERATE:
        return None
    return improper_prior._flat_fit(dataset.outputs, design, posterior)


def _score_point(sweep: _Sweep, dataset: Dataset, family: BasisFamily, vec, value):
    """``value(fit, sigma_e2)`` of one point's :func:`_fit_design`.

    None where the point is infeasible, -inf where its design is degenerate.
    """
    point = sweep.at(vec)
    if point is None:
        return None
    fit = _fit_design(dataset, family, point[0])
    return -math.inf if fit is None else value(fit, point[1])


def _distinct_rows(rows: np.ndarray):
    """``np.unique(rows, axis=0)``, the stable order of ``rows`` by it, and each
    ordered row's index into it: one ``np.lexsort``, faster than ``np.unique``.
    """
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[first], order, np.cumsum(first) - 1


def _score_posteriors(sweep: _Sweep, points, dataset: Dataset, family: BasisFamily, score):
    """``(kept, scored)`` of a sweep's points, each distinct alpha's design fitted alone once.

    The one-design loop of :func:`build_hyper_posterior`.  ``kept`` flags
    the feasible points, by :meth:`_Sweep.merge`.  ``scored`` holds, per
    point, ``score(fit, sigma_e2)`` of the :func:`_fit_design` of its alpha
    with its posterior, or None where the point is infeasible or the design
    degenerate.  Each fit is dropped once its points are scored.
    """
    kept, merged = sweep.merge(points)
    distinct, order, design_of = _distinct_rows(merged[:, :-1])
    rows, sigmas = np.flatnonzero(kept), merged[:, -1].tolist()
    groups = np.split(order, np.flatnonzero(np.diff(design_of)) + 1)
    scored = [None] * len(points)
    for alpha, group in zip(distinct, groups):
        fitted = _fit_design(dataset, family, alpha, posterior=True)
        if fitted is not None:
            for k in group.tolist():
                scored[rows[k]] = score(fitted, sigmas[k])
    return kept, scored


def _score_points(sweep: _Sweep, points, dataset: Dataset, family: BasisFamily, score):
    """``(kept, values, faults)`` of a sweep's points, each distinct alpha fitted once in a stack.

    ``kept`` flags the feasible points, by :meth:`_Sweep.merge`; a
    non-finite alpha there raises ``ValueError``.  Their distinct alphas are
    fitted by ``model._fit_stack`` in blocks of ``_GRID_BLOCK``, one block
    held at a time, and the points whose designs a block admits are scored
    by one call ``score(fits, design, sigma_e2)``: ``fits`` is the block's
    ``model._StackFit`` and ``design`` indexes each point's design among its
    admitted ones.  ``values`` holds what it returns, and -inf at every other
    point.  ``faults`` lists, for each point with a degenerate design in
    order of the designs, the message of the ``RankDeficient`` that
    :func:`build_design_matrix` raises there.
    """
    kept, merged = sweep.merge(points)
    if not np.isfinite(merged[:, :-1]).all():
        raise ValueError("alpha must contain only finite values")
    distinct, order, design_of = _distinct_rows(merged[:, :-1])
    # the feasible points in order of their designs, and where each block's points begin
    rows, sigmas = np.flatnonzero(kept)[order], merged[order, -1]
    starts = range(0, len(distinct), _GRID_BLOCK)
    edges = np.searchsorted(design_of, [*starts, len(distinct)]).tolist()
    values, messages = np.full(len(points), -math.inf), []  # messages: per distinct alpha
    for start, lo, hi in zip(starts, edges, edges[1:]):
        alphas = distinct[start : start + _GRID_BLOCK]
        try:
            fits = model._fit_stack(dataset.outputs, family, alphas, dataset.inputs)
        except _DEGENERATE as exc:
            messages += [str(exc)] * len(alphas)
            continue
        messages += fits.faults
        local = design_of[lo:hi] - start
        ok = fits.admitted[local]
        design = (np.cumsum(fits.admitted) - 1)[local[ok]]
        values[rows[lo:hi][ok]] = score(fits, design, sigmas[lo:hi][ok])
    messages = np.array(messages, dtype=object)[design_of]
    return kept, values, messages[np.not_equal(messages, None)].tolist()


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

    ``objective`` must be ``"log_area"``; any other value raises
    ``ValueError`` before the sweep is compiled.  The coarse stage scores a
    lexicographically ordered tensor grid over the bound boxes, skipping
    infeasible points (ordering violations, nonpositive variances); ties keep
    the lexicographically smallest point.  It scores the feasible points in
    stacked blocks of designs.  Unless every grid point is degenerate, a
    Nelder-Mead refine then starts from the best grid point within the same
    bounds, and its result is kept only when it scores higher.  The refine
    builds and fits one design per point.  Every value, grid or refine, is
    bitwise the ``log_value`` of
    :func:`improper_prior.log_area_under_likelihood` of the point's design,
    or -inf where :func:`build_design_matrix` raises ``RankDeficient``.  The
    refine stops once its simplex spans at most ``config.tolerance`` in every
    parameter and in the log score, or after ``config.max_evals``
    evaluations.  ``config.tolerance`` must therefore lie above the rounding
    floor of the score: log S is resolved only to ~5e-8 to 2e-7 absolute on
    the two-center study, whose data reach ~4e7, and a simplex asked to agree
    more closely than that shrinks onto rounding noise until the cap.  Every
    evaluated point is recorded in the returned trace, grid points in grid
    order and then refine points, so reruns are byte-for-byte reproducible.

    A ``record`` dict, when given, is filled with the run's counts and
    times: ``grid_evals`` (feasible grid points scored), ``grid_degenerate``
    (those with a degenerate design), ``grid_degenerate_by_reason`` (those
    counted by the message of the ``RankDeficient`` that
    :func:`build_design_matrix` raises there), ``grid_s`` (the grid stage's
    wall seconds), the refine's ``refine_nfev``, ``refine_nit`` and
    ``refine_status`` (scipy's; 0 means converged) and ``refine_s`` (its
    wall seconds).  Without a refine the two counts are 0 and the status is
    None.

    Returns ``(best_params, best_value, trace)``.
    """
    if objective != "log_area":
        raise ValueError("objective must be 'log_area'")
    sweep = _Sweep(config.bounds, fixed, family, config.ordering)
    started = time.perf_counter()
    axes = [np.linspace(lo, hi, config.grid_points) for lo, hi in config.bounds.values()]
    # the tensor grid in itertools.product order: the last name varies fastest
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    dof = dataset.n - family.size

    def log_area(fits, design, sigma_e2):
        return improper_prior._log_area_values(
            fits.rss[design], fits.log_det_gram[design], dof, sigma_e2
        )

    kept, values, faults = _score_points(sweep, grid, dataset, family, log_area)
    vecs, values = grid[kept], values[kept]
    trace = [
        (dict(zip(sweep.names, vec)), value)
        for vec, value in zip(vecs.tolist(), values.tolist())
    ]
    grid_s = time.perf_counter() - started

    def area(fit, sigma_e2: float) -> float:
        return improper_prior._area_report(fit, sigma_e2).log_value

    def score(vec: np.ndarray) -> float | None:
        value = _score_point(sweep, dataset, family, vec, area)
        if value is not None:
            trace.append((dict(zip(sweep.names, (float(v) for v in vec))), value))
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
            grid_degenerate=len(faults),
            grid_degenerate_by_reason=dict(sorted(collections.Counter(faults).items())),
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
    coefficients, from the residual of their least-squares fit; the grid
    fits each distinct alpha once, in stacked blocks.  Values are normalized
    by the larger of the grid maximum and an unbounded Nelder-Mead polish
    started from the best grid point, so the normalized profile lies in (0, 1]
    wherever it is defined; grid points with a nonpositive variance or a
    degenerate design are flagged in ``failed`` and get zero weight rather
    than failing the sweep.
    """
    sweep = _Sweep(names, fixed, family)
    points = sweep.grid(eta_points)

    def profiled(fits, design, sigma_e2):
        return model._log_likelihood_at(dataset.n, fits.rss[design], sigma_e2)

    def polished(fit, sigma_e2: float) -> float:
        return float(model._log_likelihood_at(dataset.n, fit.rss, sigma_e2))

    _, log_values, _ = _score_points(sweep, points, dataset, family, profiled)
    _, log_max, _ = _grid_then_polish(
        lambda vec: _score_point(sweep, dataset, family, vec, polished),
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
