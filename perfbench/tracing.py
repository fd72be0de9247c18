"""In-memory span tracing of linevidence's public functions.

The benchmark wraps every public function of the ``model``,
``improper_prior``, ``gaussian_prior``, ``selection``, ``full_bayes`` and
``cli`` modules from outside the package: each module binding that holds
the function (``from .model import build_design_matrix`` creates one per
importing module) is swapped for a wrapper, and swapped back by
:meth:`Tracer.uninstall`.  ``scipy.optimize.minimize`` is wrapped too,
because the refine stage of ``empirical_bayes_optimize`` and the polish of
``profile_likelihood`` are calls to it rather than package functions.

A span records name, start, end, parent span and op id in flat arrays, so a
traced run keeps hundreds of thousands of spans in a few megabytes;
:meth:`Tracer.save` writes them out when the run ends.
"""
from __future__ import annotations

import importlib
import math
import time
import tracemalloc
import types
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.optimize

LAYERS = ("model", "improper_prior", "gaussian_prior", "selection", "full_bayes", "cli")
REFINE = "selection.refine"
POLISH = "selection.profile_likelihood.polish"
# calls whose peak allocation is measured with tracemalloc (it slows every
# allocation, so it is on only inside these calls)
ALLOC_MEASURED = frozenset(
    {
        "gaussian_prior.log_marginal_likelihood",
        "gaussian_prior.posterior_coefficients",
        "gaussian_prior.predict_at",
    }
)
NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        # return value of evaluate_objective spans, nan for every other span
        self.value = array("d")
        self.attrs: dict[int, dict] = {}
        self.op_id = NO_PARENT
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    # recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.value.append(math.nan)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        alloc = name in ALLOC_MEASURED
        keep_value = name == "selection.evaluate_objective"

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            measuring = alloc and not tracemalloc.is_tracing()
            if measuring:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.attrs[idx] = {"raised": type(exc).__name__}
                raise
            finally:
                if measuring:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(idx)
            if measuring:
                tracer.attrs[idx] = {"peak_alloc": peak}
            if keep_value:
                tracer.value[idx] = result
            elif name == "gaussian_prior.diffuse_limit_decomposition":
                tracer.attrs[idx] = {"rungs": len(result)}
            elif name == "full_bayes.build_hyper_posterior":
                tracer.attrs[idx] = {"failed": int(np.sum(result.failed))}
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_minimize(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1]
            caller = tracer.names[tracer.name_id[parent]] if parent != NO_PARENT else ""
            if caller == "selection.empirical_bayes_optimize":
                name = REFINE
            elif caller == "selection.profile_likelihood":
                name = POLISH
            else:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            maxfev = (kwargs.get("options") or {}).get("maxfev")
            tracer.attrs[idx] = {
                "nfev": int(result.nfev),
                "status": int(result.status),
                "hit_cap": maxfev is not None and int(result.nfev) >= int(maxfev),
            }
            return result

        traced.__wrapped__ = fn
        return traced

    # installation --------------------------------------------------------

    def install(self) -> None:
        """Swap every public package function binding for a traced wrapper."""
        if self._patches:
            return
        package = importlib.import_module("linevidence")
        modules = {name: importlib.import_module(f"linevidence.{name}") for name in LAYERS}
        holders = [package, *modules.values()]
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)
        self._patches.append((scipy.optimize, "minimize", scipy.optimize.minimize))
        scipy.optimize.minimize = self._wrap_minimize(scipy.optimize.minimize)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # output --------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span as columns of an uncompressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _durations(tracer: Tracer):
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    dur = end - start
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    child_time = np.zeros_like(dur)
    has_parent = parent != NO_PARENT
    # children of one span never overlap (single thread), so the time they
    # cover is the sum of their durations
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    return start, end, dur, dur - child_time, parent


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate spans into the benchmark's per-layer metrics.

    Only spans of timed ops count (op id >= 0), except ``cli.run_example2``,
    which runs in set-up.  Means over zero calls read 0.
    """
    start, end, dur, self_time, parent = _durations(tracer)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    op = np.frombuffer(tracer.op, dtype=np.int32)
    value = np.frombuffer(tracer.value, dtype=np.float64)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def select(name: str, timed_only: bool = True) -> np.ndarray:
        if name not in ids:
            return np.zeros(0, dtype=np.int64)
        mask = name_id == ids[name]
        if timed_only:
            mask &= op >= 0
        return np.flatnonzero(mask)

    def mean(arr) -> float:
        return float(np.mean(arr)) if len(arr) else 0.0

    def attrs(spans, key: str) -> list:
        """``key`` of each span that recorded it (a call that raised records none)."""
        found = (tracer.attrs.get(int(i), {}).get(key) for i in spans)
        return [v for v in found if v is not None]

    n_ops = len(np.unique(op[op >= 0]))
    out: dict[str, float] = {}

    def timing(name: str, unit: str, calls: bool = False, timed_only: bool = True):
        """Mean call time and self time; ``unit`` is us, ms or s."""
        idx = select(name, timed_only)
        scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        if calls:
            out[f"{name}.calls_per_op"] = len(idx) / n_ops if n_ops else 0.0
        out[f"{name}.{'s' if unit == 's' else 'mean_' + unit}"] = mean(dur[idx]) * scale
        out[f"{name}.self_{unit}"] = mean(self_time[idx]) * scale
        return idx

    timing("model.build_design_matrix", "us", calls=True)
    timing("improper_prior.log_area_under_likelihood", "us", calls=True)
    timing("improper_prior.posterior_coefficients", "us", calls=True)
    timing("selection.evaluate_objective", "us", calls=True)

    # grid and refine stages of each empirical_bayes_optimize call
    evals = select("selection.evaluate_objective")
    refines = {int(parent[i]): i for i in select(REFINE)}
    grid_evals, grid_degenerate, grid_s = [], [], []
    refine_evals, refine_s, hit_cap, improving = [], [], [], []
    eval_parent = parent[evals]
    for call in select("selection.empirical_bayes_optimize"):
        grid = evals[eval_parent == call]
        r = refines.get(int(call))
        cut = start[r] if r is not None else end[call]
        grid_evals.append(len(grid))
        grid_degenerate.append(int(np.sum(np.isneginf(value[grid]))))
        grid_s.append(cut - start[call])
        if r is None:
            continue
        ref = evals[eval_parent == r]
        refine_evals.append(len(ref))
        refine_s.append(dur[r])
        hit_cap.extend(attrs([r], "hit_cap"))
        best = np.max(value[grid]) if len(grid) else -math.inf
        vals = value[ref]
        running = np.maximum.accumulate(np.concatenate([[best], vals]))
        improving.append((int(np.sum(vals > running[:-1])), len(vals)))
    out["selection.grid.evals"] = mean(grid_evals)
    out["selection.grid.degenerate"] = mean(grid_degenerate)
    out["selection.grid.s"] = mean(grid_s)
    out["selection.refine.evals"] = mean(refine_evals)
    out["selection.refine.s"] = mean(refine_s)
    out["selection.refine.hit_cap_ratio"] = mean(hit_cap)
    n_imp = sum(n for _, n in improving)
    out["selection.refine.improving_ratio"] = (
        sum(k for k, _ in improving) / n_imp if n_imp else 0.0
    )

    prof = timing("selection.profile_likelihood", "s")
    designs = select("model.build_design_matrix")
    # every profile evaluation (grid and polish) builds exactly one design
    counts = [
        int(np.sum((start[designs] >= start[p]) & (end[designs] <= end[p]))) for p in prof
    ]
    out["selection.profile_likelihood.evals"] = mean(counts)

    for fn in ("log_marginal_likelihood", "posterior_coefficients", "predict_at"):
        name = f"gaussian_prior.{fn}"
        idx = timing(name, "ms")
        out[f"{name}.peak_alloc_mb"] = max(attrs(idx, "peak_alloc"), default=0) / 2**20
    ladder = select("gaussian_prior.diffuse_limit_decomposition")
    ladder = np.array([i for i in ladder if attrs([i], "rungs")], dtype=np.int64)
    rungs = np.array(attrs(ladder, "rungs"), dtype=float)
    out["gaussian_prior.diffuse_limit_decomposition.per_rung_ms"] = (
        mean(dur[ladder] / rungs) * 1e3
    )
    out["gaussian_prior.diffuse_limit_decomposition.per_rung_self_ms"] = (
        mean(self_time[ladder] / rungs) * 1e3
    )

    hyper = timing("full_bayes.build_hyper_posterior", "s")
    out["full_bayes.build_hyper_posterior.failed_points"] = mean(attrs(hyper, "failed"))
    timing("full_bayes.sample_posterior", "s")
    timing("full_bayes.averaged_model_loglik", "s")
    timing("cli.run_example2", "s", timed_only=False)
    return out
