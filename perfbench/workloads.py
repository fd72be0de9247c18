"""The benchmark's three workloads: inputs from a seed, one op, its checks.

Each workload generates all of its inputs from the seed with numpy alone, so
two commits given one seed get identical inputs (``digest`` proves it).  An
op is one unit of user work, driven through the package's public functions
only.  ``keep`` reduces an op's outputs to what the checks need, and
``check`` compares them with the independent references in
``reference.py``; checks run after the timed region, never inside it.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref
# package functions are called through their modules, so a traced run sees them
from linevidence import cli, full_bayes, gaussian_prior, model, selection
from linevidence.model import BasisFamily, Dataset, HyperParams


class SetupMismatch(RuntimeError):
    """Set-up found the benchmark out of step with the package's own CLI."""


@dataclass
class Check:
    """Outcome of checking one op against the references."""

    problems: list[str] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)  # relative errors of package scores
    admitted: int = 0    # log S evaluations on admitted designs
    inaccurate: int = 0  # ... whose error exceeds what a QR route attains

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def _judge(self, label: str, err: np.ndarray, tolerance) -> np.ndarray:
        bad = err > tolerance
        if np.any(bad):
            self.problems.append(
                f"{label}: {int(bad.sum())} values off the reference, worst {err.max():.3e}"
            )
        self.errors.extend(err.ravel().tolist())
        return err

    def compare(self, label: str, value, reference, tolerance) -> np.ndarray:
        """Elementwise relative error against the reference."""
        return self._judge(label, np.atleast_1d(ref.rel_err(value, reference)), tolerance)

    def compare_rows(self, label: str, value, reference, tolerance) -> np.ndarray:
        """Relative norm gap of each row (last axis) against the reference row."""
        value, reference = np.atleast_2d(value), np.atleast_2d(reference)
        gap = np.linalg.norm(value - reference, axis=-1) / np.maximum(
            np.linalg.norm(reference, axis=-1), 1e-300
        )
        return self._judge(label, gap, tolerance)

    def count_log_area(self, err: np.ndarray, cond: np.ndarray) -> None:
        """Tally admitted log S values and those less accurate than a QR route."""
        qr_tol = np.maximum(ref.LOG_S_ACCURACY, ref.QR_ROUTE_FACTOR * ref.EPS * cond)
        self.admitted += err.size
        self.inaccurate += int(np.sum(err > qr_tol))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


class RecoveryStudy:
    """One op is one replicate of ``linevidence example2``.

    Same data generator and search settings as ``cli.run_example2``: N=200,
    exponential-abs M=2, a 41x41 grid ordered alpha0 < alpha1 (820 feasible
    points, 64 of them degenerate) and a Nelder-Mead refine capped at 400
    evaluations.  Loads model, improper_prior and selection; no
    gaussian_prior code runs.
    """

    name = "recovery-study"
    kernel = "interpreter"
    accuracy = ref.LOG_S_ACCURACY
    X = np.linspace(-10.0, 10.0, 200)
    THETA = np.array([2.0, -5.0])
    ALPHA = np.array([-4.0, 6.0])
    SIGMA_E2 = 0.5
    AXIS = np.linspace(-10.0, 10.0, 41)
    POOL = 2048  # replicates generated; ops past the pool wrap around
    TIE_REPS = 3  # replicates compared with cli.run_example2 in set-up

    def __init__(self, seed: int):
        self.seed = seed
        truth = ref.exp_abs_basis(self.X, self.ALPHA) @ self.THETA
        noise_sd = math.sqrt(self.SIGMA_E2)
        self.ys = np.stack(
            [
                truth
                + np.random.default_rng(np.random.SeedSequence([seed, rep])).normal(
                    0.0, noise_sd, self.X.size
                )
                for rep in range(self.POOL)
            ]
        )
        self.grid = np.array([(a, b) for a, b in itertools.product(self.AXIS, self.AXIS) if a < b])
        self._grid_designs: ref.Designs | None = None

    def digest(self) -> str:
        return _digest(self.X, self.ys)

    def setup(self) -> None:
        self.family = BasisFamily("exponential-abs", 2)
        self.search = selection.OptimizerConfig(
            bounds={"alpha0": (-10.0, 10.0), "alpha1": (-10.0, 10.0)},
            grid_points=41,
            ordering=(("alpha0", "alpha1"),),
            tolerance=1e-6,
            max_evals=400,
        )
        self.fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=self.SIGMA_E2)
        ours = [self.keep(rep, self.op(rep))["row"] for rep in range(self.TIE_REPS)]
        theirs = cli.run_example2(self.TIE_REPS, self.seed, jobs=1)["replicates"]
        if [tuple(r) for r in ours] != [tuple(r) for r in theirs]:
            raise SetupMismatch(
                f"replicate rows differ from cli.run_example2: {ours} != {theirs}"
            )

    def op(self, i: int):
        y = self.ys[i % self.POOL]
        dataset = Dataset(inputs=self.X[:, None], outputs=y)
        best, value, trace = selection.empirical_bayes_optimize(
            dataset, self.family, "log_area", self.search, self.fixed
        )
        design = model.build_design_matrix(dataset, self.family, best.alpha)
        theta_hat, _ = model.ml_estimate(y, design)
        return best, value, trace, theta_hat

    def keep(self, i: int, out) -> dict:
        best, value, trace, theta_hat = out
        return {
            "points": np.array([[p["alpha0"], p["alpha1"]] for p, _ in trace]),
            "values": np.array([v for _, v in trace]),
            "best_value": float(value),
            "row": (
                i,
                float(best.alpha[0]),
                float(best.alpha[1]),
                float(theta_hat[0]),
                float(theta_hat[1]),
            ),
        }

    def check(self, i: int, kept: dict) -> Check:
        c = Check()
        y = self.ys[i % self.POOL]
        points, values = kept["points"], kept["values"]
        n_grid = len(self.grid)
        c.expect(
            len(points) >= n_grid and np.array_equal(points[:n_grid], self.grid),
            "grid stage did not score the ordered 41x41 grid in order",
        )
        if self._grid_designs is None:
            self._grid_designs = ref.Designs.factor(ref.exp_abs_basis(self.X, self.grid))
        stages = [(self._grid_designs, values[:n_grid])]
        if len(points) > n_grid:
            stages.append(
                (ref.Designs.factor(ref.exp_abs_basis(self.X, points[n_grid:])), values[n_grid:])
            )
        for designs, vals in stages:
            c.expect(
                np.array_equal(np.isneginf(vals), designs.degenerate),
                "degenerate (-inf) trace entries differ from the reference rank decision",
            )
            admitted = ~designs.degenerate & np.isfinite(vals)
            _, rss = designs.solve(y)
            log_s = designs.log_area(rss, self.SIGMA_E2)
            err = c.compare(
                "trace log S",
                vals[admitted],
                log_s[admitted],
                designs.log_area_tolerance(ref.NORMAL_EQUATIONS_FACTOR)[admitted],
            )
            c.count_log_area(err, designs.cond[admitted])
        grid_max = float(np.max(values[:n_grid]))
        c.expect(kept["best_value"] >= grid_max, "refine returned worse than the grid maximum")
        c.expect(kept["best_value"] == float(np.max(values)), "best value is not the trace maximum")
        _, a0, a1, t0, t1 = kept["row"]
        best = ref.Designs.factor(ref.exp_abs_basis(self.X, np.array([[a0, a1]])))
        theta, _ = best.solve(y)
        c.compare_rows(
            "theta_hat",
            np.array([t0, t1]),
            theta[0],
            best.log_area_tolerance(ref.NORMAL_EQUATIONS_FACTOR)[0],
        )
        return c


class EvidenceLargeN:
    """One op scores one model under an isotropic Gaussian prior at N=2000.

    gaussian-rbf with M=8: log Z, the dual-route posterior, the dual-route
    predictive at one point and a 4-rung diffuse ladder.  The time is in
    gaussian_prior's N x N factorizations (32 MB each); model work is
    negligible and selection is not used.
    """

    name = "evidence-large-n"
    kernel = "blas"
    accuracy = ref.EVIDENCE_ACCURACY
    N, M = 2000, 8
    X = np.linspace(0.0, 10.0, N)
    SIGMA_E2 = 0.09
    SIGMA_P2 = 1.0
    LADDER = (0.1, 1.0, 10.0, 100.0)
    MODELS = 32

    def __init__(self, seed: int):
        rng = _stream(seed, 2)
        amp = rng.uniform(0.5, 1.5, 3)
        freq = rng.uniform(0.5, 2.0, 3)
        phase = rng.uniform(0.0, 2.0 * math.pi, 3)
        truth = np.sin(self.X[:, None] * freq + phase) @ amp
        self.y = truth + rng.normal(0.0, math.sqrt(self.SIGMA_E2), self.N)
        self.centers = np.linspace(0.5, 9.5, self.M) + rng.uniform(-0.3, 0.3, (self.MODELS, self.M))
        self.widths = rng.uniform(0.8, 1.2, self.MODELS)
        self.x_star = rng.uniform(0.0, 10.0, self.MODELS)

    def digest(self) -> str:
        return _digest(self.X, self.y, self.centers, self.widths, self.x_star)

    def setup(self) -> None:
        self.dataset = Dataset(inputs=self.X[:, None], outputs=self.y)
        self.keep(0, self.op(0))

    def op(self, i: int):
        k = i % self.MODELS
        family = BasisFamily("gaussian-rbf", self.M, width=float(self.widths[k]))
        design = model.build_design_matrix(self.dataset, family, self.centers[k])
        prior = gaussian_prior.isotropic_prior(self.M, self.SIGMA_P2)
        log_z = gaussian_prior.log_marginal_likelihood(self.y, design, self.SIGMA_E2, prior)
        post = gaussian_prior.posterior_coefficients(self.y, design, self.SIGMA_E2, prior)
        pred = gaussian_prior.predict_at(
            self.x_star[k], family, self.centers[k], post,
            design=design, sigma_e2=self.SIGMA_E2, prior=prior,
        )
        ladder = gaussian_prior.diffuse_limit_decomposition(
            self.y, design, self.SIGMA_E2, self.LADDER
        )
        return log_z, post, pred, ladder

    def keep(self, i: int, out) -> dict:
        log_z, post, pred, ladder = out
        return {
            "log_z": log_z.log_value,
            "mean": post.mean,
            "cov": post.cov,
            "pred": pred,
            "ladder": np.array([tuple(p) for p in ladder]),
        }

    def check(self, i: int, kept: dict) -> Check:
        c = Check()
        k = i % self.MODELS
        phi = ref.rbf_basis(self.X, self.centers[k], self.widths[k])
        ev = ref.gaussian_evidence(phi, self.y, self.SIGMA_E2, self.SIGMA_P2)
        tol = ref.SCORE_RTOL
        c.compare("log Z", kept["log_z"], ev.log_z, tol)
        c.compare_rows("posterior mean", kept["mean"], ev.mean, tol)
        c.compare_rows("posterior cov", kept["cov"].ravel(), ev.cov.ravel(), tol)
        row = ref.rbf_basis(np.array([self.x_star[k]]), self.centers[k], self.widths[k])[0]
        c.compare("predictive", np.array(kept["pred"]), [row @ ev.mean, row @ ev.cov @ row], tol)
        ladder = kept["ladder"]
        c.expect(ladder.shape == (len(self.LADDER), 4), "ladder has the wrong number of rungs")
        for rung, s in zip(ladder, self.LADDER):
            ev_s = ref.gaussian_evidence(phi, self.y, self.SIGMA_E2, s)
            c.compare(f"ladder rung {s:g}", rung[1:], [ev_s.log_z, ev_s.part1, ev_s.part2], tol)
        return c


class HyperGrid:
    """One op is one dataset's full-Bayes analysis at N=400, gaussian-rbf M=2.

    ``build_hyper_posterior`` on a 21x21x8 (alpha0, alpha1, sigma_e2) grid,
    unordered, so the 21 equal-center pairs make 168 degenerate points; then
    2000x20 joint draws, the grid-averaged log likelihood at the MAP
    coefficients, and the profile likelihood on the 21x21 center grid.
    Shares model and improper_prior with recovery-study, but also stores a
    posterior per grid point.  Datasets are noisy replicates of one fixed
    two-center truth, so every op does comparable work.
    """

    name = "hyper-grid"
    kernel = "interpreter"
    accuracy = ref.LOG_S_ACCURACY
    N = 400
    X = np.linspace(-5.0, 5.0, N)
    WIDTH = 1.0
    CENTERS = np.array([-1.5, 2.0])
    THETA = np.array([1.5, -1.2])
    SIGMA_E2 = 0.25
    ALPHA_AXIS = np.linspace(-5.0, 5.0, 21)
    SIGMA_AXIS = np.geomspace(0.1, 0.6, 8)
    NAMES = ("alpha0", "alpha1", "sigma_e2")
    N_OUTER, N_INNER = 2000, 20
    DATASETS = 32

    def __init__(self, seed: int):
        rng = _stream(seed, 3)
        truth = ref.rbf_basis(self.X, self.CENTERS, self.WIDTH) @ self.THETA
        self.ys = truth + rng.normal(0.0, math.sqrt(self.SIGMA_E2), (self.DATASETS, self.N))
        self.sample_seeds = rng.integers(0, 2**31, self.DATASETS)
        self.points = np.array(
            list(itertools.product(self.ALPHA_AXIS, self.ALPHA_AXIS, self.SIGMA_AXIS))
        )
        self.pairs = np.array(list(itertools.product(self.ALPHA_AXIS, self.ALPHA_AXIS)))
        self._designs: ref.Designs | None = None

    def digest(self) -> str:
        return _digest(self.X, self.ys, self.sample_seeds, self.points)

    def setup(self) -> None:
        self.family = BasisFamily("gaussian-rbf", 2, width=self.WIDTH)
        self.profile_fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=self.SIGMA_E2)
        self.keep(0, self.op(0))

    def op(self, i: int):
        k = i % self.DATASETS
        dataset = Dataset(inputs=self.X[:, None], outputs=self.ys[k])
        grid = full_bayes.build_hyper_posterior(dataset, self.family, self.points, names=self.NAMES)
        eta, theta = full_bayes.sample_posterior(
            grid, self.N_OUTER, self.N_INNER, int(self.sample_seeds[k])
        )
        theta_map = grid.posteriors[int(np.argmax(grid.probs))].mean
        avg = full_bayes.averaged_model_loglik(grid, dataset, self.family, theta_map)
        prof = selection.profile_likelihood(
            dataset, self.family, self.pairs, fixed=self.profile_fixed, names=self.NAMES[:2]
        )
        return grid, eta, theta, theta_map, avg, prof

    def keep(self, i: int, out) -> dict:
        grid, eta, theta, theta_map, avg, prof = out
        nan2 = np.full(2, np.nan)
        return {
            "log_weights": grid.log_weights,
            "failed": grid.failed,
            "probs": grid.probs,
            "post_mean": np.array([p.mean if p is not None else nan2 for p in grid.posteriors]),
            "post_var": np.array(
                [np.diag(p.cov) if p is not None else nan2 for p in grid.posteriors]
            ),
            "eta": eta,
            "theta_mean": theta.reshape(-1, theta.shape[-1]).mean(axis=0),
            "theta_finite": bool(np.all(np.isfinite(theta))),
            "theta_shape": theta.shape,
            "theta_map": theta_map,
            "avg": avg,
            "prof": (prof.log_values, prof.failed, prof.normalized, prof.log_max),
        }

    def check(self, i: int, kept: dict) -> Check:
        c = Check()
        y = self.ys[i % self.DATASETS]
        if self._designs is None:
            self._designs = ref.Designs.factor(ref.rbf_basis(self.X, self.pairs, self.WIDTH))
        d = self._designs
        theta_ls, rss = d.solve(y)
        pair = np.arange(len(self.points)) // len(self.SIGMA_AXIS)
        sigma = self.points[:, 2]
        degenerate = d.degenerate[pair]

        # hyper-posterior log weights: log S through the QR route
        c.expect(
            np.array_equal(kept["failed"], degenerate),
            "failed points differ from the reference rank decision",
        )
        ok = ~degenerate & ~kept["failed"]
        lw_ref = np.where(degenerate, -np.inf, d.log_area(rss[pair], sigma, pair))
        tol_pair = d.log_area_tolerance(ref.NORMAL_EQUATIONS_FACTOR)
        err = c.compare("log weights", kept["log_weights"][ok], lw_ref[ok], tol_pair[pair][ok])
        c.count_log_area(err, d.cond[pair][ok])
        probs_ref = np.where(degenerate, 0.0, np.exp(lw_ref - ref.logsumexp(lw_ref[~degenerate])))
        c.expect(
            np.max(np.abs(kept["probs"] - probs_ref)) <= ref.SCORE_RTOL,
            "grid probabilities differ from the reference",
        )

        # cached flat posteriors
        c.compare_rows(
            "posterior means", kept["post_mean"][ok], theta_ls[pair][ok], tol_pair[pair][ok]
        )
        r_inv = np.linalg.inv(d.r[~d.degenerate])
        var_pair = np.full((len(self.pairs), 2), np.nan)
        var_pair[~d.degenerate] = np.sum(r_inv**2, axis=-1)
        c.compare(
            "posterior variances",
            kept["post_var"][ok],
            var_pair[pair][ok] * sigma[ok, None],
            tol_pair[pair][ok, None],
        )

        # joint draws: grid points with mass, coefficients centred on the mixture mean
        index = {tuple(p): j for j, p in enumerate(self.points)}
        drawn = np.array([index.get(tuple(e), -1) for e in kept["eta"]])
        c.expect(
            bool(np.all(drawn >= 0)) and bool(np.all(probs_ref[drawn] > 0)),
            "eta draws off the grid or on zero-mass points",
        )
        c.expect(
            kept["theta_finite"] and kept["theta_shape"] == (self.N_OUTER, self.N_INNER, 2),
            "theta draws malformed",
        )
        p = probs_ref[ok]
        means = theta_ls[pair][ok]
        mix_mean = p @ means
        second = p @ (var_pair[pair][ok] * sigma[ok, None] + means**2)
        # the mixture variance over N_OUTER bounds the variance of the mean of
        # all draws; six standard errors make a false alarm ~1e-9 likely
        se = np.sqrt(np.maximum(second - mix_mean**2, 0.0) / self.N_OUTER)
        c.expect(
            bool(np.all(np.abs(kept["theta_mean"] - mix_mean) <= 6.0 * se + 1e-12)),
            "theta draws far from the mixture mean",
        )

        # grid-averaged log likelihood at theta_map
        phi = ref.rbf_basis(self.X, self.pairs, self.WIDTH)
        res = y - np.einsum("knm,m->kn", phi, kept["theta_map"])
        rss_map = np.einsum("kn,kn->k", res, res)[pair]
        ll = -0.5 * self.N * np.log(2.0 * math.pi * sigma) - rss_map / (2.0 * sigma)
        use = probs_ref > 0
        c.compare(
            "averaged log likelihood",
            kept["avg"],
            ref.logsumexp(np.log(probs_ref[use]) + ll[use]),
            ref.SCORE_RTOL,
        )

        # profile likelihood on the center grid at the fixed noise variance
        log_values, failed, normalized, log_max = kept["prof"]
        c.expect(
            np.array_equal(failed, d.degenerate),
            "profile failures differ from the reference rank decision",
        )
        okp = ~d.degenerate & ~failed
        prof_ref = (
            -0.5 * self.N * math.log(2.0 * math.pi * self.SIGMA_E2)
            - rss / (2.0 * self.SIGMA_E2)
        )
        c.compare(
            "profile log values",
            log_values[okp],
            prof_ref[okp],
            tol_pair[okp],
        )
        c.expect(
            log_max >= float(np.max(log_values[okp])) and bool(np.all(normalized <= 1.0)),
            "profile normalization above 1",
        )
        return c


WORKLOADS = {w.name: w for w in (RecoveryStudy, EvidenceLargeN, HyperGrid)}
