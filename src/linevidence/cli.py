"""Command-line experiment drivers.

Subcommands: ``table2`` (noise-variance estimator comparison), ``asymptote``
(diffuse-prior ladder), ``example2`` (two-center recovery study), ``verify``
(oracle cross-check suite).  Every emitted file starts with a metadata header
and is byte-identical across reruns with the same configuration.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, gaussian_prior, improper_prior, oracles
from .exceptions import DegenerateFitWarning
from .model import (
    BasisFamily,
    Dataset,
    HyperParams,
    build_design_matrix,
    ml_estimate,
)
from .selection import OptimizerConfig, empirical_bayes_optimize

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1

_TABLE2_HALF_SPANS = (0, 1, 2, 3)

_EX2_N = 200
_EX2_X = np.linspace(-10.0, 10.0, _EX2_N)
_EX2_THETA = np.array([2.0, -5.0])
_EX2_ALPHA = np.array([-4.0, 6.0])
_EX2_SIGMA2 = 0.5
_EX2_FAMILY = BasisFamily("exponential-abs", 2)


def _int_at_least(low: int):
    """An argparse ``type`` for integers of at least ``low``."""

    # argparse names this function in its message for text int() rejects
    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return count


def _fmt_cell(value) -> str:
    # numpy scalars repr as np.float64(...); coerce so cells stay plain
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _write_table(path: Path, meta: dict, columns: list[str], rows: list[list]) -> None:
    if path.suffix == ".json":
        payload = {"meta": meta, "columns": columns, "rows": rows}
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return
    with path.open("w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _meta(experiment: str, seed: int | None = None, **extra) -> dict:
    meta = {
        "experiment": experiment,
        "seed": seed if seed is not None else "none",
        "version": __version__,
    }
    meta.update(extra)
    return meta


def _out_path(args: argparse.Namespace, stem: str) -> Path:
    return args.out / f"{stem}.{args.fmt}"


def cmd_table2(args: argparse.Namespace) -> int:
    """Biased ML noise variance vs the likelihood-area maximizer on +-c data."""
    family = BasisFamily("constant", 1)
    search = OptimizerConfig(
        bounds={"sigma_e2": (1e-6, 100.0)},
        grid_points=201,
        tolerance=1e-3,
    )
    rows = []
    for c in _TABLE2_HALF_SPANS:
        y = np.array([-float(c), float(c)])
        dataset = Dataset(inputs=[[-1.0], [1.0]], outputs=y)
        design = build_design_matrix(dataset, family, [])
        _, sigma2_ml = ml_estimate(y, design)
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        best, _, _ = empirical_bayes_optimize(dataset, family, "log_area", search, fixed)
        if improper_prior._zero_residual(y, sigma2_ml * design.n):
            warnings.warn(
                f"c={c}: residual is zero, area maximizer pinned at the lower bound",
                DegenerateFitWarning,
                stacklevel=2,
            )
        rows.append([c, float(sigma2_ml), float(best.sigma_e2)])
    path = _out_path(args, "table2")
    _write_table(path, _meta("table2"), ["c", "sigma2_ml", "sigma2_area"], rows)
    print("c  sigma2_ml  sigma2_area")
    for c, ml, area in rows:
        print(f"{c}  {ml:9.6f}  {area:11.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_asymptote(args: argparse.Namespace) -> int:
    """log Z along a widening isotropic prior, split into its two parts."""
    y = np.array([-2.0, 2.0])
    dataset = Dataset(inputs=[[-1.0], [1.0]], outputs=y)
    family = BasisFamily("constant", 1)
    design = build_design_matrix(dataset, family, [])
    sigma_p = np.logspace(-1.0, 6.0, 141)
    ladder = sigma_p**2
    series_1 = gaussian_prior.diffuse_limit_decomposition(
        y, design, 1.0, ladder, prior_mean=2.0
    )
    series_2 = gaussian_prior.diffuse_limit_decomposition(
        y, design, 16.0, ladder, prior_mean=2.0
    )
    log_s = improper_prior.log_area_under_likelihood(y, design, 1.0).log_value
    rows = []
    for sp, p1, p2 in zip(sigma_p, series_1, series_2):
        rows.append(
            [
                float(sp),
                p1.sigma_p2,
                p1.log_z,
                p1.part1,
                p1.part2,
                float(log_s),
                p2.log_z,
                p1.log_z - p2.log_z,
            ]
        )
    path = _out_path(args, "asymptote")
    columns = [
        "sigma_p",
        "sigma_p2",
        "log_Z",
        "part1",
        "part2",
        "log_S",
        "log_Z_alt",
        "log_Z_diff",
    ]
    _write_table(path, _meta("asymptote"), columns, rows)
    top = rows[-1]
    print(
        f"top of ladder (sigma_p={top[0]:g}): log_Z={top[2]:.3f}, "
        f"part1={top[3]:.6f}, part2={top[4]:.3f}, log_S={top[5]:.3f}"
    )
    print(f"wrote {path}")
    return EXIT_OK


def _example2_truth():
    dataset = Dataset(inputs=_EX2_X[:, None], outputs=np.zeros(_EX2_N))
    design = build_design_matrix(dataset, _EX2_FAMILY, _EX2_ALPHA)
    return design.phi @ _EX2_THETA


def _example2_replicate(args: tuple[int, int]) -> tuple[int, float, float, float, float]:
    seed, rep = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
    y = _example2_truth() + rng.normal(0.0, math.sqrt(_EX2_SIGMA2), _EX2_N)
    dataset = Dataset(inputs=_EX2_X[:, None], outputs=y)
    search = OptimizerConfig(
        bounds={"alpha0": (-10.0, 10.0), "alpha1": (-10.0, 10.0)},
        grid_points=41,
        ordering=(("alpha0", "alpha1"),),
        tolerance=1e-6,
        max_evals=400,
    )
    fixed = HyperParams(alpha=[0.0, 0.0], sigma_e2=_EX2_SIGMA2)
    best, _, _ = empirical_bayes_optimize(dataset, _EX2_FAMILY, "log_area", search, fixed)
    design = build_design_matrix(dataset, _EX2_FAMILY, best.alpha)
    theta_hat, _ = ml_estimate(y, design)
    return rep, float(best.alpha[0]), float(best.alpha[1]), float(theta_hat[0]), float(theta_hat[1])


def run_example2(runs: int, seed: int, jobs: int = 1) -> dict:
    """Run the replicated two-center recovery study; returns the summary dict."""
    tasks = [(seed, rep) for rep in range(runs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_example2_replicate, tasks, chunksize=8))
    else:
        results = [_example2_replicate(t) for t in tasks]
    results.sort(key=lambda item: item[0])
    table = np.asarray([row[1:] for row in results])
    alpha_err = table[:, 0:2] - _EX2_ALPHA[None, :]
    theta_err = table[:, 2:4] - _EX2_THETA[None, :]
    return {
        "runs": runs,
        "seed": seed,
        "mse_theta": float(np.mean(theta_err**2)),
        "mse_alpha": float(np.mean(alpha_err**2)),
        "mse_theta_sum": float(np.mean(np.sum(theta_err**2, axis=1))),
        "mse_alpha_sum": float(np.mean(np.sum(alpha_err**2, axis=1))),
        "alpha_bias": [float(b) for b in alpha_err.mean(axis=0)],
        "alpha_var": [float(v) for v in alpha_err.var(axis=0, ddof=1)],
        "alpha_se": [float(s) for s in alpha_err.std(axis=0, ddof=1) / math.sqrt(runs)],
        "replicates": results,
    }


def cmd_example2(args: argparse.Namespace) -> int:
    summary = run_example2(args.runs, args.seed, args.jobs)
    rep_rows = [list(row) for row in summary.pop("replicates")]
    rep_path = _out_path(args, "example2_replicates")
    _write_table(
        rep_path,
        _meta("example2", args.seed, runs=args.runs),
        ["rep", "alpha1_hat", "alpha2_hat", "theta1_hat", "theta2_hat"],
        rep_rows,
    )
    sum_path = _out_path(args, "example2_summary")
    sum_columns = list(summary.keys())
    _write_table(
        sum_path,
        _meta("example2", args.seed, runs=args.runs),
        sum_columns,
        [[json.dumps(summary[k]) if isinstance(summary[k], list) else summary[k] for k in sum_columns]],
    )
    print(
        f"runs={summary['runs']}  mse_theta={summary['mse_theta']:.4f}  "
        f"mse_alpha={summary['mse_alpha']:.4f}  "
        f"var(alpha1)={summary['alpha_var'][0]:.4g}  var(alpha2)={summary['alpha_var'][1]:.4g}"
    )
    print(f"wrote {rep_path} and {sum_path}")
    return EXIT_OK


def _verify_checks(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def record(name: str, fn) -> None:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def check_quadrature():
        worst = 0.0
        for _ in range(5):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, 3))
            y_vec = rng.normal(size=n)
            dataset = Dataset(inputs=np.linspace(-1, 1, n)[:, None], outputs=y_vec)
            design = build_design_matrix(dataset, BasisFamily("polynomial", m), [])
            sigma2 = float(rng.uniform(0.4, 2.5))
            closed = improper_prior.log_area_under_likelihood(y_vec, design, sigma2).log_value
            approx = oracles.quadrature_log_area(
                y_vec, design, sigma2, oracles.QuadratureSpec(nodes_per_dim=401)
            )
            gap = abs(closed - approx) / max(abs(closed), abs(approx), 1.0)
            worst = max(worst, gap)
            if gap > 1e-6:
                return False, f"relative gap {gap:.3e} exceeds 1e-6"
        return True, f"worst relative gap {worst:.3e}"

    def check_monte_carlo():
        for _ in range(2):
            n, m = 5, 2
            y_vec = rng.normal(size=n)
            dataset = Dataset(inputs=np.linspace(-1, 1, n)[:, None], outputs=y_vec)
            design = build_design_matrix(dataset, BasisFamily("polynomial", m), [])
            sigma2 = 0.8
            prior = gaussian_prior.isotropic_prior(m, 1.3, 0.2)
            closed = gaussian_prior.log_marginal_likelihood(
                y_vec, design, sigma2, prior
            ).log_value
            approx, se = oracles.monte_carlo_log_marginal(
                y_vec, design, sigma2, prior, 200_000, int(rng.integers(2**31))
            )
            if abs(closed - approx) > 3.0 * se:
                return False, f"|{closed:.6f} - {approx:.6f}| > 3 x {se:.2e}"
        return True, "closed form within 3 standard errors"

    def check_dual_route():
        for _ in range(10):
            n = int(rng.integers(3, 10))
            m = int(rng.integers(1, min(n, 4)))
            y_vec = rng.normal(size=n)
            dataset = Dataset(inputs=np.linspace(-1, 1, n)[:, None], outputs=y_vec)
            design = build_design_matrix(dataset, BasisFamily("polynomial", m), [])
            prior = gaussian_prior.isotropic_prior(m, float(rng.uniform(0.2, 5.0)), 0.5)
            gaussian_prior.posterior_coefficients(
                y_vec, design, float(rng.uniform(0.3, 2.0)), prior
            )
        return True, "augmented-QR and M x M Cholesky posterior routes agree"

    def check_smoothing():
        for _ in range(10):
            n = int(rng.integers(3, 12))
            m = int(rng.integers(1, min(n, 4)))
            y_vec = rng.normal(size=n)
            dataset = Dataset(inputs=np.linspace(-1, 1, n)[:, None], outputs=y_vec)
            design = build_design_matrix(dataset, BasisFamily("polynomial", m), [])
            improper_prior.smooth(y_vec, design, 1.0)
        return True, "projection identities hold"

    def check_unbiasedness():
        n, m, sigma2 = 20, 3, 0.5
        dataset = Dataset(inputs=np.linspace(-1, 1, n)[:, None], outputs=np.zeros(n))
        design = build_design_matrix(dataset, BasisFamily("polynomial", m), [])
        stats = oracles.resampling_estimator_stats(
            design, np.array([1.0, -2.0, 0.5]), sigma2, 3000, int(rng.integers(2**31))
        )
        se_unb = math.sqrt(stats.sigma2_unbiased_var / stats.n_reps)
        se_ml = math.sqrt(stats.sigma2_ml_var / stats.n_reps)
        expected_ml = (n - m) / n * sigma2
        if abs(stats.sigma2_unbiased_mean - sigma2) > 3 * se_unb:
            return False, "divisor N-M estimator mean off by more than 3 se"
        if abs(stats.sigma2_ml_mean - expected_ml) > 3 * se_ml:
            return False, "divisor N estimator mean off by more than 3 se"
        return (
            True,
            f"mean(unbiased)={stats.sigma2_unbiased_mean:.4f}, "
            f"mean(ml)={stats.sigma2_ml_mean:.4f}",
        )

    def check_ladder():
        y_vec = np.array([-2.0, 2.0])
        dataset = Dataset(inputs=[[-1.0], [1.0]], outputs=y_vec)
        design = build_design_matrix(dataset, BasisFamily("constant", 1), [])
        gaussian_prior.diffuse_limit_decomposition(
            y_vec, design, 1.0, np.logspace(-2, 12, 60), prior_mean=2.0
        )
        return True, "augmented-QR and Cholesky routes agree on every rung"

    record("quadrature_vs_closed_form_area", check_quadrature)
    record("monte_carlo_vs_closed_form_marginal", check_monte_carlo)
    record("posterior_dual_route", check_dual_route)
    record("smoothing_identities", check_smoothing)
    record("noise_variance_unbiasedness", check_unbiasedness)
    record("diffuse_ladder_cross_check", check_ladder)
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    checks = _verify_checks(args.seed)
    all_passed = all(c["passed"] for c in checks)
    report = {
        "meta": _meta("verify", args.seed),
        "passed": all_passed,
        "checks": checks,
    }
    path = args.out / "verify_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']}: {check['detail']}")
    print(f"wrote {path}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="linevidence",
        description="Experiment drivers for evidence-style scores in linear regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=".", help="output directory (default: current)")
    common.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default="csv",
        help="output file format",
    )
    p_t2 = sub.add_parser("table2", parents=[common], help="noise-variance estimator table")
    p_t2.set_defaults(run=cmd_table2)
    p_asy = sub.add_parser("asymptote", parents=[common], help="diffuse-prior evidence ladder")
    p_asy.set_defaults(run=cmd_asymptote)
    p_ex2 = sub.add_parser("example2", parents=[common], help="two-center recovery study")
    p_ex2.add_argument(
        "--runs", type=_int_at_least(2), required=True,
        help="number of replicates (at least 2, for a sample variance)",
    )
    p_ex2.add_argument("--seed", type=int, required=True, help="base random seed")
    p_ex2.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes")
    p_ex2.set_defaults(run=cmd_example2)
    p_ver = sub.add_parser("verify", parents=[common], help="oracle cross-check suite")
    p_ver.add_argument("--seed", type=int, default=20250811, help="random seed")
    p_ver.set_defaults(run=cmd_verify)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    return args.run(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
