"""The acceptance criteria as measurements, shared by the tests and ``verify``.

Each function runs one criterion of ``tests/test_acceptance.py`` on its
acceptance data and returns raw measurements (worst gaps, standard-error
multiples, counts), never a verdict: the tests hold the tolerances and time
budgets, and ``linevidence verify`` states each tolerance beside its
measurement.  Criterion 5, the 500-replicate recovery study, runs in the
tests alone.  The scores under test are looked up through their modules at
call time, so a fault planted in a module is what the claims measure.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import linalg

from . import gaussian_prior, improper_prior, oracles
from .model import BasisFamily, Dataset, HyperParams, build_design_matrix, ml_estimate
from .selection import ModelScore, OptimizerConfig, bma_weights, empirical_bayes_optimize

TABLE2_HALF_SPANS = (0, 1, 2, 3)


def _poly_instance(rng, n_max, m_max):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, min(n - 1, m_max) + 1))
    x = np.linspace(-1.0, 1.0, n)
    y = rng.normal(size=n)
    ds = Dataset(inputs=x[:, None], outputs=y)
    design = build_design_matrix(ds, BasisFamily("polynomial", m), [])
    return y, design


def noise_variance_table() -> dict:
    """Criterion 1: the divisor-N noise variance against the likelihood-area
    maximizer on the two-point data ``y = (-c, c)``.

    The residual sum of squares is ``2 c^2``, so the divisor N = 2 gives
    ``c^2`` and the maximizer of S, the divisor N - M = 1, gives ``2 c^2``;
    ``ml_gap`` and ``area_gap`` are the worst distances from them.
    ``zero_residual_spans`` lists each c whose residual is zero (c = 0): there
    S has no interior maximum, so its maximizer is the search's lower bound.
    """
    family = BasisFamily("constant", 1)
    search = OptimizerConfig(
        bounds={"sigma_e2": (1e-6, 100.0)},
        grid_points=201,
        tolerance=1e-3,
    )
    sigma2_ml, sigma2_area, zero_residual_spans = [], [], []
    for c in TABLE2_HALF_SPANS:
        y = np.array([-float(c), float(c)])
        dataset = Dataset(inputs=[[-1.0], [1.0]], outputs=y)
        design = build_design_matrix(dataset, family, [])
        _, ml = ml_estimate(y, design)
        fixed = HyperParams(alpha=[], sigma_e2=1.0)
        best, _, _ = empirical_bayes_optimize(dataset, family, "log_area", search, fixed)
        if improper_prior._zero_residual(y, ml * design.n):
            zero_residual_spans.append(c)
        sigma2_ml.append(float(ml))
        sigma2_area.append(float(best.sigma_e2))
    return {
        "sigma2_ml": sigma2_ml,
        "sigma2_area": sigma2_area,
        "ml_gap": max(abs(v - c * c) for v, c in zip(sigma2_ml, TABLE2_HALF_SPANS)),
        "area_gap": max(abs(v - 2 * c * c) for v, c in zip(sigma2_area, TABLE2_HALF_SPANS)),
        "zero_residual_spans": zero_residual_spans,
    }


def area_vs_quadrature(seed: int) -> dict:
    """Criterion 2: closed-form log S against tensor quadrature on 20 instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        y, design = _poly_instance(rng, n_max=10, m_max=2)
        sigma2 = float(rng.uniform(0.3, 2.5))
        closed = improper_prior.log_area_under_likelihood(y, design, sigma2).log_value
        approx = oracles.quadrature_log_area(y, design, sigma2)
        worst = max(worst, abs(closed - approx) / max(abs(closed), abs(approx), 1.0))
    return {"worst_rel_gap": worst}


def evidence_vs_monte_carlo(seed: int) -> dict:
    """Criterion 3: closed-form log Z against 1e6 prior draws on 10 instances,
    as the worst gap in Monte Carlo standard errors."""
    rng = np.random.default_rng(seed)
    worst_sigmas = 0.0
    for _ in range(10):
        y, design = _poly_instance(rng, n_max=6, m_max=3)
        sigma2 = float(rng.uniform(0.4, 2.0))
        prior = gaussian_prior.isotropic_prior(design.m, float(rng.uniform(0.5, 3.0)), 0.3)
        closed = gaussian_prior.log_marginal_likelihood(y, design, sigma2, prior).log_value
        approx, se = oracles.monte_carlo_log_marginal(
            y, design, sigma2, prior, 1_000_000, seed=int(rng.integers(2**31))
        )
        worst_sigmas = max(worst_sigmas, abs(closed - approx) / se)
    return {"worst_se_multiple": worst_sigmas}


def diffuse_ladder():
    """Criterion 4's data, also the ``asymptote`` table: ``y = (-2, 2)`` on a
    constant design, log Z at sigma_e2 = 1 and 16 under a prior of mean 2
    and scales sigma_p from 0.1 to 1e6, and log S at sigma_e2 = 1."""
    y = np.array([-2.0, 2.0])
    ds = Dataset(inputs=[[-1.0], [1.0]], outputs=y)
    design = build_design_matrix(ds, BasisFamily("constant", 1), [])
    sigma_p = np.logspace(-1.0, 6.0, 141)
    series_1, series_16 = (
        gaussian_prior.diffuse_limit_decomposition(y, design, s, sigma_p**2, prior_mean=2.0)
        for s in (1.0, 16.0)
    )
    log_s = improper_prior.log_area_under_likelihood(y, design, 1.0).log_value
    return y, design, sigma_p, series_1, series_16, log_s


def diffuse_prior_asymptotics() -> dict:
    """Criterion 4: log Z along the widening prior of :func:`diffuse_ladder`
    does not approach log S.

    Measured: the steps from sigma_p2 = 100 on where log Z fails to fall; how
    far the top rung's log Z stays below log S; the top rung's distance from
    the flat-prior fitting term 4; the steps where part2 fails to grow; how
    well the large-scale form of part2 inverts at an attainable rung and
    meets a fixed bound of 1e3; and the largest step of the log Z gap between
    the noise levels 1 and 16 over the last four decades of the ladder.
    """
    y, design, _, series_1, series_16, log_s = diffuse_ladder()
    tail = [r for r in series_1 if r.sigma_p2 >= 100.0]
    log_z = [r.log_z for r in tail]
    part2 = [r.part2 for r in series_1]
    # the volume term passes any fixed bound: solve for the scale where it
    # reaches 1e3 and confirm the growth law at an attainable rung
    crossing = gaussian_prior.penalty_crossing_scale(design, 1.0, 1e3)
    rung = gaussian_prior.diffuse_limit_decomposition(y, design, 1.0, [1e12])[0]
    crossing_known = gaussian_prior.penalty_crossing_scale(design, 1.0, rung.part2)
    bound = 0.5 * (crossing + math.log(design.gram[0, 0]))
    # the gap between the two noise levels decays like 1/sigma_p2, so its
    # successive differences only drop under 1e-3 from sigma_p ~ 30 on
    diffs = [a.log_z - b.log_z for a, b in zip(series_1, series_16) if a.sigma_p2 >= 1e4]
    return {
        "log_z_not_falling": sum(b >= a for a, b in zip(log_z, log_z[1:])),
        "log_s_margin": log_s - series_1[-1].log_z,
        "part1_gap": abs(tail[-1].part1 - 4.0),
        "part2_not_growing": sum(b <= a for a, b in zip(part2, part2[1:])),
        "crossing": crossing,
        "inversion_gap": abs(crossing_known - math.log(1e12)),
        "bound_rel_gap": abs(bound - 1e3) / max(abs(bound), 1e3),
        "gap_step": max(abs(b - a) for a, b in zip(diffs, diffs[1:])),
    }


def estimator_unbiasedness(seed: int) -> dict:
    """Criterion 6: the two noise-variance estimators and the flat posterior
    covariance over 10 000 resamples of a fixed three-column polynomial design.

    Measured: each estimator's mean from its target in standard errors; the
    package's :func:`unbiased_noise_variance` on the oracle's own draws,
    regenerated from ``seed``, against the oracle's mean; and the flat
    posterior covariance against the refitted coefficients' sample
    covariance, entry by entry, in standard errors.
    """
    n, m, sigma2 = 20, 3, 0.5
    x = np.linspace(-1.0, 1.0, n)
    ds = Dataset(inputs=x[:, None], outputs=np.zeros(n))
    design = build_design_matrix(ds, BasisFamily("polynomial", m), [])
    theta, reps = np.array([1.0, -2.0, 0.5]), 10_000
    stats = oracles.resampling_estimator_stats(design, theta, sigma2, reps, seed=seed)
    se_unb = math.sqrt(stats.sigma2_unbiased_var / stats.n_reps)
    se_ml = math.sqrt(stats.sigma2_ml_var / stats.n_reps)
    target_ml = (n - m) / n * sigma2
    noise = np.random.default_rng(seed).normal(0.0, math.sqrt(sigma2), size=(reps, n))
    ys = design.phi @ theta + noise
    package_mean = float(np.mean([improper_prior.unbiased_noise_variance(y, design) for y in ys]))
    cov = improper_prior.posterior_coefficients(design.phi @ theta, design, sigma2).cov
    var = np.diag(cov)
    se_cov = np.sqrt((np.outer(var, var) + cov**2) / (reps - 1))
    return {
        "unbiased_mean": stats.sigma2_unbiased_mean,
        "ml_mean": stats.sigma2_ml_mean,
        "unbiased_se_multiple": abs(stats.sigma2_unbiased_mean - sigma2) / se_unb,
        "ml_se_multiple": abs(stats.sigma2_ml_mean - target_ml) / se_ml,
        "package_gap": abs(package_mean / stats.sigma2_unbiased_mean - 1.0),
        "cov_se_multiple": float(np.max(np.abs(stats.theta_cov - cov) / se_cov)),
    }


def algebraic_identities(seed: int) -> dict:
    """Criterion 7: four identities, worst over 100 random instances.

    ``route_gap``: the Gaussian-prior posterior mean against its data-space
    form.  ``energy_gap``: ``||y - f_hat||^2 = y^T y - f_hat^T f_hat`` for the
    flat-prior fit.  ``shift_gap``: averaging weights under a common offset of
    the scores.  ``orth_gap``: the residual against every basis column.
    """
    rng = np.random.default_rng(seed)
    worst_route = worst_energy = worst_shift = worst_orth = 0.0
    for _ in range(100):
        y, design = _poly_instance(rng, n_max=12, m_max=3)
        sigma2 = float(rng.uniform(0.3, 2.0))
        prior = gaussian_prior.isotropic_prior(
            design.m, float(rng.uniform(0.2, 5.0)), float(rng.normal())
        )

        mean = gaussian_prior.posterior_coefficients(y, design, sigma2, prior).mean
        mean_nn = oracles.data_space_posterior_mean(y, design, sigma2, prior)
        gap = linalg.norm(mean - mean_nn) / max(linalg.norm(mean), 1e-300)
        worst_route = max(worst_route, gap)

        theta_hat, _ = ml_estimate(y, design)
        f_hat = design.phi @ theta_hat
        resid = y - f_hat
        scale = max(float(y @ y), 1.0)
        energy_gap = abs(float(resid @ resid) - (float(y @ y) - float(f_hat @ f_hat)))
        worst_energy = max(worst_energy, energy_gap / scale)

        logs = rng.normal(scale=5.0, size=4)
        scores = [ModelScore(str(i), float(v), "proper") for i, v in enumerate(logs)]
        shifted_scores = [
            ModelScore(str(i), float(v + 613.0), "proper") for i, v in enumerate(logs)
        ]
        shift_gap = float(np.max(np.abs(bma_weights(scores) - bma_weights(shifted_scores))))
        worst_shift = max(worst_shift, shift_gap)

        col_scale = float(np.max(np.linalg.norm(design.phi, axis=0)))
        orth = float(np.max(np.abs(design.phi.T @ resid)))
        worst_orth = max(worst_orth, orth / max(col_scale * linalg.norm(y), 1e-300))
    return {
        "route_gap": worst_route,
        "energy_gap": worst_energy,
        "shift_gap": worst_shift,
        "orth_gap": worst_orth,
    }
