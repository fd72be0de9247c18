"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports linevidence.  Every score is recomputed from the raw
inputs through a different factorization than the package uses: a thin QR
of the design (with one step of iterative refinement) for the flat-prior
area S, and a QR of the ridge-augmented design ``[Phi; (sigma_e/sigma_p) I]``
with the matrix determinant lemma for the Gaussian-prior evidence Z.  The
package instead forms ``Phi^T Phi`` and, for Z, the N x N output covariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)
LOG_2PI = math.log(2.0 * math.pi)

# The package's documented rank contract: a design is degenerate when its
# smallest Gram pivot (R_ii^2 here, in column order) falls below this share
# of the largest squared column norm.
RANK_RTOL = 1e-12

# Stated accuracy of each reference, as a relative error.  The QR log S
# route agrees with 50-digit mpmath to ~2e-11 on the example2 designs, whose
# entries span eight decades; the augmented-QR evidence route agrees with
# the package to ~1e-14 on well-conditioned designs.  A package score is
# never reported as more accurate than the reference that checks it.
LOG_S_ACCURACY = 1e-9
EVIDENCE_ACCURACY = 1e-12

# Check tolerances.  log S and the flat posterior are computed by the
# package through the normal equations, whose error grows as eps * cond^2;
# a score is wrong only when it misses by more than that bound allows
# (the worst seen, at cond(Phi) = 1.6e6, is 1.44 eps cond^2).  Scores that
# do not pass through an ill-conditioned Gram matrix (Gaussian-prior
# quantities, grid probabilities, the averaged likelihood) get a fixed
# relative tolerance.
NORMAL_EQUATIONS_FACTOR = 8.0
SCORE_RTOL = 1e-9
# An admitted log S is "inaccurate" when it misses the reference by more
# than a backward-stable QR route would: 64 * eps * cond(Phi).
QR_ROUTE_FACTOR = 64.0


def exp_abs_basis(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """exp(|x - c|) columns; ``centers`` of shape (M,) or (K, M)."""
    return np.exp(np.abs(x[..., :, None] - np.asarray(centers)[..., None, :]))


def rbf_basis(x: np.ndarray, centers: np.ndarray, width: float) -> np.ndarray:
    """exp(-(x - c)^2 / (2 width^2)) columns; ``centers`` of shape (M,) or (K, M)."""
    diff = x[..., :, None] - np.asarray(centers)[..., None, :]
    return np.exp(-0.5 * (diff / width) ** 2)


def rel_err(value, ref) -> np.ndarray:
    ref = np.asarray(ref, dtype=float)
    return np.abs(np.asarray(value, dtype=float) - ref) / np.maximum(np.abs(ref), 1e-300)


@dataclass
class Designs:
    """Thin QR factors of a stack of (N, M) designs."""

    phi: np.ndarray        # (K, N, M)
    q: np.ndarray          # (K, N, M)
    r: np.ndarray          # (K, M, M)
    degenerate: np.ndarray  # (K,) bool: fails the rank contract
    cond: np.ndarray       # (K,) 2-norm condition number of Phi
    log_det_gram: np.ndarray  # (K,) log det(Phi^T Phi), nan where degenerate

    @classmethod
    def factor(cls, phi: np.ndarray) -> "Designs":
        phi = np.asarray(phi, dtype=float)
        q, r = np.linalg.qr(phi)
        diag2 = np.abs(np.diagonal(r, axis1=-2, axis2=-1)) ** 2
        col2 = np.sum(phi**2, axis=-2)
        degenerate = diag2.min(axis=-1) < RANK_RTOL * col2.max(axis=-1)
        sv = np.linalg.svd(r, compute_uv=False)
        with np.errstate(divide="ignore"):
            cond = sv[..., 0] / sv[..., -1]
            log_det = np.sum(np.log(diag2), axis=-1)
        log_det[degenerate] = np.nan
        return cls(phi, q, r, degenerate, cond, log_det)

    def solve(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares coefficients and residual sum of squares.

        ``y`` is (N,) or (K, N).  Degenerate designs get nan.  One step of
        iterative refinement removes most of the error the wide dynamic
        range of exp-abs columns leaves in a single QR solve.
        """
        k, _, m = self.phi.shape
        y = np.broadcast_to(y, self.phi.shape[:2])
        ok = ~self.degenerate
        theta = np.full((k, m), np.nan)
        rss = np.full(k, np.nan)
        phi, q, r, yk = self.phi[ok], self.q[ok], self.r[ok], y[ok]
        th = np.linalg.solve(r, np.einsum("knm,kn->km", q, yk)[..., None])[..., 0]
        res = yk - np.einsum("knm,km->kn", phi, th)
        th = th + np.linalg.solve(r, np.einsum("knm,kn->km", q, res)[..., None])[..., 0]
        res = yk - np.einsum("knm,km->kn", phi, th)
        theta[ok] = th
        rss[ok] = np.einsum("kn,kn->k", res, res)
        return theta, rss

    def log_area(self, rss: np.ndarray, sigma_e2, pick=slice(None)) -> np.ndarray:
        """log S at noise variance ``sigma_e2``; ``rss`` belongs to designs ``pick``."""
        _, n, m = self.phi.shape
        sigma_e2 = np.asarray(sigma_e2, dtype=float)
        return -(
            rss / (2.0 * sigma_e2)
            + 0.5 * self.log_det_gram[pick]
            + 0.5 * (n - m) * np.log(2.0 * math.pi * sigma_e2)
        )

    def log_area_tolerance(self, factor: float) -> np.ndarray:
        """Relative tolerance of a normal-equations log S (``factor=NORMAL_EQUATIONS_FACTOR``)."""
        return np.maximum(LOG_S_ACCURACY, factor * EPS * self.cond**2)


@dataclass
class Evidence:
    """Gaussian-prior quantities under an isotropic N(mean 1, sigma_p2 I) prior."""

    log_z: float
    part1: float  # half the Mahalanobis norm of y - Phi mu_p
    part2: float  # half the log determinant of the output covariance
    mean: np.ndarray
    cov: np.ndarray


def gaussian_evidence(
    phi: np.ndarray, y: np.ndarray, sigma_e2: float, sigma_p2: float, prior_mean: float = 0.0
) -> Evidence:
    """log Z and the posterior through a QR of ``[Phi; (sigma_e/sigma_p) I]``.

    With A = Phi^T Phi + (sigma_e2/sigma_p2) I the determinant lemma gives
    log det(Phi Sigma Phi^T + sigma_e2 I) = (N-M) log sigma_e2 + M log sigma_p2
    + log det A, and the ridge least-squares solution beta gives the
    Mahalanobis norm (||y~ - Phi beta||^2 + (sigma_e2/sigma_p2) ||beta||^2) / sigma_e2.
    Cost is O(N M^2); no N x N matrix is formed.
    """
    n, m = phi.shape
    shifted = y - prior_mean * phi.sum(axis=1)
    lam = math.sqrt(sigma_e2 / sigma_p2)
    q, r = np.linalg.qr(np.vstack([phi, lam * np.eye(m)]))
    beta = scipy.linalg.solve_triangular(r, q[:n].T @ shifted)
    res = shifted - phi @ beta
    quad = (float(res @ res) + lam**2 * float(beta @ beta)) / sigma_e2
    log_det_s = (
        (n - m) * math.log(sigma_e2)
        + m * math.log(sigma_p2)
        + 2.0 * float(np.sum(np.log(np.abs(np.diag(r)))))
    )
    r_inv = scipy.linalg.solve_triangular(r, np.eye(m))
    part1, part2 = 0.5 * quad, 0.5 * log_det_s
    return Evidence(
        log_z=-(part1 + part2 + 0.5 * n * LOG_2PI),
        part1=part1,
        part2=part2,
        mean=prior_mean + beta,
        cov=sigma_e2 * (r_inv @ r_inv.T),
    )


def logsumexp(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    top = float(np.max(values))
    return top + math.log(float(np.sum(np.exp(values - top))))
