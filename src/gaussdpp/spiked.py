"""Detection and estimation of a rank-one spike in the scattering matrix.

The test statistic is 2*pi times the operator norm of the estimated
scattering matrix: it concentrates near 1 under the isotropic null and
near 1 + lambda under a spike of strength lambda.  Two thresholds are
supported: the analytic 1 + t * rate(n, d) form, and an empirical one
calibrated by simulating the null at the observed window.  Theory does
not pin the rate's universal constant c; the rate is taken with c = 1,
since a threshold with (t, c) equals one with (t c^(d+1), 1).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .estimator import estimate_scattering, risk_rate
from .kernel import TWO_PI, isotropic_scattering
from .patterns import BoxWindow
from .sampling import sample_gdp

SYMMETRY_RTOL = 1e-8


@dataclass(frozen=True)
class DetectionResult:
    statistic: float
    threshold: float
    reject: bool
    t: float | None  # None for a calibrated threshold, which has no t or rate
    rate: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpikeEstimate:
    u_hat: np.ndarray
    lambda_hat: float
    gap: float

    def to_json_dict(self) -> dict:
        return {"u_hat": self.u_hat.tolist(), "lambda_hat": self.lambda_hat,
                "gap": self.gap}


def _check_symmetric(sigma_hat) -> np.ndarray:
    a = np.asarray(sigma_hat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is asymmetric beyond tolerance")
    return 0.5 * (a + a.T)


def operator_norm(sigma_hat) -> float:
    """Largest eigenvalue magnitude of the symmetrized input."""
    a = _check_symmetric(sigma_hat)
    w = np.linalg.eigvalsh(a)
    return float(max(abs(w[0]), abs(w[-1])))


def detection_test(sigma_hat, n: float, d: int, t: float) -> DetectionResult:
    """Analytic spike test: reject iff 2*pi ||Sigma_hat||op > 1 + t * rate.

    With t = 1/delta the two error probabilities are at most delta once
    the spike strength exceeds twice the rate.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    stat = TWO_PI * operator_norm(sigma_hat)
    rate = risk_rate(n, d)
    threshold = 1.0 + t * rate
    return DetectionResult(statistic=stat, threshold=threshold,
                           reject=bool(stat > threshold), t=t, rate=rate)


def detection_test_calibrated(sigma_hat, threshold: float) -> DetectionResult:
    """Apply an empirically calibrated threshold (see calibrate_null_threshold)."""
    stat = TWO_PI * operator_norm(sigma_hat)
    return DetectionResult(statistic=stat, threshold=threshold,
                           reject=bool(stat > threshold), t=None, rate=None)


def _fix_sign(u: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(u) > 1e-12)[0]
    if nz.size and u[nz[0]] < 0:
        return -u
    return u


def estimate_spike(sigma_hat) -> SpikeEstimate:
    """Leading eigenvector of the (symmetrized) estimate, with its implied
    spike strength 2*pi*lambda_1 - 1 and the spectral gap lambda_1 - lambda_2.

    The eigenvector sign is fixed by making its first nonzero coordinate
    positive, so permutation-invariant recomputations agree exactly.
    lambda_hat is reported raw and may be negative.
    """
    a = _check_symmetric(sigma_hat)
    w, v = np.linalg.eigh(a)
    u_hat = _fix_sign(v[:, -1].copy())
    gap = float(w[-1] - w[-2]) if w.size > 1 else 0.0
    u_hat.setflags(write=False)
    return SpikeEstimate(u_hat=u_hat, lambda_hat=float(TWO_PI * w[-1] - 1.0),
                         gap=gap)


def sin_angle(u, v) -> float:
    """|sin| of the angle between two unit vectors: sqrt(1 - <u, v>^2).

    Invariant under sign flips of either argument.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("expected two vectors of identical shape")
    for name, vec in (("u", u), ("v", v)):
        if abs(float(vec @ vec) - 1.0) > 1e-9 * 2:
            raise ValueError(f"{name} is not unit-norm")
    dot = min(1.0, max(-1.0, float(u @ v)))
    return math.sqrt(max(0.0, 1.0 - dot * dot))


@dataclass(frozen=True)
class NullCalibration:
    threshold: float
    delta: float
    statistics: np.ndarray

    @classmethod
    def from_statistics(cls, statistics, delta: float) -> NullCalibration:
        """Threshold at level delta from K null statistics: their
        ceil((K+1)(1-delta))-th order statistic (capped at K)."""
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        stats = np.array(statistics, dtype=float)
        k = stats.size
        if stats.ndim != 1 or k < 2:
            raise ValueError("need at least two null statistics")
        rank = min(k, int(math.ceil((k + 1) * (1.0 - delta))))
        threshold = float(np.sort(stats)[rank - 1])
        stats.setflags(write=False)
        return cls(threshold=threshold, delta=delta, statistics=stats)

    def to_json_dict(self) -> dict:
        return {"threshold": self.threshold, "delta": self.delta,
                "statistics": self.statistics.tolist()}


def calibrate_null_threshold(d: int, side: float, delta: float,
                             n_replicates: int, seed: int,
                             r: float | None = None) -> NullCalibration:
    """Empirical null threshold for the detection test.

    Simulates the isotropic model on the given box window, estimates the
    scattering matrix of each replicate on the inscribed ball, and returns
    the ceil((K+1)(1-delta))-th order statistic of 2*pi ||Sigma_hat||op
    (see NullCalibration.from_statistics), which keeps the false-alarm
    rate of a fresh replicate at or below delta up to Monte-Carlo error.
    Replicate i is drawn by sample_gdp with seed (seed, i), so the first
    statistics do not depend on n_replicates.  Replicate statistics are
    kept for audit.  r is the estimator's cutoff (None: automatic); a
    fixed r must be below side/2, which is checked before any draw.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n_replicates < 2:
        raise ValueError("need at least two replicates")
    if r is not None and not r < side / 2.0:
        raise ValueError(f"null box side {side:g} is too small for the cutoff r = {r:g}: "
                         f"the null estimates need side > 2r = {2 * r:g}")
    sigma0 = isotropic_scattering(d)
    window = BoxWindow(side, d)
    stats = np.empty(n_replicates)
    for i in range(n_replicates):
        pat = sample_gdp(sigma0, window, (seed, i))
        est = estimate_scattering(pat, r)  # on the box's inscribed ball
        stats[i] = TWO_PI * operator_norm(est.sigma_hat)
    return NullCalibration.from_statistics(stats, delta)
