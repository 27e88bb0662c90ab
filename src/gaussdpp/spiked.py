"""Detection and estimation of a rank-one spike in the scattering matrix.

The test's one statistic, `detection_statistic` = 2*pi ||Sigma_hat||op, is near 1
under the isotropic null and 1 + lambda under a spike lambda.  `cli._cmd_detect`
compares it with the analytic 1 + t * `estimator.risk_rate`(n, d) (with t = 1/delta
both error rates are at most delta once the spike exceeds twice the rate; the
rate's constant c, which theory leaves open, is 1, as (t, c) equals
(t c^(d+1), 1)), or with the null quantile of `calibrate_null_threshold`, drawn
through the estimate's own design: the ball B(R_used) and the cutoff r_used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import estimate_scattering
from .kernel import TWO_PI, isotropic_scattering
from .patterns import BoxWindow
from .sampling import map_replicates, sample_gdp

SYMMETRY_RTOL = 1e-8


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


def detection_statistic(sigma_hat) -> float:
    """2*pi times the largest eigenvalue magnitude of the symmetrized input:
    the spike statistic, of the data and of every null replicate alike."""
    w = np.linalg.eigvalsh(_check_symmetric(sigma_hat))
    return float(TWO_PI * max(abs(w[0]), abs(w[-1])))


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


def calibrate_null_threshold(d: int, R: float, r: float, delta: float,
                             n_replicates: int, seed: int) -> NullCalibration:
    """Empirical null threshold for the detection test of an estimate made
    on the ball B(R) at the cutoff r (0 < r < R, checked before any draw).

    Each replicate is the isotropic model drawn on the box of side 2R and
    estimated at r on its inscribed ball B(R): the estimate's own n and r.
    Returns the ceil((K+1)(1-delta))-th order statistic of their
    detection_statistic (see NullCalibration.from_statistics), which keeps
    the false-alarm rate of a fresh replicate at or below delta up to
    Monte-Carlo error.  Replicate i is drawn by sample_gdp with seed
    (seed, i, 0, 1), so the first statistics do not depend on n_replicates,
    and no seed (s, i') of a `sample` or `validate` replicate i' < 2**32
    gives numpy's SeedSequence the same 32-bit words.  Replicate statistics
    are kept for audit.  The replicates run in forked processes, one per
    usable CPU (`sampling.map_replicates`); each is fixed by its own seed,
    so the statistics do not depend on the CPU count.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n_replicates < 2:
        raise ValueError("need at least two replicates")
    if not 0 < r < R:
        raise ValueError(f"the null estimates need 0 < r < R, got r = {r:g}, R = {R:g}")
    sigma0, window = isotropic_scattering(d), BoxWindow(2.0 * R, d)

    def statistic(i):
        pattern = sample_gdp(sigma0, window, (seed, i, 0, 1))
        return detection_statistic(estimate_scattering(pattern, r).sigma_hat)
    return NullCalibration.from_statistics(map_replicates(statistic, range(n_replicates)), delta)
