"""Reference formulas of the Gaussian DPP, for tests.

The kernel formulas evaluate one point, pair or point set per call,
straight from the definitions in `gaussdpp.kernel`'s docstring; the package
computes the same quantities in array form where it needs them.  The
count moments of a torus draw follow from its spectral basis: the
sampler keeps each mode independently with probability its eigenvalue.
`sin_angle` measures how far a recovered spike direction is from the true
one.  `ordered_pair_estimate` is the paper's scattering-matrix estimator as
its ordered double sum, with no cell list.
"""

import math

import numpy as np

from gaussdpp.kernel import TWO_PI, ScatteringMatrix


def _check_point(sigma: ScatteringMatrix, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (sigma.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({sigma.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite coordinates")
    return x


def kernel_value(sigma: ScatteringMatrix, x, y) -> float:
    """Kernel K(x, y): the Gaussian density of covariance `sigma` at x - y.

    Equals 1 at x = y when `sigma` is normalized.
    """
    u = _check_point(sigma, x) - _check_point(sigma, y)
    quad = float(u @ sigma.inverse @ u)
    log_k = -0.5 * (sigma.dim * math.log(TWO_PI) + sigma.log_det + quad)
    return math.exp(log_k)


def rho_k(sigma: ScatteringMatrix, points) -> float:
    """k-point correlation: det[K(x_i, x_j)] over the given points.

    For normalized `sigma` the value lies in [0, 1]; it vanishes whenever
    two points coincide (repulsion).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1 or pts.shape[1] != sigma.dim:
        raise ValueError(f"expected a nonempty list of {sigma.dim}-dimensional points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points have non-finite coordinates")
    diff = pts[:, None, :] - pts[None, :, :]
    quad = np.einsum("ijk,kl,ijl->ij", diff, sigma.inverse, diff)
    log_k0 = -0.5 * (sigma.dim * math.log(TWO_PI) + sigma.log_det)
    gram = np.exp(log_k0 - 0.5 * quad)
    return float(np.linalg.det(gram))


def truncated_pair_correlation(sigma: ScatteringMatrix, x, y) -> float:
    """Pair correlation minus its independent part: -exp(-(x-y)' S^{-1} (x-y)).

    Requires a normalized scattering matrix (the closed form assumes unit
    density).  Always in [-1, 0): the process is repulsive at all ranges.
    """
    if not sigma.normalized:
        raise ValueError("truncated pair correlation requires a normalized scattering matrix")
    u = _check_point(sigma, x) - _check_point(sigma, y)
    return -math.exp(-float(u @ sigma.inverse @ u))


def mean_count(basis) -> float:
    """Expected point count of a draw from a `SpectralBasis`: the sum of
    its eigenvalues."""
    return float(basis.eigenvalues.sum())


def count_variance(basis) -> float:
    """Variance of that count: the sum of lam (1 - lam) over the modes."""
    lam = basis.eigenvalues
    return float((lam * (1.0 - lam)).sum())


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


def ordered_pair_estimate(points, r: float, R: float) -> tuple[np.ndarray, int]:
    """The estimator of `gaussdpp.estimator` as the paper writes it,

        2^((d+2)/2) [|B(1)| r^(d+2)/(d+2) I
                     - 1/|B(R-r)| sum_{i in N0} sum_{j in Ni} (Xi-Xj)(Xi-Xj)'],

    N0 the points with |Xi| < R - r and Ni the others within r of Xi,
    every ordered pair tested directly (O(N^2)).  Returns the matrix and
    the number of ordered pairs summed.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    total, count = np.zeros((d, d)), 0
    for i in range(n):
        if pts[i] @ pts[i] >= (R - r) ** 2:
            continue
        diff = pts[i] - np.delete(pts, i, axis=0)
        near = diff[np.einsum("jk,jk->j", diff, diff) < r * r]
        total += near.T @ near
        count += near.shape[0]
    identity = ball * r ** (d + 2) / (d + 2) * np.eye(d)
    return 2.0 ** ((d + 2) / 2) * (identity - total / (ball * (R - r) ** d)), count
