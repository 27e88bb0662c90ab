"""Reference formulas of the Gaussian DPP, for tests.

The kernel formulas evaluate one point, pair or point set per call,
straight from the definitions in `gaussdpp.kernel`'s docstring; the package
computes the same quantities in array form where it needs them.  The
count moments of a torus draw follow from its spectral basis: the
sampler keeps each mode independently with probability its eigenvalue.
`modes_in_box` builds that basis by scanning the ellipsoid's bounding box.
`sin_angle` measures how far a recovered spike direction is from the true
one.  `ordered_pair_estimate` is the paper's scattering-matrix estimator as
its ordered double sum, with no cell list, and `expected_sigma_hat` its
expectation in closed form (d = 2).
"""

import math

import numpy as np

from gaussdpp.kernel import TWO_PI, ScatteringMatrix, spectral_density
from gaussdpp.sampling import DEFAULT_TOL


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
    quad = float(u @ np.linalg.inv(sigma.entries) @ u)
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
    quad = np.einsum("ijk,kl,ijl->ij", diff, np.linalg.inv(sigma.entries), diff)
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
    return -math.exp(-float(u @ np.linalg.inv(sigma.entries) @ u))


def mean_count(basis) -> float:
    """Expected point count of a draw from a `SpectralBasis`: the sum of
    its eigenvalues."""
    return float(basis.eigenvalues.sum())


def count_variance(basis) -> float:
    """Variance of that count: the sum of lam (1 - lam) over the modes."""
    lam = basis.eigenvalues
    return float((lam * (1.0 - lam)).sum())


def modes_in_box(sigma: ScatteringMatrix, side: float) -> tuple[np.ndarray, np.ndarray]:
    """The spectral basis of `build_spectral_basis` by brute force, as
    (modes, eigenvalues): every integer point of the bounding box of the
    ellipsoid k' S k < L^2 log(1/DEFAULT_TOL) / (2 pi^2), in lexicographic
    order, tested by the same quadratic form.  No cap: keep the box small.
    """
    bound = side ** 2 * math.log(1.0 / DEFAULT_TOL) / (2.0 * math.pi ** 2)
    half = np.floor(np.sqrt(bound * np.diag(np.linalg.inv(sigma.entries)))).astype(np.int64)
    shape = tuple(int(2 * h + 1) for h in half)
    k = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=1) - half
    quad = np.einsum("ij,jl,il->i", k.astype(float), sigma.entries, k.astype(float))
    modes = k[quad < bound]
    return modes, spectral_density(sigma, modes / side)


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


def expected_sigma_hat(sigma: ScatteringMatrix, r: float) -> np.ndarray:
    """E[Sigma_hat(r)] in d = 2 for a normalized `sigma`,

        2^((d+2)/2) integral over |u| < r of uu' exp(-u' S^-1 u) du:

    the identity term cancels the independent part of the pair correlation
    1 - exp(-u' S^-1 u).  In polar coordinates u = rho e_theta, with
    a = e_theta' S^-1 e_theta, the radial integral of rho^3 exp(-a rho^2)
    is (1 - exp(-a r^2)(1 + a r^2)) / (2 a^2); theta is integrated by the
    periodic trapezoid rule on 2048 nodes, which converges geometrically
    for this smooth periodic integrand.
    """
    if sigma.dim != 2 or not sigma.normalized:
        raise ValueError("expected a normalized 2 x 2 scattering matrix")
    theta = np.arange(2048) * (TWO_PI / 2048)
    e = np.column_stack([np.cos(theta), np.sin(theta)])
    a = np.einsum("ti,ij,tj->t", e, np.linalg.inv(sigma.entries), e)
    x = a * r * r
    radial = (1.0 - np.exp(-x) * (1.0 + x)) / (2.0 * a * a)
    return 2.0 ** 2 * (e.T * radial) @ e * (TWO_PI / 2048)
