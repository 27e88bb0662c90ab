"""Gaussian DPP kernel: scattering matrix, spectral density, spiked model.

The process is parameterized by a symmetric positive-definite d x d
"scattering" matrix S.  Its kernel is the centered Gaussian density with
covariance S evaluated at the difference of the two arguments,

    K(x, y) = (2*pi)^(-d/2) det(S)^(-1/2) exp(-(x-y)' S^{-1} (x-y) / 2),

and the k-point correlation of the process is the k x k determinant of
kernel values.  Under the normalization det(S) = (2*pi)^(-d) the point
density K(x, x) is exactly 1 per unit volume.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative tolerances used when validating inputs.
SYMMETRY_RTOL = 1e-12
NORMALIZED_RTOL = 1e-9
UNIT_NORM_RTOL = 1e-12
SPD_EIG_RTOL = 1e-12


class ScatteringMatrix:
    """Symmetric positive-definite model parameter of a Gaussian DPP.

    The eigendecomposition is computed once at construction and reused by
    every kernel evaluation (the inner loop of correlation functions and
    the sampler).  Instances are immutable; the stored arrays are marked
    read-only.

    Parameters
    ----------
    entries : array_like
        d x d symmetric matrix with strictly positive eigenvalues.

    Attributes
    ----------
    dim : int
    entries : ndarray, read-only
    log_det : float
        log det(S), computed in eigenvalue log-space so it stays finite
        for large d where det(S) ~ (2*pi)^(-d) underflows.
    normalized : bool
        True iff det(S) = (2*pi)^(-d) to within a 1e-9 relative tolerance.
    """

    __slots__ = ("entries", "dim", "eigenvalues", "eigenvectors", "log_det", "normalized")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"scattering matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("scattering matrix has non-finite entries")
        if np.abs(a - a.T).max() > SYMMETRY_RTOL * np.abs(a).max():
            raise ValueError("scattering matrix is not symmetric to 1e-12 relative tolerance")
        a = 0.5 * (a + a.T)

        w, v = np.linalg.eigh(a)
        if w[0] <= SPD_EIG_RTOL * w[-1] or w[0] <= 0.0:
            raise ValueError(
                "scattering matrix is not positive-definite "
                f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])")

        self.entries = a
        self.dim = a.shape[0]
        self.eigenvalues = w
        self.eigenvectors = v
        self.log_det = float(np.sum(np.log(w)))
        self.normalized = bool(
            abs(self.log_det + self.dim * math.log(TWO_PI)) <= NORMALIZED_RTOL)
        for arr in (self.entries, self.eigenvalues, self.eigenvectors):
            arr.setflags(write=False)

    @property
    def operator_norm(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __repr__(self):
        return (f"ScatteringMatrix(dim={self.dim}, normalized={self.normalized}, "
                f"eigenvalues={np.array2string(self.eigenvalues, precision=4)})")


def isotropic_scattering(d: int) -> ScatteringMatrix:
    """The normalized isotropic matrix I_d / (2*pi)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return ScatteringMatrix(np.eye(d) / TWO_PI)


def spectral_density(sigma: ScatteringMatrix, omega) -> np.ndarray:
    """Fourier transform of the kernel profile, exp(-2 pi^2 w' S w), at
    frequencies omega of shape (..., d); the result has shape (...).

    Takes values in (0, 1]; its range is the spectrum of the kernel as an
    integral operator, which is what makes the process well defined.  The
    quadratic form is summed term by term in a fixed order, so a
    frequency's value does not depend on the array it comes in.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim < 1 or w.shape[-1] != sigma.dim:
        raise ValueError(f"frequencies have shape {w.shape}, expected (..., {sigma.dim})")
    if not np.all(np.isfinite(w)):
        raise ValueError("frequencies have non-finite coordinates")
    quad = sum(sigma.entries[i, j] * w[..., i] * w[..., j]
               for i in range(sigma.dim) for j in range(sigma.dim))
    return np.exp(-2.0 * math.pi ** 2 * quad)


def normalize_scattering(sigma: ScatteringMatrix) -> ScatteringMatrix:
    """Rescale to det = (2*pi)^(-d), leaving eigenvectors unchanged.

    The scalar factor is ((2*pi)^(-d) / det(S))^(1/d), computed in log
    space.  Idempotent on already-normalized input.
    """
    log_c = (-sigma.dim * math.log(TWO_PI) - sigma.log_det) / sigma.dim
    if abs(log_c) <= NORMALIZED_RTOL:
        return sigma
    return ScatteringMatrix(math.exp(log_c) * sigma.entries)


def spiked_scattering(lam: float, u, d: int | None = None) -> ScatteringMatrix:
    """Rank-one directional perturbation of the isotropic model.

    (2*pi) S = (1+lam)^(-1/(d-1)) (I - u u') + (1+lam) u u'

    The construction keeps det((2*pi) S) = 1, so the point density stays
    at 1 and only the directionality changes.  The top eigenvalue of
    (2*pi) S is 1+lam with eigenvector u; the remaining d-1 eigenvalues
    all equal (1+lam)^(-1/(d-1)).

    Parameters
    ----------
    lam : float
        Spike strength, >= 0.  lam = 0 recovers the isotropic model.
    u : array_like
        Unit spike direction.
    d : int, optional
        Dimension; defaults to len(u) and must match it.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("spike direction must be a vector")
    if d is None:
        d = u.shape[0]
    if d != u.shape[0]:
        raise ValueError(f"spike direction has length {u.shape[0]}, expected {d}")
    if d < 2:
        raise ValueError("spiked model needs d >= 2 (exponent 1/(d-1) undefined at d=1)")
    if abs(float(u @ u) - 1.0) > UNIT_NORM_RTOL * 10:
        raise ValueError("spike direction must have unit norm")
    if lam < 0:
        raise ValueError("spike strength must be >= 0")
    bulk = (1.0 + lam) ** (-1.0 / (d - 1))
    outer = np.outer(u, u)
    two_pi_sigma = bulk * (np.eye(d) - outer) + (1.0 + lam) * outer
    return ScatteringMatrix(two_pi_sigma / TWO_PI)
