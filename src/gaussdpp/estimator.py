"""Scattering-matrix estimation from a single point pattern.

The estimator compensates the local deficit of close pairs created by
repulsion: it sums outer products of pairwise differences over neighbor
pairs within a cutoff radius r and subtracts them from an identity term
that is exactly their expectation under complete independence,

    Sigma_hat = 2^((d+2)/2) * [ |B(1)| r^(d+2)/(d+2) I
                - 1/|B(R-r)| * sum_{i in N0} sum_{j in Ni} (Xi-Xj)(Xi-Xj)' ],

with Ni the points strictly within r of Xi and N0 the points strictly
inside the shrunk ball B(R-r) (boundary guard); the pairs come from the
cell list `patterns.close_pairs`.  The leading constant makes the
estimator consistent: without it the expectation of the bracket is the
second moment of a Gaussian with covariance S/2 carrying a 2^(-d/2)
volume factor, i.e. 2^(-(d+2)/2) v'Sv along any unit v, a fact easily
checked by Monte Carlo.  The module also provides the theoretical bias,
variance, rate, and count-concentration reference bounds, each returning
None outside its validity range rather than extrapolating.

The module owns estimate.json: `EstimateResult.to_json_dict` is the whole
record `estimate` writes (Sigma_hat, counts, radii, bounds, and the cutoff
asked for as "estimator": {"r": ...}), and `read_estimate` reads back and
checks what `detect` uses of it: Sigma_hat, n, R_used and that cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import count_text, finite_number, read_json
from .kernel import ScatteringMatrix
from .patterns import BallWindow, BoxWindow, PointPattern, close_pairs


def unit_ball_volume(d: int) -> float:
    """Volume of the unit Euclidean ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


def count_expectation(radius: float, d: int) -> float:
    """Expected number of points in B(R) at unit density: |B(1)| R^d."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return unit_ball_volume(d) * radius ** d


def bernstein_tail(eps: float, radius: float, d: int) -> float:
    """Upper bound on P[|N/n - 1| >= eps]: 2 exp(-3 eps^2 |B(R)| / (6 + 2 eps)).

    The raw bound is returned; it exceeds 1 (is vacuous) for small eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    n = count_expectation(radius, d)
    return 2.0 * math.exp(-3.0 * eps ** 2 * n / (6.0 + 2.0 * eps))


def default_cutoff(n: float, d: int) -> float:
    """Theoretical bias-variance cutoff sqrt(d log n)."""
    if not n > 1:
        raise ValueError("expected count n must exceed 1")
    return math.sqrt(d * math.log(n))


def bias_bound(sigma: ScatteringMatrix, r: float) -> float | None:
    """Squared-Frobenius bias bound 9 d s^2 exp((4 Tr - 2 r^2) / (3 s)), s = ||Sigma||op.

    Asserted only for r >= sqrt(5 Tr(Sigma) / 2); returns None below that.
    """
    tr = sigma.trace
    if r < math.sqrt(2.5 * tr):
        return None
    s = sigma.operator_norm
    return 9.0 * sigma.dim * s ** 2 * math.exp((4.0 * tr - 2.0 * r ** 2) / (3.0 * s))


def variance_bound(r: float, d: int, n: float) -> float | None:
    """Frobenius variance bound d^2 (1/d)^d r^(2d+4) / n, universal constant C = 1.

    Asserted only for r >= sqrt(d); returns None below that.
    """
    if not n > 0:
        raise ValueError("expected count n must be positive")
    if r < math.sqrt(d):
        return None
    return d ** 2 * (1.0 / d) ** d * r ** (2 * d + 4) / n


def risk_rate(n: float, d: int) -> float:
    """Frobenius risk rate d^2 sqrt(log n)^(d+1) / sqrt(n), universal constant c = 1."""
    if not n > 1:
        raise ValueError("expected count n must exceed 1")
    return d ** 2 * math.sqrt(math.log(n)) ** (d + 1) / math.sqrt(n)


@dataclass(frozen=True)
class EstimateResult:
    sigma_hat: np.ndarray
    n_observed: int
    n_expected: float
    r_used: float
    R_used: float
    pair_count: int
    r_requested: float | None  # the cutoff asked for; None: automatic
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The estimate.json record: matrix (row-major), counts, cutoffs, and
        the theoretical bounds where applicable (plug-in scattering matrix)."""
        d = self.sigma_hat.shape[0]
        bias = None
        w = np.linalg.eigvalsh(self.sigma_hat)
        if w[0] > 0:
            bias = bias_bound(ScatteringMatrix(self.sigma_hat), self.r_used)
        var = variance_bound(self.r_used, d, self.n_expected)
        rate = risk_rate(self.n_expected, d) if self.n_expected > 1 else None
        return {
            "sigma_hat": self.sigma_hat.reshape(-1).tolist(),
            "dim": d,
            "N": self.n_observed,
            "n": self.n_expected,
            "r_used": self.r_used,
            "R_used": self.R_used,
            "pair_count": self.pair_count,
            "bias_bound": bias,
            "variance_bound": var,
            "risk_rate": rate,
            "estimator": {"r": self.r_requested},
        }


def read_estimate(path) -> tuple[np.ndarray, float, float, float | None]:
    """Sigma_hat (finite), n and R_used (positive) and the cutoff asked for
    (None: automatic, also when the estimator block is missing) from an
    estimate.json; every message names the file.  Older records also hold R,
    equal to R_used and ignored, and C0, a removed scale of the automatic
    rule: a C0 other than 1 would replay another null, so it is refused."""
    est = read_json(path)

    def value(obj, key, positive=False):
        try:
            v = obj[key]
        except (KeyError, TypeError):
            raise ValueError(f"{path}: missing key {key!r}") from None
        if positive and not (finite_number(v) and v > 0):
            raise ValueError(f"{path}: {key!r} must be a positive number, got {v!r}")
        return v

    d, entries = value(est, "dim"), value(est, "sigma_hat")
    if type(d) is not int or d < 1:
        raise ValueError(f"{path}: 'dim' must be a positive integer, got {d!r}")
    # A JSON string or boolean is not a number, though numpy converts both.
    flat = np.asarray(entries, dtype=object).reshape(-1)
    if flat.size != d * d or any(type(v) not in (int, float) for v in flat):
        raise ValueError(f"{path}: 'sigma_hat' must hold {count_text(d * d)} numbers")
    if not all(map(finite_number, flat)):
        raise ValueError(f"{path}: 'sigma_hat' has non-finite entries")
    sigma_hat = flat.astype(float).reshape(d, d)
    n, R_used = value(est, "n", True), value(est, "R_used", True)
    block = {"r": None} if est.get("estimator") is None else est["estimator"]
    r = value(block, "r", positive=value(block, "r") is not None)
    if block.get("C0", 1.0) != 1.0:
        raise ValueError(f"{path}: 'C0' {block['C0']!r} is no longer supported "
                         "(the automatic cutoff has no scale); re-run estimate")
    return sigma_hat, n, R_used, r


def _window_radius(pattern: PointPattern) -> float:
    if isinstance(pattern.window, BallWindow):
        return pattern.window.radius
    if isinstance(pattern.window, BoxWindow):
        # Largest ball inscribed in the box.
        return pattern.window.side / 2.0
    raise ValueError(f"unsupported window {pattern.window!r}")


def _canonical_order(pts: np.ndarray) -> np.ndarray:
    """Lexicographic point order; makes the pair summation order, and hence
    the floating-point result, independent of input permutation."""
    return np.lexsort(pts.T[::-1])


def estimate_scattering(pattern: PointPattern, r: float | None = None) -> EstimateResult:
    """Evaluate the scattering-matrix estimator on one observed pattern.

    R is the radius of the pattern's window: the ball's radius, or the
    inscribed ball of a box.  A fixed cutoff needs 0 < r < R.  With r None
    the cutoff is automatic: sqrt(d log n) clamped to
    [sqrt(d) * max(1, sqrt(5 Tr(pilot)/2)), R/2], where the pilot estimate
    uses r = min(sqrt(d), R/2); it fails if that interval is empty.  An
    empty pattern returns the pure identity term.  The output is exactly
    symmetric, and the summation order is canonicalized so permuting the
    input points reproduces the result bitwise.
    """
    R = _window_radius(pattern)
    d = pattern.dim
    n_expected = count_expectation(R, d)

    r_requested = r
    if r is not None:
        r = float(r)
    else:
        # Pilot estimate for the bias-validity clamp.  The pilot cutoff is
        # kept at sqrt(d) (the variance-validity floor): larger pilot radii
        # make the pilot trace variance-dominated and the clamp erratic.
        pilot = estimate_scattering(pattern, min(math.sqrt(d), R / 2.0))
        tr0 = float(np.trace(pilot.sigma_hat))
        lo = math.sqrt(d) * max(1.0, math.sqrt(max(tr0, 0.0) * 2.5))
        hi = R / 2.0
        if lo > hi:
            raise ValueError(
                f"auto cutoff failed: lower clamp {lo:.3g} exceeds R/2 = {hi:.3g}")
        r = min(max(default_cutoff(n_expected, d), lo), hi)
    if not 0 < r < R:
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")

    # Consistency constant; see the module docstring.
    scale = 2.0 ** (0.5 * (d + 2))
    identity_term = scale * unit_ball_volume(d) * r ** (d + 2) / (d + 2)
    sigma_hat = identity_term * np.eye(d)

    pts = pattern.points
    pts = pts[_canonical_order(pts)]
    inner = np.einsum("ij,ij->i", pts, pts) < (R - r) ** 2
    # Ordered pairs (a, b) with a in N0 and b in N_a, summed in the order
    # of a, then b.
    i, j = close_pairs(pts, r)
    a, b = np.concatenate([i, j]), np.concatenate([j, i])
    keep = inner[a]
    a, b = a[keep], b[keep]
    ranked = np.lexsort((b, a))
    a, b = a[ranked], b[ranked]
    if a.size:
        diffs = pts[a] - pts[b]
        pair_sum = np.einsum("ki,kj->ij", diffs, diffs)
        sigma_hat -= (scale / (unit_ball_volume(d) * (R - r) ** d)) * pair_sum

    return EstimateResult(sigma_hat=sigma_hat, n_observed=pts.shape[0],
                          n_expected=n_expected, r_used=r, R_used=R,
                          pair_count=int(a.size), r_requested=r_requested,
                          diagnostics={"inner_count": int(np.count_nonzero(inner))})
