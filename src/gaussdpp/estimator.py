"""Scattering-matrix estimation from a single point pattern.

The estimator compensates the local deficit of close pairs created by
repulsion: it sums outer products of pairwise differences over neighbor
pairs within a cutoff radius r and subtracts them from an identity term
that is exactly their expectation under complete independence,

    Sigma_hat = 2^((d+2)/2) * [ |B(1)| r^(d+2)/(d+2) I
                - 1/|B(R-r)| * sum_{i in N0} sum_{j in Ni} (Xi-Xj)(Xi-Xj)' ],

with Ni the points strictly within r of Xi and N0 the points strictly
inside the shrunk ball B(R-r) (boundary guard).  The cell list
`patterns.close_pairs` lists each close pair once with its difference,
and the sum adds it once, weighted by how many of its ends lie in N0
(1 or 2).  The leading constant makes the
estimator consistent: without it the expectation of the bracket is the
second moment of a Gaussian with covariance S/2 carrying a 2^(-d/2)
volume factor, i.e. 2^(-(d+2)/2) v'Sv along any unit v, a fact easily
checked by Monte Carlo.  The module also provides the theoretical bias,
variance, rate, and count-concentration reference bounds, each returning
None outside its validity range rather than extrapolating.

The automatic cutoff is the paper's sqrt(d log n), capped at R/2; at the
sizes this package runs it is variance-dominated.  The module owns
estimate.json: `EstimateResult.to_json_dict` is the whole record `estimate`
writes (Sigma_hat, counts, radii, bounds, and the cutoff asked for as
"estimator": {"r": ...}), and `read_estimate` reads back what `detect`
uses of it: Sigma_hat, R_used and r_used, the cutoff actually used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import finite_number, read_json, value_text
from .kernel import ScatteringMatrix
from .patterns import BallWindow, BoxWindow, PointPattern, close_pairs


def unit_ball_volume(d: int) -> float:
    """Volume of the unit Euclidean ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


def count_expectation(radius: float, d: int) -> float:
    """Expected number of points in B(R) at unit density: |B(1)| R^d.
    OverflowError, naming R and d, when R^d is beyond a float."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    try:
        return unit_ball_volume(d) * radius ** d
    except OverflowError:
        raise OverflowError(f"|B(R)| for R = {radius:g} in d = {d} is out of range "
                            "of a float") from None


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
    return _bias_bound(sigma.trace, sigma.operator_norm, sigma.dim, r)


def _bias_bound(tr: float, s: float, d: int, r: float) -> float | None:
    if r < math.sqrt(2.5 * tr):
        return None
    return 9.0 * d * s ** 2 * math.exp((4.0 * tr - 2.0 * r ** 2) / (3.0 * s))


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
        # Not through ScatteringMatrix, which refuses a valid but ill-conditioned Sigma_hat.
        w = np.linalg.eigh(self.sigma_hat)[0]
        bias = (_bias_bound(float(np.trace(self.sigma_hat)), float(w[-1]), d, self.r_used)
                if w[0] > 0 else None)
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


def read_estimate(path) -> tuple[np.ndarray, float, float]:
    """Sigma_hat (finite), R_used and r_used (positive) from an estimate.json,
    naming the file in every message; "n" is not read, it is |B(R_used)|.  A
    null replays R_used and r_used, whatever "estimator" (older: R, C0) asks."""
    est = read_json(path)

    def value(key, positive=False):
        try:
            v = est[key]
        except KeyError:
            raise ValueError(f"{path}: missing key {key!r}") from None
        if positive and not (finite_number(v) and v > 0):
            raise ValueError(f"{path}: {key!r} must be a positive number, got {value_text(v)}")
        return v

    d, entries = value("dim"), value("sigma_hat")
    if type(d) is not int or d < 1:
        raise ValueError(f"{path}: 'dim' must be a positive integer, got {value_text(d)}")
    # A JSON string or boolean is not a number, though numpy converts both.
    flat = np.asarray(entries, dtype=object).reshape(-1)
    if flat.size != d * d or any(type(v) not in (int, float) for v in flat):
        raise ValueError(f"{path}: 'sigma_hat' must hold {value_text(d * d)} numbers")
    if not all(map(finite_number, flat)):
        raise ValueError(f"{path}: 'sigma_hat' has non-finite entries")
    sigma_hat = flat.astype(float).reshape(d, d)
    return sigma_hat, value("R_used", True), value("r_used", True)


def _window_radius(pattern: PointPattern) -> float:
    if isinstance(pattern.window, BallWindow):
        return pattern.window.radius
    if isinstance(pattern.window, BoxWindow):
        # Largest ball inscribed in the box.
        return pattern.window.side / 2.0
    raise ValueError(f"unsupported window {pattern.window!r}")


def estimate_scattering(pattern: PointPattern, r: float | None = None) -> EstimateResult:
    """Evaluate the scattering-matrix estimator on one observed pattern.

    R is the radius of the pattern's window: the ball's radius, or the
    inscribed ball of a box.  A fixed cutoff needs 0 < r < R.  With r None
    the cutoff is the paper's sqrt(d log n), n = |B(R)| > 1, capped at R/2,
    so it depends on the window alone.  An empty pattern returns the pure
    identity term.  Each close pair is added once with weight 1 or 2, its
    ends in N0, and pair_count, the sum of the weights, is the number of
    ordered pairs in the double sum.  The output is exactly symmetric, and
    the summation order is canonicalized so permuting the input points
    reproduces the result bitwise.  OverflowError, naming r and d, when the
    identity term is beyond a float.
    """
    R = _window_radius(pattern)
    d = pattern.dim
    n_expected = count_expectation(R, d)

    r_requested = r
    if r is None and not n_expected > 1:
        raise ValueError(f"the automatic cutoff needs |B(R)| > 1, got |B({R:g})| = "
                         f"{n_expected:.3g}; give the cutoff r")
    r = min(default_cutoff(n_expected, d), R / 2.0) if r is None else float(r)
    if not 0 < r < R:
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")

    # Consistency constant; see the module docstring.
    scale = 2.0 ** (0.5 * (d + 2))
    try:
        identity_term = scale * unit_ball_volume(d) * r ** (d + 2) / (d + 2)
        if identity_term == math.inf:
            raise OverflowError
    except OverflowError:
        raise OverflowError(f"the identity term in r^(d+2) for r = {r:g} in d = {d} is out "
                            "of range of a float") from None
    sigma_hat = identity_term * np.eye(d)

    # Points in lexicographic order and pairs summed in the order of i, then
    # j: the sum depends, to the bit, on the pair set alone.
    pts = pattern.points[np.lexsort(pattern.points.T[::-1])]
    inner = np.einsum("ij,ij->i", pts, pts) < (R - r) ** 2
    i, j, diff = close_pairs(pts, r)
    weight = inner[i].astype(np.intp) + inner[j]
    kept = np.flatnonzero(weight)
    kept = kept[np.lexsort((j[kept], i[kept]))]
    diff = diff[kept]
    pair_sum = np.einsum("ki,kj->ij", diff * weight[kept, None], diff)
    sigma_hat -= (scale / (unit_ball_volume(d) * (R - r) ** d)) * pair_sum

    return EstimateResult(sigma_hat=sigma_hat, n_observed=pts.shape[0],
                          n_expected=n_expected, r_used=r, R_used=R,
                          pair_count=int(weight.sum()), r_requested=r_requested,
                          diagnostics={"inner_count": int(np.count_nonzero(inner))})
