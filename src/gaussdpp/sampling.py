"""Simulation of Gaussian DPPs on a box window, plus validation statistics.

The stationary kernel on R^d is replaced by its periodization on the torus
[-L/2, L/2]^d.  There the Fourier modes exp(2*pi*i <k, x>/L), k integer,
are exact eigenfunctions with eigenvalues given by the spectral density at
k/L, all in (0, 1].  Sampling then follows the classical two-stage scheme
for such kernels: keep each mode independently with probability equal to
its eigenvalue, and draw the resulting rank-m projection DPP point by
point from its conditional intensities.

The wrap-around error of the periodization decays like the Gaussian tail
exp(-c L^2); for the windows used here (L >= 10 sqrt(||S||)) it is far
below Monte-Carlo resolution.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimator import unit_ball_volume
from .kernel import ScatteringMatrix
from .patterns import BoxWindow, PointPattern

DEFAULT_TOL = 1e-6
DEFAULT_MODE_CAP = 2_000_000
DEFAULT_MAX_REJECTS = 1_000_000

_ENUM_SLAB = 1 << 20  # candidate rows processed per slab while enumerating
_PAIR_BLOCK_ENTRIES = 1 << 18  # point pairs per block in the pair correlation


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated Fourier eigensystem of the periodized kernel.

    modes : (M, d) integer array, lexicographically sorted, closed under
        k -> -k.
    eigenvalues : (M,) values of the spectral density at modes/L, each in
        (tol, 1].
    """

    modes: np.ndarray
    eigenvalues: np.ndarray
    side: float
    tol: float

    def __post_init__(self):
        self.modes.setflags(write=False)
        self.eigenvalues.setflags(write=False)

    @property
    def mean_count(self) -> float:
        """Expected number of points of the thinned process: sum of eigenvalues."""
        return float(self.eigenvalues.sum())

    @property
    def count_variance(self) -> float:
        """Variance of the point count: sum of lam*(1-lam) over modes."""
        lam = self.eigenvalues
        return float((lam * (1.0 - lam)).sum())


def build_spectral_basis(sigma: ScatteringMatrix, side: float,
                         tol: float = DEFAULT_TOL,
                         mode_cap: int = DEFAULT_MODE_CAP) -> SpectralBasis:
    """Enumerate all Fourier modes with eigenvalue above `tol`.

    The retained set is the integer ellipsoid k' S k < L^2 log(1/tol) /
    (2 pi^2).  Its eigenvalue sum divided by L^d approximates the unit
    point density, up to the truncation tol and the Gaussian tail.

    Raises if the mode count exceeds `mode_cap`, which signals a window
    too large for the dimension.
    """
    if not sigma.normalized:
        raise ValueError("sampler requires a normalized scattering matrix "
                         "(use normalize_scattering)")
    if not side > 0:
        raise ValueError("window side must be positive")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie strictly between 0 and 1")
    d = sigma.dim
    bound = side ** 2 * math.log(1.0 / tol) / (2.0 * math.pi ** 2)
    # Bounding box of the ellipsoid k' S k < bound.
    half = np.floor(np.sqrt(bound * np.diag(sigma.inverse))).astype(np.int64)
    axes = [np.arange(-h, h + 1, dtype=np.int64) for h in half]
    n_candidates = int(np.prod([a.size for a in axes]))

    kept: list[np.ndarray] = []
    kept_quad: list[np.ndarray] = []
    n_kept = 0
    # Slab over the first axis keeps peak memory flat for large boxes.
    tail_sizes = [a.size for a in axes[1:]]
    tail_total = int(np.prod(tail_sizes)) if tail_sizes else 1
    slab_rows = max(1, _ENUM_SLAB // max(tail_total, 1))
    if tail_total > 64 * _ENUM_SLAB:
        raise ValueError(
            f"mode enumeration box ({n_candidates} candidates) exceeds the "
            f"cap of {mode_cap}; reduce the window side or increase tol")
    for start in range(0, axes[0].size, slab_rows):
        first = axes[0][start:start + slab_rows]
        grid = np.meshgrid(first, *axes[1:], indexing="ij")
        k = np.stack([g.reshape(-1) for g in grid], axis=1)
        quad = np.einsum("ij,jl,il->i", k.astype(float), sigma.entries,
                         k.astype(float))
        mask = quad < bound
        if mask.any():
            kept.append(k[mask])
            kept_quad.append(quad[mask])
            n_kept += int(mask.sum())
            if n_kept > mode_cap:
                raise ValueError(
                    f"mode count exceeds the cap of {mode_cap}; "
                    "reduce the window side or increase tol")
    modes = np.concatenate(kept, axis=0)
    quad = np.concatenate(kept_quad)
    eigenvalues = np.exp(-2.0 * math.pi ** 2 * quad / side ** 2)
    return SpectralBasis(modes=modes, eigenvalues=eigenvalues, side=side, tol=tol)


def _realified_selection(rng, basis: SpectralBasis):
    """Bernoulli-thin the realified eigenbasis.

    Each pair {k, -k} carries two real eigenfunctions (cosine and sine,
    both with eigenvalue lam_k) that get independent Bernoulli draws; the
    zero mode carries the constant function.  Returns the integer
    frequencies of the selected real modes, a sine/cosine flag, and the
    amplitude of each feature function.
    """
    modes = basis.modes
    lam = basis.eigenvalues
    d = modes.shape[1]
    # Lexicographically positive representative of each {k, -k} pair.
    nonzero = np.any(modes != 0, axis=1)
    first_sign = np.zeros(modes.shape[0], dtype=np.int64)
    for j in range(d):
        undecided = first_sign == 0
        first_sign[undecided] = np.sign(modes[undecided, j])
    reps = first_sign > 0

    order = np.arange(modes.shape[0])
    rep_idx = order[reps]
    zero_idx = order[~nonzero]

    k_rows = []
    sin_flag = []
    lam_rows = []
    if zero_idx.size:
        k_rows.append(modes[zero_idx])
        sin_flag.append(np.zeros(1, dtype=bool))
        lam_rows.append(lam[zero_idx])
    k_rows.append(np.repeat(modes[rep_idx], 2, axis=0))
    pair_flags = np.tile([False, True], rep_idx.size)
    sin_flag.append(pair_flags)
    lam_rows.append(np.repeat(lam[rep_idx], 2))

    k_all = np.concatenate(k_rows, axis=0)
    sin_all = np.concatenate(sin_flag)
    lam_all = np.concatenate(lam_rows)
    selected = rng.random(lam_all.size) < lam_all
    return k_all[selected], sin_all[selected]


def _cos2_inverse_cdf(u: np.ndarray) -> np.ndarray:
    """Quantiles of the density cos(t)^2 / pi on [0, 2*pi), by bisection.

    The CDF (2t + sin 2t) / (4 pi) is monotone but its derivative vanishes
    at the density zeros, so plain Newton is fragile; 50 bisection steps
    resolve the quantile to ~1e-15 of the period.
    """
    lo = np.zeros_like(u)
    hi = np.full_like(u, 2.0 * math.pi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        below = (2.0 * mid + np.sin(2.0 * mid)) < 4.0 * math.pi * u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _sample_projection(rng, k_sel, sin_sel, side, max_rejects, batch=2048):
    """Draw the rank-m projection DPP of the selected real Fourier modes.

    Points are sampled sequentially; each conditional density is the
    squared norm of the feature vector projected on the orthogonal
    complement of the already-selected directions.  Proposals are drawn
    from the diagonal density ||psi(x)||^2 / m (an equal mixture of the
    per-mode densities, each of which is sampled exactly by inverting the
    cos^2 law along one axis); a proposal is accepted with probability
    K_j(x,x) / ||psi(x)||^2, which is a valid dominated-rejection scheme
    with no envelope slack, so point j+1 costs m/(m-j) proposals on
    average.

    Three devices keep the cost at a few large matrix products instead of
    one basis pass per accepted point:

    * proposals are processed in blocks; inside a block the conditional
      updates caused by fresh acceptances are tracked through their
      projections onto the block rows (an O(block) vector per acceptance)
      and only folded into the orthonormal basis at block boundaries;
    * once selected directions fill half the active space, everything is
      rewritten in an orthonormal basis of their complement, so later
      per-proposal work scales with the remaining rank;
    * while more than 256 points remain, the conditionals are evaluated in
      single precision, which perturbs acceptance probabilities by less
      than ~1e-4 relative (far below the spectral truncation error); the
      final stretch, where conditional values are small differences of
      large norms, runs in double precision on a re-orthonormalized basis.
    """
    m, d = k_sel.shape
    out = np.empty((m, d))
    if m == 0:
        return out
    ld = side ** float(d)
    # Cosine modes first, sines after, so the feature matrix is assembled
    # from two contiguous slices of the complex mode values.
    order = np.argsort(sin_sel, kind="stable")
    k_sel = k_sel[order]
    sin_sel = sin_sel[order]
    n_cos = int(np.count_nonzero(~sin_sel))
    is_const = ~sin_sel & np.all(k_sel == 0, axis=1)
    base_amp = math.sqrt(2.0 / ld)
    const_cols = np.nonzero(is_const)[0]
    omega = 2.0 * math.pi / side

    # Proposal machinery: mode i is drawn uniformly, the coordinates are
    # drawn uniformly, and then the first coordinate on which the mode's
    # frequency is nonzero is redrawn from the exact conditional cos^2 law
    # (for the constant mode every marginal is already uniform).
    pivot_axis = np.argmax(k_sel != 0, axis=1)
    pivot_freq = np.take_along_axis(k_sel, pivot_axis[:, None], axis=1)[:, 0]
    mode_shift = np.where(sin_sel, 0.5 * math.pi, 0.0)

    def _draw_proposals(nb):
        x = rng.uniform(-side / 2.0, side / 2.0, size=(nb, d))
        mi = rng.integers(0, m, size=nb)
        u_quant = rng.random(nb)
        u_period = rng.random(nb)
        k_rows = k_sel[mi]
        ka = pivot_freq[mi]
        live = ka != 0
        if np.any(live):
            axis = pivot_axis[mi]
            t_val = _cos2_inverse_cdf(u_quant)
            rows = np.arange(nb)
            dot = np.einsum("bd,bd->b", k_rows.astype(float), x)
            rest = omega * (dot - ka * x[rows, axis])
            ka_safe = np.where(live, ka, 1)
            base = (t_val + mode_shift[mi] - rest) / (omega * ka_safe)
            step = side / np.abs(ka_safe)
            xa = base + np.floor(u_period * np.abs(ka_safe)) * step
            xa = np.mod(xa + side / 2.0, side) - side / 2.0
            x[rows[live], axis[live]] = xa[live]
        return x

    # exp(2 pi i <k, x> / L) factorizes over dimensions; each factor is a
    # row gather from a per-dimension table of exponentials over the
    # k-range.  Tables and features are kept transposed, (modes, batch),
    # so the gathers are contiguous row copies; BLAS consumes the
    # transposed view without further copying.  The mode values are
    # gathered in single precision (relative error ~1e-7, far below the
    # spectral truncation tol) and promoted to float64 for all linear
    # algebra.
    k_lo = k_sel.min(axis=0)
    k_hi = k_sel.max(axis=0)
    k_idx = np.stack([k_sel[:, t] - k_lo[t] for t in range(d)])

    def _features_t(x, dt):
        nb = x.shape[0]
        psi_t = np.empty((m, nb), dtype=dt)
        zt = None
        for t in range(d):
            table = np.exp(1j * omega * np.outer(
                np.arange(k_lo[t], k_hi[t] + 1),
                x[:, t])).astype(np.complex64)
            if zt is None:
                zt = table[k_idx[t]]
            else:
                zt *= table[k_idx[t]]
        psi_t[:n_cos] = zt[:n_cos].real
        psi_t[n_cos:] = zt[n_cos:].imag
        psi_t *= base_amp
        if const_cols.size:
            psi_t[const_cols] *= math.sqrt(0.5)
        return psi_t

    accept_target = 32     # sizes each block for about this many acceptances
    tail_switch = 256      # remaining rank at which float64 takes over

    dt = np.float64 if m - 0 <= tail_switch else np.float32
    proj = None           # (m, q) complement basis; None means identity
    q = m                 # active dimension
    u_sel = np.empty((q, q), dtype=dt)
    s = 0                 # orthonormalized directions since last compression
    j = 0                 # points selected so far
    rejects = 0

    while j < m:
        if dt is np.float32 and m - j <= tail_switch:
            # Rebuild the complement basis in double precision for the
            # small-conditional endgame.
            if s:
                full = np.linalg.qr(u_sel[:, :s].astype(np.float64),
                                    mode="complete")[0]
                comp = full[:, s:]
                proj = comp if proj is None else proj.astype(np.float64) @ comp
            elif proj is not None:
                proj = proj.astype(np.float64)
            if proj is not None:
                proj = np.linalg.qr(proj, mode="reduced")[0]
                q = proj.shape[1]
            dt = np.float64
            u_sel = np.empty((q, q), dtype=dt)
            s = 0
        nbatch = min(max(int(accept_target * m / (m - j)), 1024), batch)
        pcap = min(nbatch, 1024)
        x = _draw_proposals(nbatch)
        tickets = rng.random(nbatch)
        psi_t = _features_t(x, dt)
        nrm2 = np.einsum("ib,ib->b", psi_t, psi_t)
        if proj is not None:
            feats = psi_t.T @ proj
        else:
            feats = np.ascontiguousarray(psi_t.T)
        kv = np.einsum("ij,ij->i", feats, feats)
        g = None
        if s:
            g = feats @ u_sel[:, :s]
            kv -= np.einsum("ij,ij->i", g, g)
        # Projections of all block rows onto directions accepted within
        # this block (not yet folded into u_sel).
        pend = np.empty((pcap, nbatch), dtype=dt)
        rows: list[int] = []
        pos = 0
        while pos < nbatch and j < m and len(rows) < pcap:
            ok = tickets[pos:] * nrm2[pos:] < kv[pos:]
            hit = int(np.argmax(ok))
            if not ok[hit]:
                rejects += nbatch - pos
                if rejects > max_rejects:
                    raise RuntimeError(
                        f"rejection budget of {max_rejects} exhausted "
                        f"at point {j + 1}/{m}")
                break
            a = pos + hit
            rejects = 0
            out[j] = x[a]
            j += 1
            if j == m:
                break
            # <new direction, feature row b> for every b, via the identity
            # resid(a) = feats[a] - U g[a] - sum_l pend_l pend_l[a].
            c = feats @ feats[a]
            if s:
                c -= g @ g[a]
            p = len(rows)
            if p:
                c -= pend[:p].T @ pend[:p, a]
            norm2 = float(kv[a])
            if norm2 <= 0.0:
                raise RuntimeError("conditional kernel collapsed at acceptance")
            c /= math.sqrt(norm2)
            pend[p] = c
            rows.append(a)
            kv -= c * c
            pos = a + 1
        if j == m:
            break
        p = len(rows)
        if p:
            # Fold pending directions into the orthonormal basis in
            # acceptance order; periodic compressions below re-orthonormalize
            # everything, which keeps the drift of this single pass benign.
            v = feats[rows]
            if s:
                v -= g[rows] @ u_sel[:, :s].T
            u_sel[:, s:s + p] = np.linalg.qr(v.T, mode="reduced")[0]
            s += p
        if 2 * s >= q and q - s >= 16:
            full = np.linalg.qr(u_sel[:, :s], mode="complete")[0]
            comp = full[:, s:]
            proj = comp if proj is None else proj @ comp
            q = comp.shape[1]
            u_sel = np.empty((q, q), dtype=dt)
            s = 0
    return out


def sample_gdp(sigma: ScatteringMatrix, window: BoxWindow, seed,
               tol: float = DEFAULT_TOL, mode_cap: int = DEFAULT_MODE_CAP,
               max_rejects: int = DEFAULT_MAX_REJECTS,
               basis: SpectralBasis | None = None) -> PointPattern:
    """Draw one Gaussian DPP realization on the torus window.

    Deterministic given (sigma, window, seed, tol).  The expected point
    count is the eigenvalue sum of the spectral basis, about L^d for a
    normalized scattering matrix; the count itself is a sum of independent
    Bernoullis, hence sub-Poisson.

    Parameters
    ----------
    seed : int or anything accepted by numpy.random.default_rng.
    basis : SpectralBasis, optional
        Reuse a prebuilt basis (it is immutable and shareable); must match
        sigma, window.side and tol.
    """
    if window.dim != sigma.dim:
        raise ValueError("window and scattering matrix dimensions differ")
    if basis is None:
        basis = build_spectral_basis(sigma, window.side, tol, mode_cap)
    elif basis.side != window.side or basis.tol != tol:
        raise ValueError("prebuilt basis does not match window side / tol")
    rng = np.random.default_rng(seed)
    k_sel, sin_sel = _realified_selection(rng, basis)
    pts = _sample_projection(rng, k_sel, sin_sel, window.side, max_rejects)
    return PointPattern(pts, window)


def sample_poisson(intensity: float, window: BoxWindow, seed) -> PointPattern:
    """Homogeneous Poisson reference process on the same window."""
    if not intensity > 0:
        raise ValueError("intensity must be positive")
    rng = np.random.default_rng(seed)
    n = rng.poisson(intensity * window.volume)
    pts = rng.uniform(-window.side / 2.0, window.side / 2.0, size=(n, window.dim))
    return PointPattern(pts, window)


def _ensemble_worker(args):
    sigma_entries, side, seed_pair, tol, basis = args
    sigma = ScatteringMatrix(sigma_entries)
    window = BoxWindow(side, sigma.dim)
    return sample_gdp(sigma, window, seed_pair, tol=tol, basis=basis).points


def sample_gdp_ensemble(sigma: ScatteringMatrix, window: BoxWindow,
                        n_replicates: int, seed: int,
                        tol: float = DEFAULT_TOL,
                        jobs: int = 1) -> list[PointPattern]:
    """Independent replicates with derived per-replicate seeds.

    Replicate i uses seed (seed, i), so any prefix of the ensemble is
    reproducible regardless of n_replicates or the number of workers.
    With jobs > 1, replicates run in spawned worker processes pinned to
    single-threaded BLAS (the parallelism is across replicates, not
    inside them).
    """
    basis = build_spectral_basis(sigma, window.side, tol)
    if jobs <= 1 or n_replicates < 2:
        return [sample_gdp(sigma, window, (seed, i), tol=tol, basis=basis)
                for i in range(n_replicates)]
    tasks = [(sigma.entries, window.side, (seed, i), tol, basis)
             for i in range(n_replicates)]
    saved = {var: os.environ.get(var)
             for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}
    os.environ.update({var: "1" for var in saved})
    try:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            all_pts = list(pool.map(_ensemble_worker, tasks, chunksize=1))
    finally:
        for var, val in saved.items():
            if val is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = val
    return [PointPattern(p, window) for p in all_pts]


def empirical_pair_correlation(patterns, bin_edges) -> list[tuple[float, float]]:
    """Radial pair-correlation estimate on torus windows.

    For each bin the ordered-pair count at that separation (torus metric)
    is divided by the count an intensity-1 Poisson process would produce,
    L^d * |shell|, and averaged over patterns.  The torus has no boundary,
    so no edge correction is needed or applied.

    Returns a list of (bin center, estimate) pairs.
    """
    patterns = list(patterns)
    if not patterns:
        raise ValueError("need at least one pattern")
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be increasing with at least two entries")
    window = patterns[0].window
    if not isinstance(window, BoxWindow):
        raise ValueError("pair-correlation estimate expects box (torus) windows")
    side, d = window.side, window.dim
    if edges[-1] > side / 2:
        raise ValueError("largest bin edge exceeds half the torus side")
    vb1 = unit_ball_volume(d)
    shell = side ** d * vb1 * (edges[1:] ** d - edges[:-1] ** d)

    totals = np.zeros(edges.size - 1)
    for pat in patterns:
        if pat.window != window:
            raise ValueError("all patterns must share the same window")
        pts = pat.points
        n = pts.shape[0]
        # Row blocks against the points from their first row on; pairs i < j.
        step = max(1, _PAIR_BLOCK_ENTRIES // max(n, 1))
        for start in range(0, n - 1, step):
            diff = np.abs(pts[start:start + step, None, :] - pts[None, start:, :])
            diff = np.minimum(diff, side - diff)
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            upper = np.triu_indices(dist.shape[0], 1, dist.shape[1])
            counts, _ = np.histogram(dist[upper], bins=edges)
            totals += 2.0 * counts  # ordered pairs
    est = totals / (len(patterns) * shell)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return list(zip(centers.tolist(), est.tolist()))


def count_dispersion_test(counts) -> tuple[float, float]:
    """One-sided test of variance < mean for replicate point counts.

    Returns (dispersion ratio, approximate p-value).  Under a Poisson
    null, (K-1) * var / mean follows a chi-square with K-1 degrees of
    freedom; the p-value is its lower tail via the Wilson-Hilferty normal
    approximation (accurate to ~1e-4 for K in the hundreds).  Small
    p-values support sub-Poisson (repulsive) counts.
    """
    c = np.asarray(counts, dtype=float)
    if c.size < 2:
        raise ValueError("need at least two replicate counts")
    mean = float(c.mean())
    var = float(c.var(ddof=1))
    if mean <= 0:
        raise ValueError("counts are identically zero")
    f = c.size - 1
    t = f * var / mean
    z = ((t / f) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * f))) / math.sqrt(2.0 / (9.0 * f))
    p = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return var / mean, p
