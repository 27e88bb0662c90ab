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
from dataclasses import dataclass

import numpy as np

from .estimator import unit_ball_volume
from .kernel import ScatteringMatrix
from .patterns import BoxWindow, PointPattern, close_pairs

DEFAULT_TOL = 1e-6
DEFAULT_MODE_CAP = 2_000_000
DEFAULT_MAX_REJECTS = 1_000_000

_ENUM_SLAB = 1 << 20  # candidate rows processed per slab while enumerating
_MAX_BLOCK = 2048  # largest block of sampler proposals
_GRAM_PANEL = 128  # candidate rows per product in the sampler's scan
_TRI_BLOCK = 64  # rows per block of the triangular solve in compressions
_FEATURE_CHUNK = 1 << 16  # phase entries per chunk of feature assembly
_SCREEN_ROWS = 512  # block rows per chunk of the sampler's candidate screening


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
    # Lexicographically positive representative of each {k, -k} pair: its
    # first nonzero coordinate is positive.
    is_nonzero = modes != 0
    nonzero = np.any(is_nonzero, axis=1)
    first_axis = np.argmax(is_nonzero, axis=1)
    reps = np.take_along_axis(modes, first_axis[:, None], axis=1)[:, 0] > 0

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


def _features(k_float, shift, amp, x, side):
    """Real Fourier features of the points x: (points, modes) float32.

    Entry (b, i) is amp[i] * cos(2 pi (<k_i, x_b> / L - shift[i])); a shift
    of a quarter turn makes it the sine of the same frequency.  The phase
    is formed in float64 turns and reduced to [-1/2, 1/2] before the cosine
    is taken in float32, so the absolute error stays ~3e-7 * amp at any |k|
    (far below the spectral truncation tol).  Rows go in chunks small
    enough for the float64 phase to stay in cache.
    """
    psi = np.empty((x.shape[0], k_float.shape[0]), dtype=np.float32)
    step = max(1, _FEATURE_CHUNK // k_float.shape[0])
    turns = x / side
    for lo in range(0, x.shape[0], step):
        phase = turns[lo:lo + step] @ k_float.T
        phase -= shift
        phase -= np.rint(phase)
        out = psi[lo:lo + step]
        np.multiply(phase, 2.0 * math.pi, out=out, casting="same_kind")
        np.cos(out, out=out)
        out *= amp
    return psi


def _solve_upper(a, b):
    """Solve a w = b for upper triangular a, by blocks of rows from the
    bottom up, so nearly all the work is matrix products."""
    w = np.empty_like(b)
    n = a.shape[0]
    for lo in range((n - 1) // _TRI_BLOCK * _TRI_BLOCK, -1, -_TRI_BLOCK):
        hi = min(lo + _TRI_BLOCK, n)
        rhs = b[lo:hi] - a[lo:hi, hi:] @ w[hi:]
        w[lo:hi] = np.linalg.solve(a[lo:hi, lo:hi], rhs)
    return w


def _orthonormal_basis(a, complement=False):
    """Orthonormal basis of the column span of a (q, s), or of its
    orthogonal complement.

    With Householder factors a = H_1 ... H_s R, the span is the first s
    columns of Q = H_1 ... H_s and the complement the last q - s.  The
    compact-WY form Q = I - V T V' gives either set by products with the
    reflectors V alone; the upper triangular T comes from
    T^-1 = striu(V'V) + diag(1/tau).  The other columns of Q are never
    formed.
    """
    q, s = a.shape
    h, tau = np.linalg.qr(a, mode="raw")  # h.T holds R and the reflectors
    diag = np.arange(s)
    v = h.T  # turned into the unit lower trapezoid V in place
    v[:s][~np.tri(s, dtype=bool, k=-1)] = 0.0
    v[diag, diag] = 1.0
    t_inv = np.triu(v.T @ v, 1)
    t_inv[diag, diag] = 1.0 / tau
    cols = slice(s, q) if complement else slice(0, s)
    basis = v @ _solve_upper(t_inv, v[cols].T)
    basis *= -1.0
    n = basis.shape[1]
    basis[cols.start + np.arange(n), np.arange(n)] += 1.0  # plus I[:, cols]
    return basis


def _sample_projection(rng, k_sel, sin_sel, side, max_rejects):
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

    Proposals are processed in blocks, and four devices keep the cost at
    a few large matrix products instead of one basis pass per accepted
    point, and the memory at a few copies of the active basis:

    * chunked screening: a block's rows go through one pass in chunks of
      _SCREEN_ROWS rows.  Each chunk forms its features, their squared
      norms, its projection on the active basis and the conditional
      values, and keeps only its candidate rows (next item).  Only the
      candidates' projected features outlive their chunk, and they are
      released before the compression.  Each product packs
      the basis anew, so a chunk needs many rows: at d=2, L=60, chunks of
      37 rows made the sampler 25% slower than one product per block,
      chunks of 512 rows no slower;
    * candidate scan: inside a block the conditional values only go down,
      so a proposal that fails its acceptance test at block start can
      never pass in that block.  The candidates are the rows that pass,
      and the sequential scan runs over those rows alone.  Their
      conditional Gram rows come from one product per panel of candidates,
      formed when the scan reaches the panel (so a block that ends early
      pays only for the rows it reached), and the updates caused by fresh
      acceptances are tracked through pending vectors (one Cholesky
      column per acceptance);
    * per-block compression: after every block that accepted points, the
      active basis is replaced by an orthonormal basis of the complement
      of the accepted feature vectors, built from their Householder
      factors in compact-WY form.  Each block thus starts with no selected
      directions in an active space of dimension m - j, the conditional
      values are plain squared norms, and per-proposal work scales with
      the remaining rank;
    * float32 phase: features are cosines of phases formed in float64
      turns and reduced to one period before the float32 cosine.  While
      more than 256 points remain, all linear algebra runs in single
      precision, which perturbs acceptance probabilities by less than
      ~1e-4 relative (far below the spectral truncation error).  The
      conditional value is the squared norm of the projection psi @ proj,
      whose inner products of length m cancel to a relative error of
      about m * eps once it is much smaller than ||psi||^2, as it is when
      few points remain.  So the final stretch runs in double precision
      on a re-orthonormalized basis.
    """
    m, d = k_sel.shape
    out = np.empty((m, d))
    if m == 0:
        return out
    ld = side ** float(d)
    # Cosine modes first, sines after: the mode order fixes which mode
    # each proposal's random index picks, hence the sampled stream.
    order = np.argsort(sin_sel, kind="stable")
    k_sel = k_sel[order]
    sin_sel = sin_sel[order]
    is_const = ~sin_sel & np.all(k_sel == 0, axis=1)
    amp = np.where(is_const, math.sqrt(1.0 / ld), math.sqrt(2.0 / ld)).astype(np.float32)
    shift = np.where(sin_sel, 0.25, 0.0)
    k_float = k_sel.astype(float)
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

    # Blocks hold at least 1024 rows, so an early float32 block accepts
    # hundreds of points; once the acceptance rate (m - j) / m falls below
    # 1/32 they grow, up to _MAX_BLOCK rows, to expect this many acceptances.
    accept_target = 32
    tail_switch = 256      # remaining rank at which float64 takes over

    dt = np.float64 if m <= tail_switch else np.float32
    proj = None           # (m, m - j) complement basis; None means identity
    j = 0                 # points selected so far
    rejects = 0

    while j < m:
        if dt is np.float32 and m - j <= tail_switch:
            # Re-orthonormalize the complement basis in double precision
            # for the small-conditional endgame.
            if proj is not None:
                proj = _orthonormal_basis(proj.astype(np.float64))
            dt = np.float64
        nbatch = min(max(int(accept_target * m / (m - j)), 1024), _MAX_BLOCK)
        pcap = min(nbatch, 1024)
        x = _draw_proposals(nbatch)
        tickets = rng.random(nbatch)
        # kv only falls within a block, so a row that fails now never
        # passes: each row chunk keeps its candidates alone.
        pieces = []
        for lo in range(0, nbatch, _SCREEN_ROWS):
            hi = lo + _SCREEN_ROWS
            psi = _features(k_float, shift, amp, x[lo:hi], side).astype(dt, copy=False)
            nrm2 = np.einsum("bi,bi->b", psi, psi)
            feats = psi if proj is None else psi @ proj
            kv = np.einsum("ij,ij->i", feats, feats)
            thr = tickets[lo:hi] * nrm2
            keep = np.flatnonzero(thr < kv)
            pieces.append((keep + lo, thr[keep], kv[keep], feats[keep]))
        cand, thr, kv, feats = (np.concatenate(p) for p in zip(*pieces))
        del pieces, psi
        # Row l of pend holds the projections of the later candidates onto
        # the l-th direction accepted in this block.
        pend = np.empty((pcap, cand.size), dtype=dt)
        rows: list[int] = []
        nxt = 0               # next candidate to test
        top = end = 0         # gram holds the rows of candidates top..end-1
        while j < m and len(rows) < pcap:
            hits = np.flatnonzero(thr[nxt:] < kv[nxt:])
            if not hits.size:
                # Consecutive rejections since the last acceptance: every
                # block row after it.
                rejects += nbatch - (int(cand[rows[-1]]) + 1 if rows else 0)
                if rejects > max_rejects:
                    raise RuntimeError(
                        f"rejection budget of {max_rejects} exhausted "
                        f"at point {j + 1}/{m}")
                break
            a = nxt + int(hits[0])
            rejects = 0
            out[j] = x[cand[a]]
            j += 1
            if j == m:
                break
            if a >= end:
                # Gram rows of the next candidates against all later ones,
                # formed as one product once the scan gets there.
                top, end = a, a + _GRAM_PANEL
                gram = feats[top:end] @ feats[top:].T
            # <new direction, later candidate b>, from the Gram row minus
            # the directions accepted earlier in this block.
            c = gram[a - top, a - top + 1:]
            p = len(rows)
            if p:
                c = c - pend[:p, a + 1:].T @ pend[:p, a]
            norm2 = float(kv[a])
            if norm2 <= 0.0:
                raise RuntimeError("conditional kernel collapsed at acceptance")
            c = c / math.sqrt(norm2)
            pend[p, a + 1:] = c
            rows.append(a)
            kv[a + 1:] -= c * c
            nxt = a + 1
        if rows and j < m:
            accepted = feats[rows].T
            del feats, pend, gram  # free the block before compressing
            comp = _orthonormal_basis(accepted, complement=True)
            proj = comp if proj is None else proj @ comp
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


def sample_gdp_ensemble(sigma: ScatteringMatrix, window: BoxWindow,
                        n_replicates: int, seed: int,
                        tol: float = DEFAULT_TOL) -> list[PointPattern]:
    """Independent replicates drawn one after another from one shared
    spectral basis.

    Replicate i uses seed (seed, i), so any prefix of the ensemble is
    reproducible regardless of n_replicates.
    """
    basis = build_spectral_basis(sigma, window.side, tol)
    return [sample_gdp(sigma, window, (seed, i), tol=tol, basis=basis)
            for i in range(n_replicates)]


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

    # The last bin is closed: query a hair beyond its edge and let the
    # histogram drop the rest.
    reach = edges[-1] * (1.0 + 1e-9)
    totals = np.zeros(edges.size - 1)
    for pat in patterns:
        if pat.window != window:
            raise ValueError("all patterns must share the same window")
        pts = pat.points
        i, j = close_pairs(pts, reach, side)
        diff = np.abs(pts[i] - pts[j])
        diff = np.minimum(diff, side - diff)
        counts, _ = np.histogram(np.sqrt(np.einsum("ij,ij->i", diff, diff)), bins=edges)
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
