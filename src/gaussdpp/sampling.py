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
import os
import pickle
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .kernel import TWO_PI, ScatteringMatrix, spectral_density
from .patterns import BoxWindow, PointPattern, close_pairs, unit_ball_volume

DEFAULT_TOL = 1e-6

_MODE_CAP = 2_000_000  # largest spectral basis; more signals a window too large
_MODE_ENTRIES = 16_000_000  # most coordinates in one level of mode prefixes: the cap in d = 8
_MAX_REJECTS = 1_000_000  # consecutive rejections before the sampler gives up
_MAX_BLOCK = 2048  # largest block of sampler proposals
_GRAM_PANEL = 128  # candidate rows per product in the sampler's scan
_FEATURE_CHUNK = 1 << 16  # phase entries per chunk of feature assembly
_SCREEN_ROWS = 512  # block rows per chunk of the sampler's candidate screening
_QR_LEAF = 16  # most columns of a double-precision leaf of the recursive QR
_WY_CHUNK = 256  # rows or columns per product when applying reflectors


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated Fourier eigensystem of the periodized kernel.

    modes : (M, d) integer array, lexicographically sorted, closed under
        k -> -k.
    eigenvalues : (M,) values of the spectral density at modes/L, each in
        (DEFAULT_TOL, 1].
    """

    modes: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.modes.setflags(write=False)
        self.eigenvalues.setflags(write=False)


def build_spectral_basis(sigma: ScatteringMatrix, side: float) -> SpectralBasis:
    """Enumerate all Fourier modes with eigenvalue above DEFAULT_TOL.

    The retained set is the integer ellipsoid k' S k < L^2 log(1/DEFAULT_TOL)
    / (2 pi^2).  Its eigenvalue sum divided by L^d approximates the unit
    point density, up to the truncation and the Gaussian tail.  Looser
    tolerances would not speed sampling up (its cost is set by the
    selected rank, not by the mode count) and only bias the count.

    Modes are built one coordinate at a time (Fincke-Pohst), so work and
    memory follow the kept modes and their prefixes.  Raises if a count
    exceeds _MODE_CAP, which signals a window too large for the dimension,
    or if a level of prefixes would hold more than _MODE_ENTRIES
    coordinates, before it is built; the volume lower bound checked first
    only guards huge windows.
    """
    if not sigma.normalized:
        raise ValueError("sampler requires a normalized scattering matrix "
                         "(use normalize_scattering)")
    if not side > 0:
        raise ValueError("window side must be positive")
    d = sigma.dim
    bound = side ** 2 * math.log(1.0 / DEFAULT_TOL) / (2.0 * math.pi ** 2)
    # Lower bound on the mode count: the lattice point nearest to any x
    # lies within sqrt(d)/2 of it, so within rho = sqrt(d ||S|| / 4) in
    # the S-norm.  The unit cells of the retained modes thus cover the
    # shrunk ellipsoid sqrt(k' S k) < sqrt(bound) - rho, whose volume
    # bounds their count (rho carries a margin for rounding in quad).
    rho = math.sqrt(0.25 * d * sigma.operator_norm) + 1e-6 * math.sqrt(bound)
    if math.sqrt(bound) > rho:
        log_min_count = (math.log(unit_ball_volume(d)) - 0.5 * sigma.log_det
                         + d * math.log(math.sqrt(bound) - rho))
        if log_min_count > math.log(_MODE_CAP):
            raise ValueError(
                f"mode count (at least 10^{log_min_count / math.log(10):.1f}) exceeds "
                f"the cap of {_MODE_CAP}; reduce the window side")
    # k' S k = sum_i (g_i . k)^2, g lower triangular: a prefix with terms s
    # takes the k_i with (g_ii k_i - c)^2 < bound - s, the bound 1e-9 larger
    # lest rounding drop a mode.  The last pass keeps modes by the one test.
    g = np.flip(np.linalg.cholesky(np.flip(sigma.entries)).T)
    modes, partial = np.zeros((1, 0)), np.zeros(1)  # integer modes, held as floats
    for i in range(d + 1):
        if i < d:
            c, h = -(modes @ g[i, :i]), np.sqrt(np.maximum(bound * (1 + 1e-9) - partial, 0))
            lo = np.ceil((c - h) / g[i, i])
            counts = (np.floor((c + h) / g[i, i]) + 1 - lo).astype(np.int64)
        else:
            counts = np.einsum("ij,jl,il->i", modes, sigma.entries, modes) < bound
        if i != d - 1 and counts.sum() > _MODE_CAP:  # the last coordinate by its kept modes
            raise ValueError(f"mode count exceeds the cap of {_MODE_CAP}; reduce the window side")
        if counts.sum() * min(i + 1, d) > _MODE_ENTRIES:
            raise ValueError(f"{counts.sum()} mode prefixes of {min(i + 1, d)} coordinates exceed "
                             f"the budget of {_MODE_ENTRIES} coordinates; reduce the window side")
        rows = np.repeat(np.arange(counts.size), counts)
        modes = modes[rows]
        if i < d:  # each prefix's children in turn: lexicographic, k_1 major
            t = lo[rows] + np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
            partial = partial[rows] + (g[i, i] * t - c[rows]) ** 2
            modes = np.column_stack([modes, t])
    return SpectralBasis(eigenvalues=spectral_density(sigma, modes / side),
                         modes=modes.astype(np.int64))


def _realified_selection(rng, basis: SpectralBasis):
    """Bernoulli-thin the realified eigenbasis.

    Each pair {k, -k} carries two real eigenfunctions (cosine and sine,
    both with eigenvalue lam_k) that get independent Bernoulli draws; the
    zero mode carries the constant function.  The modes are sorted and
    closed under k -> -k, so the zero mode sits in the middle and the
    modes after it are the positive representatives of the pairs.  Its
    eigenvalue is 1: it is always kept.  Returns the integer frequencies
    of the selected real modes and each mode's phase shift in turns: 1/8
    for the zero mode, 0 for a cosine, 1/4 for a sine (see _features).

    The uniforms are drawn one per real mode in the order zero mode, then
    cosine and sine of each representative in turn.  The modes are
    returned in the order the sampler consumes them: the zero mode, the
    selected cosines, then the selected sines, each in representative
    order.  A proposal's random mode index picks a mode from that order,
    so the order fixes the sampled stream.
    """
    mid = basis.modes.shape[0] // 2
    reps, lam = basis.modes[mid + 1:], basis.eigenvalues[mid + 1:]
    u = rng.random(1 + 2 * lam.size)
    cosines, sines = reps[u[1::2] < lam], reps[u[2::2] < lam]
    k_sel = np.concatenate([basis.modes[mid:mid + 1], cosines, sines])
    return k_sel, np.repeat([0.125, 0.0, 0.25], [1, cosines.shape[0], sines.shape[0]])


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


def _features(k_float, shift, x, side):
    """Real Fourier features of the points x: (points, modes) float32.

    Entry (b, i) is cos(2 pi (<k_i, x_b> / L - shift[i])); a shift of a
    quarter turn makes it the sine of the same frequency.  The phase is
    formed in float64 turns, the shift entering the product as one more
    coordinate, and reduced to [-1/2, 1/2] before the cosine is taken in
    float32, so the absolute error stays ~3e-7 at any |k| (far below the
    spectral truncation DEFAULT_TOL).  Rows go in chunks small enough for
    the float64 phase to stay in cache.
    """
    psi = np.empty((x.shape[0], k_float.shape[0]), dtype=np.float32)
    step = max(1, _FEATURE_CHUNK // k_float.shape[0])
    turns = np.concatenate([x / side, np.full((x.shape[0], 1), -1.0)], axis=1)
    k_shift = np.concatenate([k_float, shift[:, None]], axis=1).T
    for lo in range(0, x.shape[0], step):
        phase = turns[lo:lo + step] @ k_shift
        phase -= np.rint(phase)
        out = psi[lo:lo + step]
        np.multiply(phase, 2.0 * math.pi, out=out, casting="same_kind")
        np.cos(out, out=out)
    return psi


def _householder(h):
    """Householder QR of h (q, s), q >= s, in place and in h's dtype.

    Recursive compact-WY QR (Elmroth & Gustavson 2000): the left half of
    the columns is factored, its reflectors are applied to the right half,
    the right half is factored below the left one's rows, and the two
    triangular factors are joined by T12 = -T1 (V1' V2) T2.  Leaves of at
    most _QR_LEAF columns are factored in double precision, their T built
    column by column as in LAPACK's larft; everything above them is
    matrix products in h's dtype.  On return h holds the reflectors V as a
    unit lower trapezoid (R is not kept), and the result is the upper
    triangular T of Q = H_1 ... H_s = I - V T V', in h's dtype.
    """
    s = h.shape[1]
    if s <= _QR_LEAF:
        raw, tau = np.linalg.qr(h.astype(np.float64), mode="raw")
        v = raw.T  # the reflectors, as a unit lower trapezoid
        v[:s][~np.tri(s, dtype=bool, k=-1)] = 0.0
        v[np.arange(s), np.arange(s)] = 1.0
        h[:] = v
        g = v.T @ v
        t = np.diag(tau)
        for i in range(1, s):
            t[:i, i] = -tau[i] * (t[:i, :i] @ g[:i, i])
        return t.astype(h.dtype)
    n1 = s // 2
    left, right = h[:, :n1], h[:, n1:]
    t = np.zeros((s, s), dtype=h.dtype)
    t[:n1, :n1] = t1 = _householder(left)
    # Q_1' = I - V_1 T_1' V_1' on the right half, formed transposed to
    # match the column-major h of the sampler.
    right -= ((right.T @ left) @ t1 @ left.T).T
    t[n1:, n1:] = t2 = _householder(right[n1:])
    right[:n1] = 0.0  # R12
    t[:n1, n1:] = -t1 @ ((left[n1:].T @ right[n1:]) @ t2)
    return t


def _compress(proj, a):
    """Restrict the orthonormal basis proj (m, q) to the complement of the
    accepted rows, whose coordinates in that basis are the columns of
    a (q, s); a is overwritten by its reflectors.

    With Householder factors a = H_1 ... H_s R, the complement of the span
    of a is spanned by the last q - s columns of Q = H_1 ... H_s =
    I - V T V' (compact-WY form).  The new basis is proj @ Q[:, s:] =
    proj[:, s:] - (proj V) W with W = T V[s:]', one product, applied to
    proj in place _WY_CHUNK rows at a time; the result is the column view
    proj[:, s:].  With proj None (the identity) Q[:, s:] itself is formed,
    _WY_CHUNK columns at a time; no other column of Q is.
    """
    q, s = a.shape
    t = _householder(a)
    t *= -1.0  # Q = I + V (-T) V'
    if proj is None:
        comp = np.empty((q, q - s), dtype=a.dtype)
        for lo in range(s, q, _WY_CHUNK):
            hi = min(lo + _WY_CHUNK, q)
            np.matmul(a, t @ a[lo:hi].T, out=comp[:, lo - s:hi - s])
        comp[np.arange(s, q), np.arange(q - s)] += 1.0  # plus I[:, s:]
        return comp
    w = t @ a[s:].T
    for lo in range(0, proj.shape[0], _WY_CHUNK):
        rows = proj[lo:lo + _WY_CHUNK]
        rows[:, s:] += (rows @ a) @ w
    return proj[:, s:]


def _sample_projection(rng, k_sel, shift, side):
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
    point, and the memory at one float32 basis: m^2 floats at the first
    compression (the accepted rows and the complement formed from them),
    one (m, m - j) buffer after it, plus chunk-sized temporaries:

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
      pays only for the rows it reached).  The updates caused by fresh
      acceptances are tracked through pending vectors (one Cholesky
      column per acceptance): a panel subtracts the directions accepted
      before it by one more product, and each acceptance only those
      accepted since the panel was formed;
    * per-block compression: after every block that accepted points, the
      active basis is restricted to the complement of the accepted
      feature vectors, built from their Householder factors in
      compact-WY form (see _compress).  The QR runs in the basis's own
      dtype, and from the second block on the complement is applied to
      the basis in place, which then shrinks to a column view of one
      buffer.  The block's features and accepted rows are released
      before the next block.  Each block thus starts with no selected
      directions in an active space of dimension m - j, the conditional
      values are plain squared norms, and per-proposal work scales with
      the remaining rank;
    * one precision: features are cosines of phases formed in float64
      turns and reduced to one period before the float32 cosine, and all
      linear algebra runs in float32 to the last point, at every rank.
      Against a float64 QR of all accepted feature rows, |kv - exact| /
      ||psi||^2 over the last 256 points (d = 2, 3) measured 2e-8 on
      average and 8e-7 at most, where kv / ||psi||^2 is typically 2e-3
      to 1e-2, and flipped no acceptance decision.  The error comes from
      the float32 features and earlier compressions: a float64 basis for
      the final stretch changed no decision, did not reduce it, and cost
      8-18% of sample_gdp.

    More than _MAX_REJECTS consecutive rejections raise RuntimeError.
    """
    m, d = k_sel.shape  # m >= 1: the zero mode is always selected
    out = np.empty((m, d))
    # Features carry no common factor: the acceptance test compares two
    # squared norms of the same features.  The shifts (in turns) make a
    # feature the sine of its frequency at a quarter turn, and give the
    # constant mode cos(-pi/4) = 1/sqrt(2), its norm against the others.
    k_float = k_sel.astype(float)
    omega = 2.0 * math.pi / side

    # Proposal machinery: mode i is drawn uniformly, the coordinates are
    # drawn uniformly, and then the first coordinate on which the mode's
    # frequency is nonzero is redrawn from the exact conditional cos^2 law
    # (for the constant mode every marginal is already uniform).
    pivot_axis = np.argmax(k_sel != 0, axis=1)
    pivot_freq = np.take_along_axis(k_sel, pivot_axis[:, None], axis=1)[:, 0]

    def _draw_proposals(nb):
        x = rng.uniform(-side / 2.0, side / 2.0, size=(nb, d))
        mi = rng.integers(0, m, size=nb)
        u_quant = rng.random(nb)
        u_period = rng.random(nb)
        rows = np.flatnonzero(pivot_freq[mi])  # the proposals whose pivot moves
        i = mi[rows]
        axis, ka = pivot_axis[i], pivot_freq[i]
        rest = omega * (np.einsum("bd,bd->b", k_float[i], x[rows]) - ka * x[rows, axis])
        base = (_cos2_inverse_cdf(u_quant[rows]) + TWO_PI * shift[i] - rest) / (omega * ka)
        xa = base + np.floor(u_period[rows] * np.abs(ka)) * (side / np.abs(ka))
        x[rows, axis] = np.mod(xa + side / 2.0, side) - side / 2.0
        return x

    # Blocks hold at least 1024 rows, so an early float32 block accepts
    # hundreds of points; once the acceptance rate (m - j) / m falls below
    # 1/32 they grow, up to _MAX_BLOCK rows, to expect this many acceptances.
    accept_target = 32

    proj = None           # (m, m - j) complement basis; None means identity
    j = 0                 # points selected so far
    rejects = 0

    while j < m:
        nbatch = min(max(int(accept_target * m / (m - j)), 1024), _MAX_BLOCK)
        x = _draw_proposals(nbatch)
        tickets = rng.random(nbatch)
        # kv only falls within a block, so a row that fails now never
        # passes: each row chunk keeps its candidates alone.
        pieces = []
        for lo in range(0, nbatch, _SCREEN_ROWS):
            hi = lo + _SCREEN_ROWS
            psi = _features(k_float, shift, x[lo:hi], side)
            nrm2 = np.einsum("bi,bi->b", psi, psi)
            feats = psi if proj is None else psi @ proj
            kv = np.einsum("ij,ij->i", feats, feats)
            thr = tickets[lo:hi] * nrm2
            keep = np.flatnonzero(thr < kv)
            pieces.append((keep + lo, thr[keep], kv[keep], feats[keep]))
            del psi, feats  # only the candidates outlive their chunk
        cand, thr, kv, feats = (np.concatenate(p) for p in zip(*pieces))
        del pieces
        # Row l of pend holds the projections of the later candidates onto
        # the l-th direction accepted in this block.
        pend = np.empty((min(cand.size, m - j), cand.size), dtype=np.float32)
        rows: list[int] = []
        nxt = 0               # next candidate to test
        # gram holds the rows of candidates top..end-1 against all later
        # ones, less the first p0 directions accepted in this block.
        top = end = p0 = 0
        while j < m:
            hits = np.flatnonzero(thr[nxt:] < kv[nxt:])
            if not hits.size:
                # Consecutive rejections since the last acceptance: every
                # block row after it.
                rejects += nbatch - (int(cand[rows[-1]]) + 1 if rows else 0)
                if rejects > _MAX_REJECTS:
                    raise RuntimeError(
                        f"rejection budget of {_MAX_REJECTS} exhausted "
                        f"at point {j + 1}/{m}")
                break
            a = nxt + int(hits[0])
            rejects = 0
            out[j] = x[cand[a]]
            j += 1
            if j == m:
                break
            p = len(rows)
            if a >= end:
                # Gram rows of the next candidates against all later ones,
                # less the directions accepted so far, formed as products
                # once the scan gets there.
                top, end, p0 = a, a + _GRAM_PANEL, p
                gram = feats[top:end] @ feats[top:].T
                if p0:
                    gram -= pend[:p0, top:end].T @ pend[:p0, top:]
            # <new direction, later candidate b>, from the Gram row minus
            # the directions accepted since the panel was formed.
            c = gram[a - top, a - top + 1:]
            if p > p0:
                c = c - pend[p0:p, a + 1:].T @ pend[p0:p, a]
            c = c / math.sqrt(float(kv[a]))  # kv[a] > thr[a] >= 0
            pend[p, a + 1:] = c
            rows.append(a)
            kv[a + 1:] -= c * c
            nxt = a + 1
        if rows and j < m:
            del pend, gram  # free the block before compressing
            accepted = feats[rows].T
            del feats
            proj = _compress(proj, accepted)
            del accepted  # nothing of the block outlives its compression
    return out


def _physical_memory() -> float:
    """Bytes of physical memory, inf where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf


def sample_gdp(sigma: ScatteringMatrix, window: BoxWindow, seed) -> PointPattern:
    """Draw one Gaussian DPP realization on the torus window.

    Deterministic given (sigma, window, seed).  The expected point count
    is the eigenvalue sum of the spectral basis truncated at DEFAULT_TOL,
    about L^d for a normalized scattering matrix; the count itself is a
    sum of independent Bernoullis, hence sub-Poisson.  Replicate i of a
    run with seed s is drawn with seed (s, i), so any prefix of a set of
    replicates is reproducible whatever their number.  MemoryError when the
    4 m^2 bytes of the first compression, m the rank, exceed physical memory.

    Parameters
    ----------
    seed : int or anything accepted by numpy.random.default_rng.
    """
    if window.dim != sigma.dim:
        raise ValueError("window and scattering matrix dimensions differ")
    basis = build_spectral_basis(sigma, window.side)
    rng = np.random.default_rng(seed)
    k_sel, shift = _realified_selection(rng, basis)
    m = k_sel.shape[0]
    if 4 * m * m > _physical_memory():
        raise MemoryError(f"a draw of rank {m} needs {4 * m * m} bytes, more than physical memory")
    return PointPattern(_sample_projection(rng, k_sel, shift, window.side), window)


def sample_poisson(window: BoxWindow, seed) -> PointPattern:
    """Homogeneous Poisson reference process of unit intensity on the same window."""
    rng = np.random.default_rng(seed)
    n = rng.poisson(window.volume)
    pts = rng.uniform(-window.side / 2.0, window.side / 2.0, size=(n, window.dim))
    return PointPattern(pts, window)


def map_replicates(fn, items) -> list:
    """[fn(x) for x in items], spread over one process per usable CPU.

    There are w = min(len(items), usable CPUs) workers, the usable CPUs
    being those of this process's affinity mask (one where the OS does not
    report it, as on macOS and Windows).  With w = 1 this is the plain list
    comprehension.  Otherwise w - 1 children are forked before any item is
    computed: each inherits fn and the caller's state, and worker k (the
    caller is worker 0) computes items k, k + w, k + 2w, ... in order.  A
    child writes each result, pickled, to an anonymous temporary file made
    for it before the fork; the caller, its own items done, waits for each
    child in turn and reads its file back.  So the result does not depend
    on w when fn(x) depends on x alone, as a replicate drawn from its own
    seed does.

    An exception raised by fn in a child is re-raised in the caller with its
    type and message, as is the error of a result that cannot be pickled.  A
    child that ends without a result (a signal, say) raises RuntimeError
    naming the replicate it was computing.  Every child is killed and reaped,
    and every file closed, before this returns or raises.  A child ends with
    os._exit: it never flushes the caller's stdio or runs its exit hooks.
    """
    items = list(items)
    affinity = getattr(os, "sched_getaffinity", None)
    w = min(len(items), len(affinity(0)) if affinity else 1)
    if w <= 1:
        return [fn(x) for x in items]
    import signal  # only here, off the import path of every command
    import tempfile

    results = [None] * len(items)
    children = []  # (k, pid, temporary file)
    reaped = set()
    try:
        for k in range(1, w):
            out = tempfile.TemporaryFile()
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns of a fork while other threads run, here
                    # a BLAS pool: the child runs this thread alone, and OpenBLAS
                    # stops its pool before a fork and restarts it on demand.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                out.close()
                raise
            if pid == 0:
                _serve(fn, items[k::w], out)
            children.append((k, pid, out))
        for i in range(0, len(items), w):
            results[i] = fn(items[i])
        for k, pid, out in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            out.seek(0)
            for i in range(k, len(items), w):
                try:  # a pickle stream delimits itself
                    ok, value = pickle.load(out)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"replicate {i} ended without a result: "
                                       f"its process {how}") from None
                if not ok:
                    raise value
                results[i] = value
        return results
    finally:
        for _, pid, out in children:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            out.close()


def _serve(fn, items, out) -> NoReturn:
    """A child's work: write (True, fn(x)) for each item in turn, or (False,
    the exception) and stop, each pickled whole before it is written, so a
    result that cannot be pickled sends its error, never half a record; then
    end the process without any cleanup, whatever happened."""
    code = 1
    try:
        for x in items:
            try:
                record, failed = pickle.dumps((True, fn(x))), False
            except Exception as exc:
                record, failed = pickle.dumps((False, exc)), True
            out.write(record)
            out.flush()
            if failed:
                break
        code = 0
    finally:
        os._exit(code)


def pair_metric(sigma: ScatteringMatrix) -> tuple[np.ndarray, float]:
    """Separation rho(u) = sqrt(u'(2 pi S)^-1 u) for a normalized S, as (W, s)
    with rho(u) = |u W| and |u| <= s rho(u).  For `isotropic_scattering(d)`
    W is exactly the identity and s is 1, so rho(u) is |u| to the bit."""
    if not sigma.normalized:
        raise ValueError("pair separation requires a normalized scattering matrix")
    scaled = TWO_PI * sigma.eigenvalues
    return sigma.eigenvectors / np.sqrt(scaled), math.sqrt(scaled[-1])


def empirical_pair_correlation(patterns, bin_edges,
                               sigma: ScatteringMatrix) -> list[tuple[float, float]]:
    """Pair-correlation estimate on torus windows, binned by the separation
    rho of `pair_metric(sigma)`, at which the model's pair correlation is
    1 - exp(-2 pi rho^2) for every sigma; for `isotropic_scattering(d)`
    rho is the torus distance.  The pairs and their signed torus
    differences come from `patterns.close_pairs`.

    For each bin the ordered-pair count at that separation (torus metric)
    is divided by the count an intensity-1 Poisson process would produce,
    L^d * |shell| (det(2 pi S) = 1 keeps the Euclidean shell volume), and
    averaged over patterns.  The torus has no boundary, so no edge
    correction is needed or applied.

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
    whiten, stretch = pair_metric(sigma)
    reach = edges[-1] * stretch  # Euclidean length of the largest separation
    if reach > side / 2:
        raise ValueError("pairs up to the largest bin edge reach beyond half the torus side")
    shell = side ** d * unit_ball_volume(d) * (edges[1:] ** d - edges[:-1] ** d)

    # The last bin is closed: query a hair beyond its reach and let the
    # histogram drop the rest.
    totals = np.zeros(edges.size - 1)
    for pat in patterns:
        if pat.window != window:
            raise ValueError("all patterns must share the same window")
        diff = close_pairs(pat.points, reach * (1.0 + 1e-9), side)[2] @ whiten
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
