"""Spectral dimension reduction from pairwise differences, with a PCA
baseline and ROC evaluation.

The DPP embedding ranks directions by the descending spectrum of the
pair-difference sum S(r) = sum over i != j with |Xi - Xj| < r of
(Xi - Xj)(Xi - Xj)', the data term of the scattering estimator.  Over all
pairs (the default) S = 2N Xc'Xc, Xc the column-centered rows, so the
embedding is covariance PCA, and "DPP vs PCA" at the defaults compares it
with the correlation PCA of `pca_embed`.  Only a finite r gives a local,
repulsion-based embedding: S(r) is then the graph-Laplacian form
2 X'(D - A)X of the 0/1 matrix A of pairs closer than r and its row sums D.

`roc_auc` scores any per-row ranking against binary labels; `gaussdpp roc`
ranks rows by one embedding coordinate, negated unless --flip, and
`reduce`'s scree.csv is the embedding's descending spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK_ENTRIES = 1 << 20  # distance entries per row block (8 MB of float64)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional per-row labels.

    Labels may be binary (0/1 integers) or raw categorical values; ROC
    evaluation requires the binary form.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] | None = None

    def __post_init__(self):
        f = np.array(self.features, dtype=float, copy=True)
        if f.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("features contain non-finite values")
        f.setflags(write=False)
        object.__setattr__(self, "features", f)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (f.shape[0],):
                raise ValueError(
                    f"labels have shape {lab.shape}, expected ({f.shape[0]},)")
            object.__setattr__(self, "labels", lab)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ProjectionResult:
    """Embedded coordinates plus the spectrum behind them.

    eigvals is the full descending spectrum used for ranking (pair-term
    spectrum for the DPP method, correlation spectrum for PCA);
    eigvecs holds the top-k components column-wise.  r_used is the DPP
    cutoff, None over all pairs and for PCA.
    """

    coords: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    method: str
    r_used: float | None = None

    def __post_init__(self):
        for arr in (self.coords, self.eigvals, self.eigvecs):
            arr.setflags(write=False)


def _fix_column_signs(vecs: np.ndarray) -> np.ndarray:
    """Largest-magnitude coordinate of each column made positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def _standardize(x: np.ndarray) -> np.ndarray:
    """Columns centered and scaled to unit sample variance."""
    sd = x.std(axis=0, ddof=1)
    bad = np.nonzero(sd == 0)[0]
    if bad.size:
        raise ValueError(f"zero-variance feature column(s) {bad.tolist()} "
                         "cannot be scaled")
    return (x - x.mean(axis=0)) / sd


def _sq_dist_blocks(xc: np.ndarray):
    """Yield (first row, squared distances from a block of rows to all rows,
    rounding bound), from the Gram form |a|^2 + |b|^2 - 2 a.b of centered
    rows.  Entries within the bound of a threshold may lie on either side
    of it and must be recomputed from the differences."""
    n, d = xc.shape
    sq = np.einsum("ij,ij->i", xc, xc)
    # Both this form and the sum of squared differences round by at most
    # about d eps (|a|^2 + |b|^2); the factor leaves a wide margin.
    rel = 8 * (d + 2) * np.finfo(float).eps
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        sq_b = sq[start:start + step]
        d2 = xc[start:start + step] @ xc.T
        d2 *= -2.0
        d2 += sq_b[:, None]
        d2 += sq
        yield start, d2, rel * (sq_b.max() + sq.max())


def pair_difference_sum(x: np.ndarray,
                        r: float | None = None) -> tuple[np.ndarray, int]:
    """Sum of (Xi - Xj)(Xi - Xj)' over ordered pairs i != j.

    With a cutoff r, only pairs at distance strictly below r contribute.
    Returns the matrix and the number of contributing ordered pairs.

    Over all pairs (r None or infinite) the sum is 2N Xc'Xc, Xc the
    column-centered rows.  With a finite r it is 2 Xc'(D - A)Xc, A the 0/1
    matrix of close pairs and D its row sums, accumulated by row blocks.
    Distances within rounding of r are recomputed from the differences,
    so the pair set is exactly the one defined above.
    """
    n, d = x.shape
    xc = x - x.mean(axis=0)  # the sum is translation invariant
    if r is None or math.isinf(r):
        return 2.0 * n * (xc.T @ xc), n * (n - 1)
    r2 = r * r
    half = np.zeros((d, d))
    pairs = 0
    for start, d2, tol in _sq_dist_blocks(xc):
        adj = d2 < r2
        near_i, near_j = np.nonzero(np.abs(d2 - r2) <= tol)
        exact = np.zeros(near_i.size)
        for k in range(d):
            exact += (x[start + near_i, k] - x[near_j, k]) ** 2
        adj[near_i, near_j] = exact < r2
        np.fill_diagonal(adj[:, start:], False)
        deg = adj.sum(axis=1)
        pairs += int(deg.sum())
        xb = xc[start:start + len(adj)]
        half += (xb.T * deg) @ xb - xb.T @ (adj.astype(float) @ xc)
    return half + half.T, pairs


def _check_k(x: np.ndarray, k: int) -> None:
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two rows")
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}, got k={k}")


def _project(matrix: np.ndarray, x: np.ndarray, k: int, method: str,
             r_used: float | None = None) -> ProjectionResult:
    """Rows of x projected on the k leading eigenvectors of a symmetric
    matrix, with its full spectrum in descending order."""
    w, v = np.linalg.eigh(matrix)
    order = np.argsort(w)[::-1]
    eigvecs = _fix_column_signs(v[:, order[:k]])
    return ProjectionResult(coords=x @ eigvecs, eigvals=w[order], eigvecs=eigvecs,
                            method=method, r_used=r_used)


def dpp_embed(dataset: Dataset, k: int, r: float | None = None,
              standardize: bool = False) -> ProjectionResult:
    """Project rows onto the leading directions of the pair-difference sum.

    r None or inf sums over every pair, which equals covariance PCA (the
    eigenvectors of the sample covariance, eigenvalues times 2(N - 1)),
    computed by the closed form; r_used is then None.  A positive finite r
    keeps only pairs strictly closer than r, the local embedding, and is
    reported as r_used.  Any other r raises ValueError.  Eigenvalues are
    those of the pair sum scaled by 1/N.

    Rows are projected as-is, uncentered, unless `standardize`, which
    centers and scales columns first (off by default; the raw-coordinate
    form is the published benchmark configuration).
    """
    if r is None or r == math.inf:
        r = None
    elif (isinstance(r, bool) or not isinstance(r, (int, float))
          or not 0 < r < math.inf):
        raise ValueError(f"r must be None, inf or a positive float, got {r!r}")
    else:
        r = float(r)
    x = dataset.features
    _check_k(x, k)
    if standardize:
        x = _standardize(x)
    pair_sum, _ = pair_difference_sum(x, r=r)
    return _project(pair_sum / x.shape[0], x, k, "dpp", r_used=r)


def pca_embed(dataset: Dataset, k: int) -> ProjectionResult:
    """PCA baseline: standardized rows (columns centered and scaled to unit
    variance) projected on the eigenvectors of the sample correlation
    matrix.  A zero-variance column raises ValueError."""
    x = dataset.features
    _check_k(x, k)
    xs = _standardize(x)  # first: rejects zero variance before corrcoef divides by it
    return _project(np.corrcoef(x, rowvar=False), xs, k, "pca")


@dataclass(frozen=True)
class RocCurve:
    """Operating points from thresholding scores in descending order.

    One vertex per distinct score value (ties grouped), prefixed by the
    (0, 0) origin; both coordinates are nondecreasing and the curve ends
    at (1, 1).  `auc` is the exact trapezoidal area, equal to the
    Mann-Whitney statistic with ties counted one half.
    """

    points: np.ndarray       # (m, 2) columns fpr, tpr
    thresholds: np.ndarray   # (m,) score at each vertex; +inf at the origin
    auc: float

    def __post_init__(self):
        self.points.setflags(write=False)
        self.thresholds.setflags(write=False)


def roc_auc(scores, labels) -> RocCurve:
    """ROC curve and AUC for binary labels (1 = positive class).

    Counting is done in integers, so the AUC matches the pairwise
    Mann-Whitney computation exactly, not merely to rounding.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D of equal length")
    lab = labels.astype(np.int64)
    if not np.all((lab == 0) | (lab == 1)):
        raise ValueError("labels must be binary 0/1")
    n_pos = int(lab.sum())
    n_neg = lab.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    l = lab[order]
    boundary = np.nonzero(np.diff(s))[0]
    ends = np.concatenate([boundary, [s.size - 1]])
    tp = np.cumsum(l)[ends]
    fp = (ends + 1) - tp
    tp = np.concatenate([[0], tp])
    fp = np.concatenate([[0], fp])

    area2 = int(np.sum((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1])))
    auc = area2 / (2 * n_pos * n_neg)
    points = np.column_stack([fp / n_neg, tp / n_pos]).astype(float)
    thresholds = np.concatenate([[math.inf], s[ends]])
    return RocCurve(points=points, thresholds=thresholds, auc=float(auc))
