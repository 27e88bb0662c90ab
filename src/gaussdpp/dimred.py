"""Spectral dimension reduction from pairwise differences, with a PCA
baseline and ROC evaluation.

The DPP embedding ranks directions by the descending spectrum of the
pair-difference sum S(r) = sum over i != j with |Xi - Xj| < r of
(Xi - Xj)(Xi - Xj)', the data term of the scattering estimator.  Over all
pairs (the default) S = 2N Xc'Xc, Xc the column-centered rows, so the
embedding is covariance PCA, and "DPP vs PCA" at the defaults compares it
with the correlation PCA of `pca_embed`.  Only a finite r gives a local,
repulsion-based embedding: S(r) is then the graph-Laplacian form
2 X'(D - A)X, A the adjacency `patterns.close_blocks` yields, D its row sums.

Both embeddings take a `datasets.Dataset`, the rows `load_dataset` reads.
`roc_auc` (defined in `datasets`, which imports no numpy, and bound here
too) scores any per-row ranking against binary labels; `gaussdpp roc`
ranks rows by one embedding coordinate, negated unless --flip, and
`reduce`'s scree.csv is the embedding's descending spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import datasets, patterns

roc_auc = datasets.roc_auc  # bound here too: dimred scores its own embeddings


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


def pair_difference_sum(x: np.ndarray,
                        r: float | None = None) -> tuple[np.ndarray, int]:
    """Sum of (Xi - Xj)(Xi - Xj)' over ordered pairs i != j.

    With a cutoff r, only pairs at distance strictly below r contribute.
    Returns the matrix and the number of contributing ordered pairs.

    Over all pairs (r None or infinite) the sum is 2N Xc'Xc, Xc the
    column-centered rows.  With a finite r it is 2 Xc'(D - A)Xc, A the 0/1
    matrix of close pairs and D its row sums, accumulated over the row
    blocks of A that `patterns.close_blocks` yields.
    """
    n, d = x.shape
    xc = x - x.mean(axis=0)  # the sum is translation invariant
    if r is None or math.isinf(r):
        return 2.0 * n * (xc.T @ xc), n * (n - 1)
    half, pairs = np.zeros((d, d)), 0
    for start, adj in patterns.close_blocks(x, r):
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


def dpp_embed(dataset: datasets.Dataset, k: int, r: float | None = None,
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


def pca_embed(dataset: datasets.Dataset, k: int) -> ProjectionResult:
    """PCA baseline: standardized rows (columns centered and scaled to unit
    variance) projected on the eigenvectors of the sample correlation
    matrix.  A zero-variance column raises ValueError."""
    x = dataset.features
    _check_k(x, k)
    xs = _standardize(x)  # first: rejects zero variance before corrcoef divides by it
    # corrcoef of a single column is 0-d; eigh needs the 1 x 1 matrix.
    return _project(np.atleast_2d(np.corrcoef(x, rowvar=False)), xs, k, "pca")
