"""Output checks by independent recomputation (numpy only).

Each check recomputes a CLI output from its inputs with the formulas of
the model, not with gaussdpp code, and returns a list of problems (empty
when the output is correct).  Sampler output is never compared with
stored values: a change of the random stream is legitimate, so sampled
patterns are checked only against the window and the law of their count.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
SPECTRAL_TOL = 1e-6   # the CLI's default spectral truncation `--tol`
REL = 1e-9            # relative tolerance for recomputed floating results


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_points(stem: Path) -> np.ndarray:
    header, rows = read_csv(stem.with_suffix(".csv"))
    return np.asarray(rows, dtype=float).reshape(-1, len(header))


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def scattering(d: int, lam: float = 0.0) -> np.ndarray:
    """Normalized spiked model along e1: (2 pi) S = (1+lam)^(-1/(d-1)) (I - e1 e1') + (1+lam) e1 e1'."""
    s = np.eye(d) * (1.0 + lam) ** (-1.0 / (d - 1))
    s[0, 0] = 1.0 + lam
    return s / TWO_PI


def count_law(sigma: np.ndarray, side: float) -> tuple[float, float]:
    """Mean and variance of the point count of the torus sampler.

    Every Fourier mode k with eigenvalue exp(-2 pi^2 k'Sk / L^2) above the
    truncation tolerance is kept independently with that probability, and
    each kept mode gives one point.
    """
    d = sigma.shape[0]
    bound = side ** 2 * math.log(1.0 / SPECTRAL_TOL) / (2.0 * math.pi ** 2)
    half = np.floor(np.sqrt(bound * np.diag(np.linalg.inv(sigma)))).astype(int)
    grid = np.meshgrid(*[np.arange(-h, h + 1) for h in half], indexing="ij")
    k = np.stack([g.ravel() for g in grid], axis=1).astype(float)
    quad = np.einsum("ij,jl,il->i", k, sigma, k)
    lam = np.exp(-2.0 * math.pi ** 2 * quad[quad < bound] / side ** 2)
    return float(lam.sum()), float((lam * (1.0 - lam)).sum())


def close(a, b, scale: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= REL * scale))


def check_pattern(stem: Path, sigma: np.ndarray, side: float) -> list[str]:
    pts = read_points(stem)
    problems = []
    if pts.shape[1] != sigma.shape[0]:
        problems.append(f"{stem.name}: {pts.shape[1]} columns, expected {sigma.shape[0]}")
        return problems
    if np.any(np.abs(pts) > side / 2):
        problems.append(f"{stem.name}: points outside the window [-{side / 2}, {side / 2}]^d")
    mean, var = count_law(sigma, side)
    if abs(len(pts) - mean) > 5.0 * math.sqrt(var):
        problems.append(f"{stem.name}: {len(pts)} points, expected {mean:.1f} +- 5 x {math.sqrt(var):.2f}")
    return problems


def scattering_estimate(pts: np.ndarray, r: float, R: float) -> tuple[np.ndarray, int]:
    """The estimator by brute force over all pairs:
    2^((d+2)/2) [ |B1| r^(d+2)/(d+2) I - sum_{|Xi| < R-r} sum_{0 < |Xi-Xj| < r} (Xi-Xj)(Xi-Xj)' / |B(R-r)| ]."""
    n, d = pts.shape
    inner = np.nonzero(np.einsum("ij,ij->i", pts, pts) < (R - r) ** 2)[0]
    total = np.zeros((d, d))
    pairs = 0
    for start in range(0, inner.size, 256):
        rows = inner[start:start + 256]
        diff = pts[rows, None, :] - pts[None, :, :]
        near = np.einsum("ijk,ijk->ij", diff, diff) < r * r
        near[np.arange(rows.size), rows] = False
        sel = diff[near]
        total += sel.T @ sel
        pairs += sel.shape[0]
    vb = unit_ball_volume(d)
    scale = 2.0 ** ((d + 2) / 2)
    identity = scale * vb * r ** (d + 2) / (d + 2)
    return identity * np.eye(d) - scale * total / (vb * (R - r) ** d), pairs


def estimate_matrix(est: dict) -> np.ndarray:
    d = est["dim"]
    return np.asarray(est["sigma_hat"], dtype=float).reshape(d, d)


def check_estimate(pattern_stem: Path, estimate_json: Path) -> list[str]:
    est = read_json(estimate_json)
    pts = read_points(pattern_stem)
    r, R = est["r_used"], est["R_used"]
    expected, pairs = scattering_estimate(pts, r, R)
    d = pts.shape[1]
    # Entries are differences of terms as large as the identity term.
    scale = max(2.0 ** ((d + 2) / 2) * unit_ball_volume(d) * r ** (d + 2) / (d + 2),
                float(np.abs(expected).max()))
    problems = []
    if est["N"] != len(pts):
        problems.append(f"estimate: N={est['N']} but the pattern has {len(pts)} points")
    if est["pair_count"] != pairs:
        problems.append(f"estimate: pair_count={est['pair_count']}, brute force gives {pairs}")
    if not close(estimate_matrix(est), expected, scale):
        problems.append("estimate: sigma_hat differs from the brute-force pair sum")
    return problems


def statistic(sigma_hat: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (sigma_hat + sigma_hat.T))
    return TWO_PI * float(np.abs(w).max())


def check_detect(estimate_json: Path, detect_json: Path,
                 calibration_json: Path | None = None) -> list[str]:
    est = read_json(estimate_json)
    det = read_json(detect_json)
    problems = []
    stat = statistic(estimate_matrix(est))
    if not close(det["statistic"], stat, abs(stat)):
        problems.append(f"detect: statistic {det['statistic']} != 2 pi ||sigma_hat|| = {stat}")
    if calibration_json is None:
        d, n = est["dim"], est["n"]
        rate = d ** 2 * math.sqrt(math.log(n)) ** (d + 1) / math.sqrt(n)
        threshold = 1.0 + det["t"] * rate
    else:
        cal = read_json(calibration_json)
        stats = np.sort(np.asarray(cal["statistics"], dtype=float))
        k = det["null_replicates"]
        if stats.size != k:
            problems.append(f"detect: {stats.size} null statistics, expected {k}")
        rank = min(k, math.ceil((k + 1) * (1.0 - det["delta"])))
        threshold = float(stats[rank - 1])
        if cal["threshold"] != det["threshold"]:
            problems.append("detect: calibration.json and detect.json thresholds differ")
    if not close(det["threshold"], threshold, abs(threshold)):
        problems.append(f"detect: threshold {det['threshold']}, recomputed {threshold}")
    if det["reject"] != (det["statistic"] > det["threshold"]):
        problems.append("detect: reject flag disagrees with statistic > threshold")
    return problems


def read_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_csv(path)
    data = np.asarray(rows, dtype=float)
    return data[:, :-1], data[:, -1].astype(int)


def standardize(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def pair_spectrum(x: np.ndarray, r: float | None) -> np.ndarray:
    """Descending spectrum of (1/N) sum_{i != j, |Xi-Xj| < r} (Xi-Xj)(Xi-Xj)'.

    With A the symmetric 0/1 matrix of close pairs and D its degrees, the
    sum is 2 X'DX - 2 X'AX; with every pair included it is 2N Xc'Xc.
    """
    n = x.shape[0]
    if r is None:
        xc = x - x.mean(axis=0)
        matrix = 2.0 * xc.T @ xc
    else:
        sq = np.einsum("ij,ij->i", x, x)
        adj = (sq[:, None] + sq[None, :] - 2.0 * x @ x.T) < r * r
        np.fill_diagonal(adj, False)
        a = adj.astype(float)
        matrix = 2.0 * (x.T * a.sum(axis=1)) @ x - 2.0 * x.T @ (a @ x)
        matrix /= n
    return np.sort(np.linalg.eigvalsh(matrix))[::-1]


def check_reduce(data_csv: Path, reduce_json: Path, method: str,
                 r: float | None = None, standardized: bool = False) -> list[str]:
    x, _ = read_dataset(data_csv)
    out = read_json(reduce_json)
    if method == "pca":
        xs = standardize(x)
        expected = np.sort(np.linalg.eigvalsh(xs.T @ xs / (len(x) - 1)))[::-1]
    else:
        expected = pair_spectrum(standardize(x) if standardized else x, r)
    problems = []
    if out["count"] != len(x):
        problems.append(f"reduce {method}: count {out['count']}, dataset has {len(x)} rows")
    if not close(out["eigvals"], expected, float(np.abs(expected).max())):
        problems.append(f"reduce {method}: spectrum differs from the recomputed one")
    return problems


def auc_mann_whitney(scores: np.ndarray, labels: np.ndarray) -> float:
    pos, neg = scores[labels == 1], np.sort(scores[labels == 0])
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (pos.size * neg.size))


def check_roc(embedding_csv: Path, roc_json: Path, n_rows: int) -> list[str]:
    _, rows = read_csv(embedding_csv)
    problems = []
    if len(rows) != n_rows:
        problems.append(f"roc: embedding has {len(rows)} rows, expected {n_rows}")
        return problems
    scores = -np.asarray([float(row[1]) for row in rows])  # component 1, not flipped
    labels = np.asarray([int(row[-1]) for row in rows])
    auc, reported = auc_mann_whitney(scores, labels), read_json(roc_json)["auc"]
    if not close(reported, auc, 1.0):
        problems.append(f"roc: auc {reported}, Mann-Whitney gives {auc}")
    return problems


def check_validate(out_dir: Path, d: int, side: float, replicates: int) -> list[str]:
    val = read_json(out_dir / "validate.json")
    problems = []
    n_exp = unit_ball_volume(d) * (side / 2) ** d
    if val["replicates"] != replicates:
        problems.append(f"validate: {val['replicates']} replicates, expected {replicates}")
    if not close(val["expected_count"], n_exp, n_exp):
        problems.append(f"validate: expected_count {val['expected_count']}, recomputed {n_exp}")
    # Ball counts of a DPP are sub-Poisson, so the Poisson sd bounds theirs.
    if abs(val["mean_count"] - n_exp) > 5.0 * math.sqrt(n_exp / replicates):
        problems.append(f"validate: mean ball count {val['mean_count']} is not within "
                        f"5 Poisson sd of {n_exp:.1f}")
    if not close(val["intensity"], val["mean_count"] / n_exp, 1.0):
        problems.append("validate: intensity != mean_count / expected_count")
    _, rows = read_csv(out_dir / "paircorr.csv")
    table = np.asarray(rows, dtype=float)
    # Isotropic model S = I / 2 pi: g(u) = 1 - exp(-u' S^-1 u) = 1 - exp(-2 pi |u|^2).
    theory = 1.0 - np.exp(-TWO_PI * table[:, 0] ** 2)
    if not close(table[:, 2], theory, 1.0):
        problems.append("validate: theoretical pair correlation differs from 1 - exp(-2 pi u^2)")
    err = float(np.abs(table[:, 1] - table[:, 2]).max())
    if not close(val["paircorr_max_abs_err"], err, 1.0):
        problems.append(f"validate: paircorr_max_abs_err {val['paircorr_max_abs_err']}, table gives {err}")
    return problems
