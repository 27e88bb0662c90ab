"""Observation windows, point patterns, and what the pattern files hold.

A pattern is stored as `<stem>.csv`, its coordinates (one row per point,
columns x1..xd), and `<stem>.json`, a sidecar recording the window, the
point count and its writer's metadata (`sample`: the seed, the process and
the scattering matrix and truncation tolerance used to generate it);
`datasets.read_table` reads the CSV.  `unit_ball_volume`, |B(1)|, sits
beside `BallWindow` for the estimator and the sampler.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import finite_number, read_json, read_table, value_text, write_csv, write_json

_BLOCK_ENTRIES = 1 << 20  # distance entries per row block (8 MB of float64)
_POINTS_PER_OFFSET = 11  # fewest points per close_pairs offset; more offsets cost more


@dataclass(frozen=True)
class BoxWindow:
    """Axis-aligned cube [-L/2, L/2]^d, treated as a torus while sampling."""

    side: float
    dim: int

    def __post_init__(self):
        if not self.side > 0:
            raise ValueError("box side must be positive")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def volume(self) -> float:
        return self.side ** self.dim

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.all(np.abs(points) <= self.side / 2, axis=-1)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit Euclidean ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


@dataclass(frozen=True)
class BallWindow:
    """Euclidean ball of radius R centered at the origin."""

    radius: float
    dim: int

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.einsum("...i,...i->...", points, points) <= self.radius ** 2


@dataclass(frozen=True)
class PointPattern:
    """A finite set of points together with the window they were observed in."""

    points: np.ndarray
    window: BoxWindow | BallWindow

    def __post_init__(self):
        # Private copy so the read-only flag below never leaks to caller arrays.
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.size == 0:
            pts = pts.reshape(0, self.window.dim)
        if pts.ndim != 2 or pts.shape[1] != self.window.dim:
            raise ValueError(
                f"points must have shape (N, {self.window.dim}), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("pattern has non-finite coordinates")
        if pts.shape[0] and not np.all(self.window.contains(pts)):
            raise ValueError("pattern has points outside its window")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __reduce__(self):
        # Rebuilt through __post_init__, so an unpickled pattern is read-only too.
        return PointPattern, (self.points, self.window)

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.window.dim


def extract_ball(pattern: PointPattern, radius: float) -> PointPattern:
    """Restrict a box-window pattern to the centered ball of given radius.

    The ball must fit inside the box (2R <= L).  Points with ||x|| <= R are
    kept and the window becomes a BallWindow.
    """
    if not isinstance(pattern.window, BoxWindow):
        raise ValueError("extract_ball expects a pattern on a box window")
    if 2 * radius > pattern.window.side:
        raise ValueError(
            f"ball of radius {radius} does not fit in box of side {pattern.window.side}")
    ball = BallWindow(radius, pattern.dim)
    return PointPattern(pattern.points[ball.contains(pattern.points)], ball)


def close_blocks(points, r: float):
    """Yield (first row, adjacency) per block of rows: entry (a, b) is True
    when rows first + a and b != first + a are strictly closer than r.
    Squared distances come from the Gram form |a|^2 + |b|^2 - 2 a.b of the
    centred rows, _BLOCK_ENTRIES a block.  It and close_pairs' test on
    x_i - x_j both round by at most about d eps (|a|^2 + |b|^2); entries
    within a wide margin of that bound of r^2 are decided by that test instead.
    `dimred`'s pair sum, which needs the adjacency by rows, is its only caller.
    """
    pts = np.asarray(points, dtype=float)
    xc = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", xc, xc)
    rel = 8 * (pts.shape[1] + 2) * np.finfo(float).eps
    step = max(1, _BLOCK_ENTRIES // len(pts))
    for start in range(0, len(pts), step):
        sq_b = sq[start:start + step]
        d2 = (-2.0 * xc[start:start + step]) @ xc.T  # exactly -2 a.b
        d2 += sq_b[:, None]
        d2 += sq
        adj = d2 < r * r
        near_i, near_j = np.nonzero(np.abs(d2 - r * r) <= rel * (sq_b.max() + sq.max()))
        diff = pts[start + near_i] - pts[near_j]
        adj[near_i, near_j] = np.einsum("ij,ij->i", diff, diff) < r * r
        np.fill_diagonal(adj[:, start:], False)
        yield start, adj


def close_pairs(points, r: float,
                side: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j, of points strictly closer than r, and x_i - x_j.

    The metric is Euclidean, or that of the torus [-side/2, side/2]^d when
    `side` is given: there each coordinate d of x_i - x_j is taken the
    shorter way round, signed, as d - side * round(d / side).  A cell
    list, one path for both metrics and every d: the leading axes are cut
    into cells a hair wider than r, at most 1024 per axis, as many axes as
    keep _POINTS_PER_OFFSET points per stencil offset and the product of
    their cell counts, the int64 key's range, below 2^62; every other axis
    is one cell.  The offsets around a cell (up to 3 per binned axis,
    distinct modulo the cell count on the torus) are visited one at a time,
    at most max(1, N / _POINTS_PER_OFFSET) of them.  For each, every
    point's candidates are listed by sorting and searching, with no Python
    loop, and kept when their exact squared distance is below r^2, so the
    working memory is one offset's candidates.  Returns i and j (intp) and
    the (P, d) differences, each pair once, in no order.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if not r > 0:
        raise ValueError("r must be positive")
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty((0, d))
    # The margin keeps rounding in the binning from putting two points
    # closer than r two cells apart; at most 1024 cells per axis keep the
    # grid finite however small r is, and the binned axes keep keys below 2^62.
    width = r * (1.0 + 1e-9)
    if side is None:
        lo = pts.min(axis=0)
        width = max(width, float(np.max(pts.max(axis=0) - lo)) / 1024)
        cells = np.floor((pts - lo) / width).astype(np.int64)
        radix = cells.max(axis=0) + 2  # one empty slot beyond each end
    else:
        m = max(1, min(1024, int(side / width)))
        cells = np.floor((pts + side / 2) / (side / m)).astype(np.int64) % m
        radix = np.full(d, m)
    # A set, not np.unique, which imports numpy.ma on first use.
    steps = [sorted({-1 % k, 0, 1 % k}) for k in radix.tolist()]
    binned = sum(math.prod(map(len, steps[:k])) * _POINTS_PER_OFFSET <= n
                 and math.prod(radix[:k].tolist()) < 2 ** 62 for k in range(1, d + 1))
    cells[:, binned:], radix[binned:], steps[binned:] = 0, 1, [[0]] * (d - binned)
    key = np.ravel_multi_index(tuple(cells.T), radix)
    order = np.argsort(key, kind="stable")
    cell_keys, first, count = np.unique(key[order], return_index=True, return_counts=True)
    found = []
    for offset in itertools.product(*steps):
        near = np.ravel_multi_index(tuple((cells + offset).T), radix, mode="wrap")
        slot = np.minimum(np.searchsorted(cell_keys, near), cell_keys.size - 1)
        point = np.flatnonzero(cell_keys[slot] == near)
        slot = slot[point]
        # Expand each (point, occupied cell) into the cell's members.
        size = count[slot]
        i = np.repeat(point, size)
        j = order[np.repeat(first[slot] - np.cumsum(size) + size, size) + np.arange(i.size)]
        keep = i < j
        i, j = i[keep], j[keep]
        diff = pts[i] - pts[j]
        if side is not None:
            diff -= side * np.round(diff / side)
        keep = np.einsum("ij,ij->i", diff, diff) < r * r
        found.append((i[keep], j[keep], diff[keep]))
    return tuple(np.concatenate(arrays) for arrays in zip(*found))


def _window_to_json(window) -> dict:
    if isinstance(window, BoxWindow):
        return {"type": "box", "side": window.side, "dim": window.dim}
    return {"type": "ball", "radius": window.radius, "dim": window.dim}


def _window_from_json(obj) -> BoxWindow | BallWindow:
    """Inverse of _window_to_json; a missing key raises KeyError."""
    if not isinstance(obj, dict):
        raise ValueError(f"window must be a JSON object, got {value_text(obj)}")
    if obj["type"] == "box":
        cls, size = BoxWindow, "side"
    elif obj["type"] == "ball":
        cls, size = BallWindow, "radius"
    else:
        raise ValueError(f"unknown window type {value_text(obj['type'])}")
    extent, dim = obj[size], obj["dim"]
    if not finite_number(extent) or type(dim) is not int:
        raise ValueError(f"window {size} must be a number and dim an integer, "
                         f"got {value_text(extent)} and {value_text(dim)}")
    return cls(extent, dim)


def save_pattern(pattern: PointPattern, path, meta=None) -> None:
    """Write `<path>.csv` with coordinates and `<path>.json` with the window,
    the point count and the entries of the `meta` mapping (JSON values).

    `path` is used as a stem; the two suffixed files are created next to
    each other.  Coordinates round-trip exactly (see `datasets.write_csv`).
    """
    stem = Path(path)
    stem.parent.mkdir(parents=True, exist_ok=True)
    write_csv(stem.with_suffix(".csv"), [f"x{i + 1}" for i in range(pattern.dim)],
              pattern.points.tolist())
    write_json(stem.with_suffix(".json"), {"window": _window_to_json(pattern.window),
                                           "count": len(pattern), **(meta or {})})


def load_pattern(path) -> tuple[PointPattern, dict]:
    """Inverse of save_pattern; returns the pattern and the sidecar metadata."""
    stem = Path(path)
    sidecar = stem.with_suffix(".json")
    meta = read_json(sidecar)
    try:
        window = _window_from_json(meta["window"])
    except KeyError as exc:
        raise ValueError(f"{sidecar}: missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{sidecar}: {exc}") from None
    table = stem.with_suffix(".csv")
    columns, rows, _ = read_table(table)
    if len(columns) != window.dim:
        raise ValueError(f"{table}: pattern CSV has {len(columns)} columns, "
                         f"window 'dim' in {sidecar} is {value_text(window.dim)}")
    return PointPattern(rows, window), meta
