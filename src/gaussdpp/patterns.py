"""Observation windows, point patterns, and their on-disk format.

Patterns serialize to a CSV of coordinates (one row per point, columns
x1..xd) plus a JSON sidecar recording the window, the seed, the scattering
matrix, and the truncation tolerance used to generate them.  Floats are
written with shortest round-trip formatting so a load-save cycle is
lossless.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


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
    if len(pattern) == 0:
        return PointPattern(np.empty((0, pattern.dim)), ball)
    keep = ball.contains(pattern.points)
    return PointPattern(pattern.points[keep], ball)


def _window_to_json(window) -> dict:
    if isinstance(window, BoxWindow):
        return {"type": "box", "side": window.side, "dim": window.dim}
    return {"type": "ball", "radius": window.radius, "dim": window.dim}


def _window_from_json(obj) -> BoxWindow | BallWindow:
    if obj["type"] == "box":
        return BoxWindow(obj["side"], obj["dim"])
    if obj["type"] == "ball":
        return BallWindow(obj["radius"], obj["dim"])
    raise ValueError(f"unknown window type {obj['type']!r}")


def save_pattern(pattern: PointPattern, path, *, seed=None, sigma_entries=None,
                 tol=None, extra=None) -> None:
    """Write `<path>.csv` with coordinates and `<path>.json` with metadata.

    `path` is used as a stem; the two suffixed files are created next to
    each other.  repr() of each float is the shortest string that parses
    back to the same double, which is what makes round-trips exact.
    """
    stem = Path(path)
    stem.parent.mkdir(parents=True, exist_ok=True)
    d = pattern.dim
    with open(stem.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(d)])
        for row in pattern.points:
            writer.writerow([repr(float(v)) for v in row])
    meta = {"window": _window_to_json(pattern.window), "count": len(pattern)}
    if seed is not None:
        meta["seed"] = seed
    if sigma_entries is not None:
        meta["sigma"] = np.asarray(sigma_entries).tolist()
    if tol is not None:
        meta["tol"] = tol
    if extra:
        meta.update(extra)
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_pattern(path) -> tuple[PointPattern, dict]:
    """Inverse of save_pattern; returns the pattern and the sidecar metadata."""
    stem = Path(path)
    sidecar = stem.with_suffix(".json")
    with open(sidecar) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: expected a JSON object")
    try:
        window = _window_from_json(meta["window"])
    except KeyError as exc:
        raise ValueError(f"{sidecar}: missing key {exc}") from None
    rows = []
    with open(stem.with_suffix(".csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != window.dim:
            raise ValueError(
                f"pattern CSV has {len(header)} columns, window dimension is {window.dim}")
        for row in reader:
            rows.append([float(v) for v in row])
    pts = np.asarray(rows, dtype=float) if rows else np.empty((0, window.dim))
    return PointPattern(pts, window), meta
