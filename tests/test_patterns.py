import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdpp import (BallWindow, BoxWindow, PointPattern, extract_ball,
                      load_pattern, save_pattern)


def test_window_validation():
    with pytest.raises(ValueError):
        BoxWindow(0.0, 2)
    with pytest.raises(ValueError):
        BallWindow(-1.0, 2)


def test_pattern_rejects_outside_points():
    with pytest.raises(ValueError, match="outside"):
        PointPattern(np.array([[5.0, 0.0]]), BoxWindow(4.0, 2))


def test_pattern_is_read_only_copy():
    pts = np.array([[0.1, 0.2]])
    pat = PointPattern(pts, BoxWindow(2.0, 2))
    pts[0, 0] = 9.0  # caller's array stays writable and detached
    assert pat.points[0, 0] == 0.1
    with pytest.raises(ValueError):
        pat.points[0, 0] = 7.0


class TestExtractBall:
    def test_drops_corners(self):
        half = 5.0
        corners = np.array([[half, half], [-half, half], [0.0, 0.0]])
        pat = PointPattern(corners, BoxWindow(10.0, 2))
        out = extract_ball(pat, 5.0)
        assert len(out) == 1
        assert isinstance(out.window, BallWindow)

    def test_empty_input(self):
        pat = PointPattern(np.empty((0, 3)), BoxWindow(8.0, 3))
        out = extract_ball(pat, 2.0)
        assert len(out) == 0
        assert out.window == BallWindow(2.0, 3)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(0)
        pat = PointPattern(rng.uniform(-5, 5, size=(200, 2)), BoxWindow(10.0, 2))
        counts = [len(extract_ball(pat, r)) for r in (1.0, 2.0, 3.5, 5.0)]
        assert counts == sorted(counts)

    def test_boundary_is_inclusive(self):
        pat = PointPattern(np.array([[3.0, 0.0]]), BoxWindow(10.0, 2))
        assert len(extract_ball(pat, 3.0)) == 1

    def test_rejects_oversized_ball(self):
        pat = PointPattern(np.empty((0, 2)), BoxWindow(10.0, 2))
        with pytest.raises(ValueError, match="does not fit"):
            extract_ball(pat, 5.1)


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-7.5, 7.5, size=(37, 3))
    pat = PointPattern(pts, BoxWindow(15.0, 3))
    stem = tmp_path / "pattern"
    save_pattern(pat, stem, seed=42, sigma_entries=np.eye(3), tol=1e-6)
    loaded, meta = load_pattern(stem)
    assert np.array_equal(loaded.points, pat.points)
    assert loaded.window == pat.window
    assert meta["seed"] == 42
    assert meta["tol"] == 1e-6
    assert meta["count"] == 37


def test_save_load_ball_window(tmp_path):
    pat = PointPattern(np.array([[0.5, 0.5]]), BallWindow(2.0, 2))
    save_pattern(pat, tmp_path / "ball")
    loaded, _ = load_pattern(tmp_path / "ball")
    assert loaded.window == BallWindow(2.0, 2)
    assert np.array_equal(loaded.points, pat.points)


@st.composite
def windowed_points(draw):
    """A box or ball window and points inside it: any finite double within
    half the side (or radius) per axis, which for d <= 3 lies in the ball."""
    d = draw(st.integers(1, 3))
    size = draw(st.floats(1e-6, 1e6))
    window = draw(st.sampled_from([BoxWindow(size, d), BallWindow(size, d)]))
    coord = st.floats(-size / 2, size / 2)
    n = draw(st.integers(0, 20))
    pts = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    return PointPattern(np.array(pts, dtype=float).reshape(n, d), window)


@settings(max_examples=60, deadline=None)
@given(windowed_points())
def test_save_load_round_trips_bitwise(pat):
    with tempfile.TemporaryDirectory() as tmp:
        save_pattern(pat, Path(tmp) / "pattern")
        loaded, meta = load_pattern(Path(tmp) / "pattern")
    assert loaded.window == pat.window
    assert meta["count"] == len(pat)
    assert loaded.points.shape == pat.points.shape
    assert loaded.points.tobytes() == pat.points.tobytes()
