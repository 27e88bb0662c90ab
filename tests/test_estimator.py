import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdpp import (BallWindow, BoxWindow, EstimateResult, PointPattern, ScatteringMatrix,
                      bernstein_tail, bias_bound, count_expectation, default_cutoff,
                      estimate_scattering, estimator, extract_ball, isotropic_scattering,
                      risk_rate, sample_gdp, spiked_scattering, unit_ball_volume,
                      variance_bound)
from gaussdpp import patterns
from gaussdpp.patterns import close_pairs
from oracles import expected_sigma_hat, ordered_pair_estimate


def close_pairs_bruteforce(points, r, side=None):
    """Reference for close_pairs: every pair at once, O(N^2 d).  On the
    torus a coordinate difference beyond side/2 either way is moved by
    side, the shorter way round."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    if side is not None:
        diff = np.where(diff > side / 2, diff - side,
                        np.where(diff < -side / 2, diff + side, diff))
    close = np.einsum("ijk,ijk->ij", diff, diff) < r * r
    i, j = np.nonzero(np.triu(close, k=1))
    return i, j, diff[i, j]


def by_i_then_j(pairs):
    """close_pairs lists each pair once, in no order; sort them by i, then j."""
    i, j, diff = pairs
    ranked = np.lexsort((j, i))
    return i[ranked], j[ranked], diff[ranked]


class TestGeometryHelpers:
    def test_unit_ball_volume(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)

    def test_count_expectation(self):
        assert count_expectation(1.0, 2) == pytest.approx(math.pi)
        assert count_expectation(10.0, 2) == pytest.approx(100 * math.pi)
        assert count_expectation(2.0, 3) == pytest.approx(33.510321638291128,
                                                          rel=1e-14)

    def test_count_expectation_beyond_a_float_names_R_and_d(self):
        # R^d = 1e400 is not a float; R^d = 1e308 is, but |B(1)| R^d is not,
        # and no inf is returned in its place.
        for radius in (1e200, 1e154):
            with pytest.raises(OverflowError) as exc:
                count_expectation(radius, 2)
            assert str(exc.value) == (f"|B(R)| for R = {radius:g} in d = 2 is out of range "
                                      "of a float")


class TestBounds:
    def test_bernstein_limit_and_value(self):
        # eps -> 0 drives the exponent to zero, leaving the constant 2.
        assert bernstein_tail(1e-12, 10.0, 2) == pytest.approx(2.0, rel=1e-9)
        assert bernstein_tail(0.1, 10.0, 2) == pytest.approx(
            0.43736889048722428, rel=1e-12)

    def test_bernstein_decreasing_in_radius(self):
        vals = [bernstein_tail(0.1, r, 2) for r in (5.0, 10.0, 20.0, 40.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_default_cutoff(self):
        assert default_cutoff(math.e, 1) == pytest.approx(1.0, rel=1e-12)
        assert default_cutoff(math.e ** 4, 4) == pytest.approx(4.0, rel=1e-12)
        with pytest.raises(ValueError):
            default_cutoff(1.0, 2)

    def test_bias_bound_sentinel_and_value(self):
        sigma = isotropic_scattering(2)
        # validity threshold sqrt(5 Tr/2) = sqrt(5 / (2 pi)) ~ 0.8921
        assert bias_bound(sigma, 0.5) is None
        assert bias_bound(sigma, 3.0) == pytest.approx(
            2.7830123955864124e-16, rel=1e-10)

    def test_bias_bound_decreasing_in_r(self):
        sigma = isotropic_scattering(3)
        vals = [bias_bound(sigma, r) for r in (2.0, 3.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_variance_bound(self):
        assert variance_bound(2.0, 1, 100.0) == pytest.approx(0.64, rel=1e-12)
        assert variance_bound(2.0, 1, 100.0) == pytest.approx(
            variance_bound(2.0, 1, 200.0) * 2, rel=1e-12)
        assert variance_bound(1.2, 2, 100.0) is None  # below sqrt(d)
        vals = [variance_bound(r, 2, 50.0) for r in (2.0, 3.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_risk_rate(self):
        assert risk_rate(math.e, 1) == pytest.approx(math.e ** -0.5, rel=1e-12)
        # d=2, c=1, n=e^4: d^2 (sqrt(log n))^(d+1) / sqrt(n) = 4*8/e^2
        assert risk_rate(math.e ** 4, 2) == pytest.approx(
            4.330729063571606, rel=1e-12)
        big = [risk_rate(n, 2) for n in (1e3, 1e5, 1e8, 1e12)]
        assert all(a > b for a, b in zip(big, big[1:]))
        with pytest.raises(ValueError):
            risk_rate(1.0, 2)


def _ball_pattern(points, radius):
    return PointPattern(np.asarray(points, dtype=float),
                        BallWindow(radius, np.asarray(points).shape[1]))


class TestNeighborhoods:
    """The estimator's neighbour search, `patterns.close_pairs`, and its
    interior set."""

    def test_strict_inequality_at_exact_distance(self):
        i, j, diff = close_pairs([[0.0, 0.0], [1.0, 0.0]], 1.0)
        assert i.size == 0 and j.size == 0 and diff.shape == (0, 2)
        # Across the torus faces -1.25 and 1.25 are exactly 0.5 apart.
        i, j, diff = close_pairs([[-1.25], [1.25], [1.0]], 0.5, side=3.0)
        assert (i.tolist(), j.tolist(), diff.tolist()) == ([1], [2], [[0.25]])

    def test_interior_set_strict(self):
        # ||x|| = R - r exactly is excluded from the interior set.
        pat = _ball_pattern([[9.0, 0.0], [8.999, 0.0]], 10.0)
        res = estimate_scattering(pat, 1.0)
        assert res.pair_count == 1  # (8.999, 0) -> (9, 0) only

    def test_symmetry_and_self_exclusion(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(300, 2))
        i, j, diff = close_pairs(pts, 0.8)
        assert i.size > 0
        assert np.all(i < j)  # no self pairs
        assert np.unique(i * len(pts) + j).size == i.size  # each pair once
        assert np.array_equal(diff, pts[i] - pts[j])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-6, 6, size=(500, 3))
        pts = pts[np.linalg.norm(pts, axis=1) <= 6.0]
        for got, want in zip(by_i_then_j(close_pairs(pts, 1.1)),
                             close_pairs_bruteforce(pts, 1.1)):
            assert np.array_equal(got, want)

    # On the torus of side 6 the radii give 1, 2, 4 and 1024 cells per axis.
    # In d=12 with about 1024 cells per axis, binning every axis would need
    # keys up to 2^120: the int64 key's bound stops the binning at 6 axes.
    @pytest.mark.parametrize("side, d, r", [
        *(pytest.param(side, d, r, id=f"{name}-{side}-{d}")
          for name, r in {"m1": 3.5, "m2": 2.5, "m4": 1.3, "tiny": 1e-7}.items()
          for side in (None, 6.0) for d in (1, 2, 3, 5, 9)),
        *(pytest.param(side, 12, 1e-7, id=f"tiny-{side}-12") for side in (None, 6.0))])
    def test_matches_bruteforce_by_metric_and_cell_count(self, d, side, r, monkeypatch):
        rng = np.random.default_rng([d, int(side or 0), int(r * 10)])
        pts = rng.uniform(-3.0, 3.0, size=(120, d))
        pts[1] = pts[0]  # a coincident pair, distance 0 < any r
        want = close_pairs_bruteforce(pts, r, side)
        # Every axis binned, as many as 11 points per offset allow (the
        # default), and none: one cell and one offset holding all pairs.
        for per_offset in (0, patterns._POINTS_PER_OFFSET, math.inf):
            monkeypatch.setattr(patterns, "_POINTS_PER_OFFSET", per_offset)
            got = by_i_then_j(close_pairs(pts, r, side))
            assert [a.dtype for a in got] == [np.intp, np.intp, np.float64]
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        if side is not None:
            assert np.all(np.abs(got[2]) <= side / 2)
        else:  # dimred's adjacency blocks of 7 rows, the last of one row
            monkeypatch.setattr(patterns, "_BLOCK_ENTRIES", 7 * 120)
            i, j = np.concatenate([np.argwhere(np.triu(adj, start + 1)) + (start, 0)
                                   for start, adj in patterns.close_blocks(pts, r)]).T
            assert np.array_equal(i, want[0]) and np.array_equal(j, want[1])

    def test_working_memory_is_one_offset_of_candidates(self):
        # The validate-d3 case: 5 cells per axis, about 14 points per cell.
        # Listing the candidates of all 27 offsets at once peaked at
        # 29.6 MiB for 28k pairs kept.
        pts = np.random.default_rng(7).uniform(-6.0, 6.0, size=(1700, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            i, j, diff = close_pairs(pts, 2.0, 12.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert i.size > 20_000
        assert peak < 5 << 20

    def test_offsets_follow_the_points_on_the_torus(self):
        # 120 points in d=9 on the torus of side 6, 4 cells per axis: binning
        # every axis visits 3^9 offsets and peaked at 9.9 MiB; binning
        # two axes, 9 offsets of about 13 points each, stays under 1 MiB.
        pts = np.random.default_rng(9).uniform(-3.0, 3.0, size=(120, 9))
        pts[1] = pts[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            i, j, diff = close_pairs(pts, 1.3, 6.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        want = close_pairs_bruteforce(pts, 1.3, 6.0)
        for a, b in zip(by_i_then_j((i, j, diff)), want):
            assert np.array_equal(a, b)
        assert peak < 1 << 20

    def test_cells_per_axis_do_not_depend_on_d(self):
        # 2000 points in [-3, 3]^30 at r = 0.3: four axes binned, 20 cells
        # each.  Capping the cells per axis at 2^(60/d) - 2 gave those axes
        # 2 cells of about 125 points each and peaked at 60 MiB.
        pts = np.random.default_rng(30).uniform(-3.0, 3.0, size=(2000, 30))
        pts[1] = pts[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            i, j, diff = close_pairs(pts, 0.3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        want = np.concatenate([np.argwhere(np.triu(adj, start + 1)) + (start, 0)
                               for start, adj in patterns.close_blocks(pts, 0.3)]).T
        assert np.array_equal(by_i_then_j((i, j, diff))[:2], want)
        assert peak < 4 << 20

    def test_fewer_than_two_points(self):
        for pts in (np.empty((0, 2)), [[0.5, 0.5]]):
            for side in (None, 4.0):
                i, j, diff = close_pairs(pts, 1.0, side)
                assert i.size == 0 and j.size == 0 and diff.shape == (0, np.shape(pts)[1])

    def test_two_points_in_d30(self):
        # A stencil of 2^30 offsets if every axis were binned; two points
        # bin none, so one offset is visited.
        pts = np.full((2, 30), 0.5)
        pts[1, 0] = 0.6
        i, j, diff = close_pairs(pts, 0.5)
        assert (i.tolist(), j.tolist()) == ([0], [1])
        assert np.array_equal(diff, pts[:1] - pts[1:])
        res = estimate_scattering(PointPattern(pts, BoxWindow(3.0, 30)), 0.5)
        assert res.n_observed == 2 and res.pair_count == 0  # both ends beyond R - r = 1

    def test_rejects_bad_radii(self):
        pat = _ball_pattern([[0.0, 0.0]], 5.0)
        with pytest.raises(ValueError, match="need 0 < r < R"):
            estimate_scattering(pat, 5.0)
        with pytest.raises(ValueError, match="r must be positive"):
            close_pairs([[0.0], [1.0]], 0.0)


# The estimator carries the consistency constant 2^((d+2)/2); at d=2 the
# empty-pattern value is that constant times pi/4.
D2_SCALE = 2.0 ** 2

D2_MODELS = {"iso": isotropic_scattering(2), "spiked": spiked_scattering(3.0, [0.6, 0.8])}


@functools.cache
def _d2_draws(name):
    """40 replicates of a D2_MODELS model on the side-14 box, seeds (7, i)."""
    return [sample_gdp(D2_MODELS[name], BoxWindow(14.0, 2), (7, i)) for i in range(40)]


class TestEstimateScattering:
    def test_empty_pattern_identity_term(self):
        pat = PointPattern(np.empty((0, 2)), BallWindow(10.0, 2))
        res = estimate_scattering(pat, 1.0)
        assert np.allclose(res.sigma_hat, D2_SCALE * (math.pi / 4) * np.eye(2),
                           rtol=1e-12)
        assert res.pair_count == 0
        assert res.n_expected == pytest.approx(100 * math.pi)

    def test_two_point_pattern_by_hand(self):
        r, big_r = 2.0, 10.0
        pts = [[0.5, 0.0], [-0.5, 0.0]]
        res = estimate_scattering(_ball_pattern(pts, big_r), r)
        diff = np.array([1.0, 0.0])
        expected = D2_SCALE * (
            math.pi * r ** 4 / 4 * np.eye(2)
            - 2 * np.outer(diff, diff) / (math.pi * (big_r - r) ** 2))
        assert np.allclose(res.sigma_hat, expected, rtol=1e-12)
        assert res.pair_count == 2

    def test_exact_symmetry(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-4, 4, size=(200, 3))
        pts = pts[np.linalg.norm(pts, axis=1) <= 5.0]
        res = estimate_scattering(_ball_pattern(pts, 5.0), 1.5)
        assert np.array_equal(res.sigma_hat, res.sigma_hat.T)

    def test_permutation_bitwise_stable(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4, 4, size=(150, 2))
        pts = pts[np.linalg.norm(pts, axis=1) <= 5.0]
        res = estimate_scattering(_ball_pattern(pts, 5.0), 1.2)
        shuffled = pts[rng.permutation(pts.shape[0])]
        res2 = estimate_scattering(_ball_pattern(shuffled, 5.0), 1.2)
        assert np.array_equal(res.sigma_hat, res2.sigma_hat)
        assert res.pair_count == res2.pair_count

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-4, 4, size=(300, 2))
        pts = pts[np.linalg.norm(pts, axis=1) <= 5.0]
        theta = 0.7
        q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        base = estimate_scattering(_ball_pattern(pts, 5.0), 1.0).sigma_hat
        rotated = estimate_scattering(_ball_pattern(pts @ q.T, 5.0), 1.0).sigma_hat
        assert np.allclose(rotated, q @ base @ q.T, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), n=st.integers(30, 300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rotation_equivariance_property(self, d, n, seed):
        # Continuous random points: no pair distance and no norm sits at
        # r or R - r, where a rounding difference could flip membership.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        pts = rng.uniform(-5.0, 5.0, size=(n, d))
        pts = pts[np.linalg.norm(pts, axis=1) <= 4.9]
        base = estimate_scattering(_ball_pattern(pts, 5.0), 1.5).sigma_hat
        rotated = estimate_scattering(_ball_pattern(pts @ q.T, 5.0), 1.5).sigma_hat
        assert np.abs(rotated - q @ base @ q.T).max() <= 1e-9 * np.linalg.norm(base)

    def test_box_window_uses_inscribed_ball(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-5, 5, size=(100, 2))
        pat = PointPattern(pts, BoxWindow(10.0, 2))
        res = estimate_scattering(pat, 1.0)
        assert res.R_used == 5.0

    # The window fixes R: a point outside the inscribed ball is never a
    # centre (those lie within R - r of the origin) nor a neighbour of
    # one, so cutting it off changes neither the pair set nor its order.
    @pytest.mark.parametrize("sigma, side", [
        (spiked_scattering(3.0, [1.0, 0.0]), 28.0),
        (isotropic_scattering(3), 12.0),
    ], ids=["spiked2-L28", "iso3-L12"])
    def test_box_window_equals_its_inscribed_ball(self, sigma, side):
        box = sample_gdp(sigma, BoxWindow(side, sigma.dim), 1)
        ball = extract_ball(box, side / 2.0)
        assert len(ball) < len(box)
        for r in (None, 0.8):  # the auto cutoff, and a fixed one
            on_box, on_ball = estimate_scattering(box, r), estimate_scattering(ball, r)
            assert np.array_equal(on_box.sigma_hat, on_ball.sigma_hat)
            assert on_box.pair_count == on_ball.pair_count
            assert (on_box.r_used, on_box.R_used) == (on_ball.r_used, on_ball.R_used)

    def test_auto_cutoff_within_clamp(self, monkeypatch):
        # The paper's sqrt(d log n), n = |B(R)|, capped at R/2: a function of
        # the window alone, found with one pair search.  A pilot-estimate
        # clamp once raised r on the BoxWindow(20, 2) draw and failed on the
        # BoxWindow(12, 3) one.
        patterns = [sample_gdp(isotropic_scattering(2), BoxWindow(20.0, 2), 10),
                    sample_gdp(isotropic_scattering(3), BoxWindow(12.0, 3), (0, 0))]
        rng = np.random.default_rng(6)
        for d, radius in ((1, 30.0), (2, 12.0), (3, 5.0)):  # R/2 binds in d=3
            pts = rng.uniform(-radius, radius, size=(400, d))
            patterns.append(_ball_pattern(pts[np.linalg.norm(pts, axis=1) <= radius], radius))
        searches = []

        def counting(*args, **kwargs):
            searches.append(args)
            return close_pairs(*args, **kwargs)
        monkeypatch.setattr(estimator, "close_pairs", counting)
        for pat in patterns:
            res = estimate_scattering(pat)
            R = pat.window.side / 2 if isinstance(pat.window, BoxWindow) else pat.window.radius
            assert res.R_used == R
            assert res.r_used == min(default_cutoff(count_expectation(R, pat.dim), pat.dim),
                                     R / 2)
        assert len(searches) == len(patterns)

    @pytest.mark.parametrize("sigma, side", [
        (isotropic_scattering(2), 20.0), (spiked_scattering(3.0, [1.0, 0.0]), 28.0),
        (isotropic_scattering(3), 8.0),
    ], ids=["iso2-L20", "spiked2-L28", "iso3-L8"])
    @pytest.mark.parametrize("r", [None, 0.8], ids=["auto", "fixed"])
    def test_matches_the_ordered_double_sum(self, sigma, side, r):
        # The golden patterns: each pair added once with weight 1 or 2 is
        # the paper's sum over ordered pairs, up to the summation order.
        pattern = sample_gdp(sigma, BoxWindow(side, sigma.dim), 0)
        res = estimate_scattering(pattern, r)
        want, pairs = ordered_pair_estimate(pattern.points, res.r_used, res.R_used)
        d = sigma.dim
        identity = 2.0 ** ((d + 2) / 2) * unit_ball_volume(d) * res.r_used ** (d + 2) / (d + 2)
        assert res.pair_count == pairs > 0
        assert np.abs(res.sigma_hat - want).max() <= 1e-12 * identity

    @pytest.mark.parametrize("name", ["iso", "spiked"])
    @pytest.mark.parametrize("r", [0.6, 1.0])
    def test_replicate_mean_is_the_closed_form_expectation(self, name, r):
        # The replicate mean of Sigma_hat(r) is its closed-form expectation at
        # any r; how close that is to Sigma is the cutoff's business.  An
        # oracle scaled by 1/sqrt(2), an error in the consistency constant,
        # reads |z| of 5.9 and 3.7 at r = 0.6.
        sigma = D2_MODELS[name]
        est = np.array([estimate_scattering(p, r).sigma_hat for p in _d2_draws(name)])
        z = ((est.mean(axis=0) - expected_sigma_hat(sigma, r))
             / (est.std(axis=0, ddof=1) / math.sqrt(len(est))))
        assert np.abs(z).max() <= 3.5, z

    # SHA-256 of sigma_hat.tobytes() and the pair count at the auto cutoff,
    # recorded once the estimator added each pair once, weighted, after
    # test_matches_the_ordered_double_sum had checked it on these
    # patterns; any change to the pair set or to the summation order
    # shows here.
    @pytest.mark.parametrize("sigma, side, pair_count, digest", [
        (isotropic_scattering(2), 20.0, 5495,
         "99614e2e6ae02278a6c6cb778f07ba597382dfc19d4135b3bc5f2bd09f2a879d"),
        (spiked_scattering(3.0, [1.0, 0.0]), 28.0, 12897,
         "2f0b75c0a46c9c7504d0ccd2285d89ce86093acdf88b8d065d63dd67f1353652"),
        (isotropic_scattering(3), 8.0, 1294,
         "0a39c744ad8a38226c45a6e2c67ffb14e3497c08db2d87ebafd61c354bd5cda3"),
    ], ids=["iso2-L20", "spiked2-L28", "iso3-L8"])
    def test_golden_estimate(self, sigma, side, pair_count, digest):
        res = estimate_scattering(sample_gdp(sigma, BoxWindow(side, sigma.dim), 0))
        assert res.pair_count == pair_count
        assert hashlib.sha256(res.sigma_hat.tobytes()).hexdigest() == digest

    def test_json_payload(self):
        pat = PointPattern(np.empty((0, 2)), BallWindow(10.0, 2))
        res = estimate_scattering(pat, 2.0)
        payload = res.to_json_dict()
        blob = json.loads(json.dumps(payload))
        assert blob["N"] == 0
        assert blob["dim"] == 2
        assert len(blob["sigma_hat"]) == 4
        assert blob["variance_bound"] is not None
        assert blob["risk_rate"] is not None

    def test_json_bias_bound_of_an_ill_conditioned_estimate(self):
        # ScatteringMatrix refuses an eigenvalue ratio above 1e12, which a
        # valid estimate can have; the record's plug-in bound is read
        # from the spectrum, as bias_bound reads it from a ScatteringMatrix.
        def record(sigma_hat):
            return EstimateResult(sigma_hat=sigma_hat, n_observed=3, n_expected=314.0,
                                  r_used=2.0, R_used=10.0, pair_count=0,
                                  r_requested=None).to_json_dict()["bias_bound"]
        tame = np.diag([1.0, 1e-3])
        assert record(tame) == bias_bound(ScatteringMatrix(tame), 2.0)
        assert record(np.diag([1.0, 1e-13])) == pytest.approx(
            18.0 * math.exp((4.0 * (1.0 + 1e-13) - 8.0) / 3.0), rel=1e-12)

    @pytest.mark.parametrize("sigma_hat, n, r, message", [
        # s^2 = 1e320; r >= sqrt(2.5 Tr) keeps the bound's exponent negative.
        (np.eye(1) * 1e160, 10.0, 1e81,
         "bias_bound in s^2 for s = ||Sigma_hat|| = 1e+160 in d = 1"),
        # r^(2d+4) = 1e308 is a float; d^2 (1/d)^d r^(2d+4) / n is not.
        (np.eye(1) * 0.1, 0.5, 1e308 ** (1 / 6),
         f"variance_bound in r^(2d+4) for r = {1e308 ** (1 / 6):g} in d = 1"),
        (np.eye(250) * 0.1, 1e300, 0.5,
         "risk_rate in sqrt(log n)^(d+1) for n = 1e+300 in d = 250"),
    ], ids=["bias", "variance-infinite", "rate"])
    def test_json_bound_beyond_a_float_names_its_power(self, sigma_hat, n, r, message):
        res = EstimateResult(sigma_hat=sigma_hat, n_observed=1, n_expected=n, r_used=r,
                             R_used=2.0 * r, pair_count=0, r_requested=r)
        with pytest.raises(OverflowError) as exc:
            res.to_json_dict()
        assert str(exc.value) == message + " is out of range of a float"

    @pytest.mark.parametrize("r", [None, 0.8], ids=["auto", "fixed"])
    def test_json_records_the_cutoff_asked_for(self, r):
        pts = np.random.default_rng(6).uniform(-10, 10, size=(400, 2))
        pat = _ball_pattern(pts[np.linalg.norm(pts, axis=1) <= 12.0], 12.0)
        assert estimate_scattering(pat, r).to_json_dict()["estimator"] == {"r": r}
