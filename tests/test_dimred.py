import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gaussdpp import (BallWindow, Dataset, PointPattern, dpp_embed,
                      estimate_scattering, pca_embed, roc_auc)
from gaussdpp import dimred
from gaussdpp.dimred import pair_difference_sum


def make_dataset(rng, n=40, d=5):
    return Dataset(rng.standard_normal((n, d)) @ np.diag([3, 2, 1, 0.5, 0.2]))


def covariance_pca(x, k):
    """Reference covariance PCA: the descending spectrum of the sample
    covariance and its k leading eigenvectors, columns in arbitrary sign."""
    w, v = np.linalg.eigh(np.cov(x, rowvar=False))
    order = np.argsort(w)[::-1]
    return w[order], v[:, order[:k]]


def principal_angle(a, b):
    # sin of the largest principal angle between equal-dimension column
    # spaces, via the spectral norm of the projector difference (well
    # conditioned near zero, unlike acos of singular values)
    qa = np.linalg.qr(a)[0]
    qb = np.linalg.qr(b)[0]
    diff = qa @ qa.T - qb @ qb.T
    return float(np.linalg.norm(diff, 2))


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.inf, 1.0]]))
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((3, 2)), labels=np.array([1, 0]))


class TestDppEmbed:
    def test_pair_sum_matches_direct_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((25, 3))
        total, pairs = pair_difference_sum(x)
        direct = np.zeros((3, 3))
        for i in range(25):
            for j in range(25):
                if i != j:
                    u = x[i] - x[j]
                    direct += np.outer(u, u)
        assert pairs == 25 * 24
        assert np.allclose(total, direct, rtol=1e-10)

    def test_pair_sum_with_cutoff_matches_loop(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 2))
        r = 1.5
        total, pairs = pair_difference_sum(x, r=r)
        direct = np.zeros((2, 2))
        count = 0
        for i in range(30):
            for j in range(30):
                if i != j and np.linalg.norm(x[i] - x[j]) < r:
                    u = x[i] - x[j]
                    direct += np.outer(u, u)
                    count += 1
        assert pairs == count
        assert np.allclose(total, direct, rtol=1e-10)

    def test_scale_of_pair_term_does_not_move_subspace(self):
        # operational form of "the choice of R does not matter"
        rng = np.random.default_rng(2)
        ds = make_dataset(rng)
        base = dpp_embed(ds, 2)
        total, _ = pair_difference_sum(ds.features)
        for scale in (1e-3, 1.0, 1e4):
            w, v = np.linalg.eigh(scale * total)
            top = v[:, np.argsort(w)[::-1][:2]]
            assert principal_angle(base.eigvecs, top) < 1e-9

    def test_duplicated_rows_same_eigenvectors(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng, n=30)
        doubled = Dataset(np.vstack([ds.features, ds.features]))
        a = dpp_embed(ds, 2)
        b = dpp_embed(doubled, 2)
        assert principal_angle(a.eigvecs, b.eigvecs) < 1e-9

    def test_eigvals_descending_and_coords_shape(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng)
        out = dpp_embed(ds, 3)
        assert out.coords.shape == (40, 3)
        assert np.all(np.diff(out.eigvals) <= 1e-12)
        assert out.eigvecs.shape == (5, 3)
        assert np.allclose(out.eigvecs.T @ out.eigvecs, np.eye(3), atol=1e-9)

    def test_estimator_matrix_has_reversed_eigenvector_order(self):
        # The full estimator is a*I - c*S, so its eigenvectors are those of
        # the pair sum S with eigenvalue order reversed.  The points lie
        # within 2.5 of the origin; r = 6 exceeds their diameter and
        # R - r = 3 their radius, so every ordered pair contributes and
        # the pair term equals S exactly.
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, size=(60, 2))
        pts = pts[np.linalg.norm(pts, axis=1) <= 2.5]
        pat = PointPattern(pts, BallWindow(9.0, 2))
        res = estimate_scattering(pat, 6.0)
        w_hat, v_hat = np.linalg.eigh(res.sigma_hat)
        total, _ = pair_difference_sum(pts)
        w_s, v_s = np.linalg.eigh(total)
        # ascending eigh order: top of sigma_hat pairs with bottom of S
        assert abs(float(v_hat[:, -1] @ v_s[:, 0])) == pytest.approx(1.0, abs=1e-9)
        assert abs(float(v_hat[:, 0] @ v_s[:, -1])) == pytest.approx(1.0, abs=1e-9)

    def test_row_permutation_permutes_coords(self):
        rng = np.random.default_rng(6)
        ds = make_dataset(rng)
        perm = rng.permutation(ds.n_rows)
        a = dpp_embed(ds, 2)
        b = dpp_embed(Dataset(ds.features[perm]), 2)
        assert np.allclose(a.coords[perm], b.coords, atol=1e-9)
        assert np.allclose(a.eigvals, b.eigvals, atol=1e-9)

    def test_explicit_r_mode(self):
        rng = np.random.default_rng(7)
        ds = make_dataset(rng)
        out = dpp_embed(ds, 2, r=2.0)
        assert out.r_used == 2.0
        for bad in (-1.0, 0.0, math.nan, -math.inf, True, "nope"):
            with pytest.raises(ValueError, match="r must be"):
                dpp_embed(ds, 2, r=bad)

    def test_standardize_flag(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 3)) * np.array([100.0, 1.0, 0.01])
        raw = dpp_embed(Dataset(x), 1)
        std = dpp_embed(Dataset(x), 1, standardize=True)
        # raw leading direction hugs the large-scale axis; standardized no
        assert abs(raw.eigvecs[0, 0]) > 0.99
        assert abs(std.eigvecs[0, 0]) < 0.9

    def test_k_validation(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng)
        with pytest.raises(ValueError):
            dpp_embed(ds, 6)
        with pytest.raises(ValueError):
            dpp_embed(Dataset(np.zeros((1, 3))), 1)


def loop_pair_sum(x, r):
    total = np.zeros((x.shape[1], x.shape[1]))
    count = 0
    for i in range(len(x)):
        for j in range(len(x)):
            u = x[i] - x[j]
            if i != j and u @ u < r * r:
                total += np.outer(u, u)
                count += 1
    return total, count


class TestPairSumForms:
    def test_all_pairs_embedding_is_covariance_pca(self):
        rng = np.random.default_rng(20)
        ds = make_dataset(rng, n=60)
        a = dpp_embed(ds, 3)
        eigvals, eigvecs = covariance_pca(ds.features, 3)
        eigvecs = eigvecs * np.sign(np.sum(a.eigvecs * eigvecs, axis=0))
        assert np.allclose(a.eigvecs, eigvecs, rtol=0, atol=1e-12)
        assert np.allclose(a.coords, ds.features @ eigvecs, rtol=0, atol=1e-10)
        assert np.allclose(a.eigvals / eigvals, 2 * (ds.n_rows - 1), rtol=1e-12)
        assert a.r_used is None

    def test_pair_at_exactly_r_is_excluded(self):
        # |(3, 4)| = 5 exactly; the third point moves the centroid so that
        # the Gram form of that distance rounds below 25.
        x = np.array([[0.0, 0.0], [3.0, 4.0], [-9.5, -8.1]])
        total, pairs = pair_difference_sum(x, r=5.0)
        assert pairs == 0
        assert np.all(total == 0.0)
        total, pairs = pair_difference_sum(x, r=5.0 + 1e-9)
        assert pairs == 2
        assert np.allclose(total, 2.0 * np.outer([3.0, 4.0], [3.0, 4.0]), rtol=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((300, 4))
        base, pairs = pair_difference_sum(x, r=1.5)
        shifted, shifted_pairs = pair_difference_sum(x + 1e6, r=1.5)
        assert shifted_pairs == pairs
        assert np.allclose(shifted, base, rtol=1e-9, atol=1e-9 * np.abs(base).max())

    def test_infinite_r_is_all_pairs(self):
        rng = np.random.default_rng(22)
        ds = make_dataset(rng)
        total, pairs = pair_difference_sum(ds.features, r=math.inf)
        expected, expected_pairs = pair_difference_sum(ds.features)
        assert pairs == expected_pairs == 40 * 39
        assert np.array_equal(total, expected)
        a = dpp_embed(ds, 2, r=math.inf)
        b = dpp_embed(ds, 2)
        assert np.array_equal(a.coords, b.coords)
        assert a.r_used is None

    def test_row_blocks_match_loop(self, monkeypatch):
        # 37 rows in blocks of 2 leaves a last block of one row.
        monkeypatch.setattr(dimred, "_BLOCK_ENTRIES", 100)
        rng = np.random.default_rng(23)
        x = rng.standard_normal((37, 3))
        total, pairs = pair_difference_sum(x, r=1.2)
        expected, count = loop_pair_sum(x, 1.2)
        assert 0 < pairs == count < 37 * 36
        assert np.allclose(total, expected, rtol=1e-12, atol=1e-12)


class TestPcaEmbed:
    def test_perfectly_correlated_columns(self):
        rng = np.random.default_rng(10)
        col = rng.standard_normal(60)
        ds = Dataset(np.column_stack([col, 3.0 * col + 1.0]))
        out = pca_embed(ds, 1)
        c = math.sqrt(0.5)
        assert np.allclose(np.abs(out.eigvecs[:, 0]), [c, c], atol=1e-9)
        assert out.eigvals[0] == pytest.approx(2.0, rel=1e-9)

    def test_rotation_covariance_of_covariance_pca(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((80, 3)) @ np.diag([3.0, 1.0, 0.3])
        theta = 0.5
        q = np.array([[math.cos(theta), -math.sin(theta), 0],
                      [math.sin(theta), math.cos(theta), 0],
                      [0, 0, 1.0]])
        # Covariance PCA is the all-pairs DPP embedding; pca_embed is
        # correlation PCA, which a rotation does not commute with.
        a = dpp_embed(Dataset(x), 3)
        b = dpp_embed(Dataset(x @ q.T), 3)
        assert np.allclose(np.abs(np.sum((q @ a.eigvecs) * b.eigvecs, axis=0)),
                           1.0, atol=1e-9)
        assert np.allclose(a.eigvals, b.eigvals, rtol=1e-9)
        assert np.allclose(a.eigvals, 2 * 79 * covariance_pca(x, 3)[0], rtol=1e-9)

    def test_correlation_matrix_spectrum(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((100, 4)) * np.array([10.0, 5.0, 1.0, 0.1])
        out = pca_embed(Dataset(x), 2)
        assert out.eigvals.sum() == pytest.approx(4.0, rel=1e-9)

    def test_zero_variance_column_rejected(self):
        ds = Dataset(np.column_stack([np.ones(10), np.arange(10.0)]))
        with pytest.raises(ValueError, match="zero-variance"):
            pca_embed(ds, 1)


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_auc([3.0, 2.0, 1.0, 0.0], [1, 1, 0, 0])
        assert curve.auc == 1.0
        assert tuple(curve.points[0]) == (0.0, 0.0)
        assert tuple(curve.points[-1]) == (1.0, 1.0)

    def test_all_ties_half(self):
        curve = roc_auc([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0])
        assert curve.auc == 0.5
        assert len(curve.points) == 2  # origin plus the single tie group

    def test_reflection(self):
        rng = np.random.default_rng(13)
        scores = rng.standard_normal(60)
        labels = (rng.random(60) < 0.4).astype(int)
        labels[0] = 1
        labels[1] = 0
        a = roc_auc(scores, labels).auc
        b = roc_auc(-scores, labels).auc
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_matches_mann_whitney_bruteforce(self):
        rng = np.random.default_rng(14)
        for trial in range(60):
            n = int(rng.integers(5, 120))
            scores = np.round(rng.standard_normal(n), 1)  # force ties
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
            expected = wins / (len(pos) * len(neg))
            assert roc_auc(scores, labels).auc == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=2, max_size=60)
           .filter(lambda rows: len({label for _, label in rows}) == 2))
    def test_equals_mann_whitney_u_statistic(self, rows):
        # Scores from seven values, so most draws have ties within and
        # across the classes.
        scores = np.array([score for score, _ in rows], dtype=float)
        labels = np.array([label for _, label in rows], dtype=int)
        pos, neg = scores[labels == 1], scores[labels == 0]
        u = stats.mannwhitneyu(pos, neg).statistic
        assert roc_auc(scores, labels).auc == u / (pos.size * neg.size)

    def test_monotone_curve(self):
        rng = np.random.default_rng(15)
        scores = rng.standard_normal(200)
        labels = (rng.random(200) < 0.3).astype(int)
        curve = roc_auc(scores, labels)
        assert np.all(np.diff(curve.points[:, 0]) >= 0)
        assert np.all(np.diff(curve.points[:, 1]) >= 0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([1.0, 2.0], [1, 1])

    @pytest.mark.parametrize("scores, labels, message", [
        ([1.0, 2.0, 3.0], [1, 0], "scores and labels must be 1-D of equal length"),
        ([[1.0, 2.0]], [[1, 0]], "scores and labels must be 1-D of equal length"),
        ([1.0, 2.0, 3.0], [1, 0, 2], "labels must be binary 0/1"),
        ([1.0, 2.0], [1, -1], "labels must be binary 0/1"),
    ], ids=["lengths", "2-D", "label-2", "label-minus-1"])
    def test_malformed_input_rejected(self, scores, labels, message):
        with pytest.raises(ValueError) as exc:
            roc_auc(scores, labels)
        assert str(exc.value) == message
