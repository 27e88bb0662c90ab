import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from gaussdpp import sampling
from gaussdpp import (BoxWindow, PointPattern, ScatteringMatrix, build_spectral_basis,
                      count_dispersion_test, empirical_pair_correlation,
                      isotropic_scattering, sample_gdp, sample_gdp_ensemble,
                      sample_poisson, spiked_scattering, unit_ball_volume)


def dense_pair_correlation(patterns, bin_edges):
    """Reference for empirical_pair_correlation: all N x N x d torus
    differences of a pattern at once."""
    edges = np.asarray(bin_edges, dtype=float)
    side, d = patterns[0].window.side, patterns[0].window.dim
    shell = side ** d * unit_ball_volume(d) * (edges[1:] ** d - edges[:-1] ** d)
    totals = np.zeros(edges.size - 1)
    for pat in patterns:
        pts = pat.points
        n = pts.shape[0]
        if n < 2:
            continue
        diff = np.abs(pts[:, None, :] - pts[None, :, :])
        diff = np.minimum(diff, side - diff)
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        counts, _ = np.histogram(dist[np.triu_indices(n, k=1)], bins=edges)
        totals += 2.0 * counts
    est = totals / (len(patterns) * shell)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return list(zip(centers.tolist(), est.tolist()))


@pytest.fixture(scope="module")
def iso1():
    return isotropic_scattering(1)


@pytest.fixture(scope="module")
def iso2():
    return isotropic_scattering(2)


class TestSpectralBasis:
    def test_mean_count_tracks_window_volume(self, iso1):
        # sum of eigenvalues ~ L^d * integral of the spectral density = L^d
        basis = build_spectral_basis(iso1, 10.0, tol=1e-6)
        assert basis.mean_count == pytest.approx(10.0, rel=0.01)

    def test_tight_tolerance_keeps_only_zero_mode(self, iso1):
        basis = build_spectral_basis(iso1, 3.0, tol=1.0 - 1e-12)
        assert basis.modes.shape == (1, 1)
        assert basis.modes[0, 0] == 0
        assert basis.eigenvalues[0] == 1.0

    def test_mode_set_closed_under_negation(self, iso2):
        basis = build_spectral_basis(iso2, 12.0)
        keys = {tuple(k) for k in basis.modes.tolist()}
        assert all(tuple(-np.asarray(k)) in keys for k in keys)

    def test_eigenvalues_in_range(self, iso2):
        basis = build_spectral_basis(iso2, 9.0, tol=1e-4)
        assert np.all(basis.eigenvalues > 1e-4)
        assert np.all(basis.eigenvalues <= 1.0)

    def test_anisotropic_box_is_elongated(self):
        sigma = ScatteringMatrix(np.diag([4.0, 0.25]) / (2 * math.pi))
        basis = build_spectral_basis(sigma, 10.0)
        spread = basis.modes.max(axis=0)
        # Larger scattering eigenvalue means faster spectral decay, so
        # fewer modes along that axis.
        assert spread[0] < spread[1]

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            build_spectral_basis(ScatteringMatrix(np.eye(2)), 5.0)

    def test_tol_validation(self, iso2):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="tol"):
                build_spectral_basis(iso2, 5.0, tol=bad)

    def test_mode_cap(self, iso2):
        with pytest.raises(ValueError, match="cap"):
            build_spectral_basis(iso2, 40.0, mode_cap=100)


class TestSampleGdp:
    def test_same_seed_identical(self, iso2):
        window = BoxWindow(10.0, 2)
        a = sample_gdp(iso2, window, 123)
        b = sample_gdp(iso2, window, 123)
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self, iso2):
        window = BoxWindow(10.0, 2)
        a = sample_gdp(iso2, window, 1)
        b = sample_gdp(iso2, window, 2)
        assert a.points.shape != b.points.shape or not np.array_equal(
            a.points, b.points)

    def test_points_inside_window(self, iso2):
        pat = sample_gdp(iso2, BoxWindow(8.0, 2), 5)
        assert np.all(np.abs(pat.points) <= 4.0)

    def test_count_moments_match_bernoulli_sums(self, iso1):
        # N = sum of independent Bernoulli(lambda_k); check both moments.
        window = BoxWindow(6.0, 1)
        basis = build_spectral_basis(iso1, 6.0)
        counts = np.array([len(sample_gdp(iso1, window, (99, i), basis=basis))
                           for i in range(600)])
        se_mean = math.sqrt(basis.count_variance / counts.size)
        assert counts.mean() == pytest.approx(basis.mean_count, abs=4 * se_mean)
        # Variance of the sample variance, normal-ish approximation.
        se_var = basis.count_variance * math.sqrt(2.0 / (counts.size - 1))
        assert counts.var(ddof=1) == pytest.approx(basis.count_variance,
                                                   abs=5 * se_var)

    def test_sub_poisson_dispersion(self, iso1):
        window = BoxWindow(6.0, 1)
        basis = build_spectral_basis(iso1, 6.0)
        counts = [len(sample_gdp(iso1, window, (7, i), basis=basis))
                  for i in range(250)]
        ratio, pvalue = count_dispersion_test(counts)
        assert ratio < 1.0
        assert pvalue < 0.01
        # Wilson-Hilferty approximation agrees with the exact chi-square.
        t = (len(counts) - 1) * np.var(counts, ddof=1) / np.mean(counts)
        exact = stats.chi2.cdf(t, len(counts) - 1)
        assert pvalue == pytest.approx(exact, abs=1e-3)

    def test_prebuilt_basis_must_match(self, iso2):
        basis = build_spectral_basis(iso2, 8.0)
        with pytest.raises(ValueError, match="basis"):
            sample_gdp(iso2, BoxWindow(10.0, 2), 0, basis=basis)

    def test_pair_correlation_small_window(self, iso1):
        # Empirical pair correlation against 1 - exp(-2 pi t^2), averaged
        # over each bin exactly as the estimator does (a center-value
        # comparison misstates the convex first bin).  Modest replication
        # here; the tight check lives in the acceptance suite.
        window = BoxWindow(6.0, 1)
        pats = sample_gdp_ensemble(iso1, window, 2500, seed=3)
        edges = np.arange(0.0, 1.61, 0.2)
        est = empirical_pair_correlation(pats, edges)
        for (center, value), lo, hi in zip(est, edges[:-1], edges[1:]):
            avg, _ = quad(lambda t: 1.0 - math.exp(-2.0 * math.pi * t ** 2),
                          lo, hi)
            assert value == pytest.approx(avg / (hi - lo), abs=0.05)


class TestSamplerStream:
    # Point counts and SHA-256 of points.tobytes() (float64, little-endian).
    # The first three were recorded from the sampler before its block loop
    # was rewritten as a candidate scan, iso2-L35 (whose float32 phase
    # spans two blocks) before compression became a per-block step; any
    # change to the random stream or to an acceptance decision shows here.
    @pytest.mark.parametrize("sigma, side, count, digest", [
        (isotropic_scattering(2), 20.0, 407,
         "414efd20036582b0a9622910bb90a1ee87af841d0903bb3772cee3a74a9cc835"),
        (spiked_scattering(3.0, [1.0, 0.0]), 28.0, 789,
         "d9143d674a6c1782c6a5c9093aac76dfa6546012da2355d21d22e57c9df65b2f"),
        (isotropic_scattering(3), 8.0, 546,
         "27b5d8b879548f9457b444e468b0dc2de137b55d1b42d6a6f18b58eefe0ede83"),
        (isotropic_scattering(2), 35.0, 1244,
         "dafd4f594907daa509e0448ab82bec10f531f2d77eb4956c0aad9e952b57f936"),
    ], ids=["iso2-L20", "spiked2-L28", "iso3-L8", "iso2-L35"])
    def test_golden_stream(self, sigma, side, count, digest):
        pts = sample_gdp(sigma, BoxWindow(side, sigma.dim), 0).points
        assert pts.shape == (count, sigma.dim)
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest

    def test_working_set_is_a_few_float32_bases(self, iso2):
        # The float32 complement basis holds up to 4 m^2 bytes.  A sampler
        # that holds a whole block of features and their projection, and
        # keeps them through the compression, peaks at 8.5 times that.
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            m = len(sample_gdp(iso2, BoxWindow(35.0, 2), 0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert m == 1244
        assert peak < 5 * 4 * m ** 2

    def test_rejection_budget(self, iso2):
        with pytest.raises(RuntimeError, match="rejection budget of 0 exhausted"):
            sample_gdp(iso2, BoxWindow(20.0, 2), 0, max_rejects=0)

    def test_features_match_float64_reference(self):
        side = 45.0
        sigma = spiked_scattering(3.0, [1.0, 0.0])
        modes = build_spectral_basis(sigma, side).modes
        widest = modes[np.argmax(np.abs(modes).sum(axis=1))]
        # The constant mode, the widest mode as cosine and sine, and a
        # spread of others; more modes than one chunk of rows holds.
        k = np.concatenate([[[0, 0]], [widest, widest], modes[::7]])
        sin = np.zeros(k.shape[0], dtype=bool)
        sin[2] = True
        sin[3::2] = True
        amp = np.where(np.all(k == 0, axis=1) & ~sin, math.sqrt(1.0 / side ** 2),
                       math.sqrt(2.0 / side ** 2))
        x = np.random.default_rng(4).uniform(-side / 2, side / 2, size=(300, 2))
        x[:2] = [[-side / 2, side / 2], [side / 2, -side / 2]]
        psi = sampling._features(k.astype(float), np.where(sin, 0.25, 0.0),
                                 amp.astype(np.float32), x, side)
        assert psi.dtype == np.float32 and psi.shape == (300, k.shape[0])
        assert 300 > sampling._FEATURE_CHUNK // k.shape[0]
        angle = 2.0 * math.pi * (x @ k.T) / side
        ref = amp * np.where(sin, np.sin(angle), np.cos(angle))
        assert np.all(np.abs(psi - ref) <= 1e-6 * amp)

    @pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 5e-6)])
    def test_orthonormal_bases_match_householder_qr(self, dtype, atol, monkeypatch):
        # Blocks of 16 rows make the triangular solve take several steps.
        monkeypatch.setattr(sampling, "_TRI_BLOCK", 16)
        a = np.random.default_rng(2).standard_normal((90, 50)).astype(dtype)
        full = np.linalg.qr(a, mode="complete")[0]
        span = sampling._orthonormal_basis(a)
        comp = sampling._orthonormal_basis(a, complement=True)
        assert span.dtype == comp.dtype == dtype
        assert np.allclose(span, full[:, :50], rtol=0, atol=atol)
        assert np.allclose(comp, full[:, 50:], rtol=0, atol=atol)

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           shape=st.integers(2, 300).flatmap(
               lambda q: st.tuples(st.just(q), st.integers(1, q - 1))),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_complement_is_orthonormal_and_orthogonal_to_the_span(self, dtype, shape, seed):
        # The sampler compresses after every block, down to tail blocks
        # of q = 2 active directions with s = 1 accepted.
        q, s = shape
        a = np.random.default_rng(seed).standard_normal((q, s)).astype(dtype)
        comp = sampling._orthonormal_basis(a, complement=True)
        assert comp.dtype == dtype and comp.shape == (q, q - s)
        tol = 10 * q * np.finfo(dtype).eps
        assert np.abs(comp.T @ comp - np.eye(q - s)).max() <= tol
        assert np.abs(comp.T @ (a / np.linalg.norm(a, axis=0))).max() <= tol


class TestSamplePoisson:
    def test_determinism(self):
        w = BoxWindow(10.0, 2)
        assert np.array_equal(sample_poisson(1.0, w, 3).points,
                              sample_poisson(1.0, w, 3).points)

    def test_count_moments(self):
        w = BoxWindow(10.0, 2)
        counts = np.array([len(sample_poisson(1.0, w, (5, i)))
                           for i in range(400)])
        assert counts.mean() == pytest.approx(100.0, abs=4 * math.sqrt(100 / 400))
        assert counts.var(ddof=1) == pytest.approx(100.0, rel=0.3)

    def test_rejects_bad_intensity(self):
        with pytest.raises(ValueError):
            sample_poisson(0.0, BoxWindow(5.0, 2), 0)


class TestEnsemble:
    def test_prefix_stability(self, iso2):
        window = BoxWindow(8.0, 2)
        first = sample_gdp_ensemble(iso2, window, 3, seed=13)
        longer = sample_gdp_ensemble(iso2, window, 5, seed=13)
        for a, b in zip(first, longer):
            assert np.array_equal(a.points, b.points)


class TestEmpiricalPairCorrelation:
    def test_poisson_is_flat(self):
        w = BoxWindow(12.0, 2)
        pats = [sample_poisson(1.0, w, (8, i)) for i in range(300)]
        est = empirical_pair_correlation(pats, np.arange(0.0, 2.01, 0.25))
        for _, value in est:
            assert value == pytest.approx(1.0, abs=0.08)

    def test_repulsion_at_contact(self, iso2):
        window = BoxWindow(10.0, 2)
        basis = build_spectral_basis(iso2, 10.0)
        pats = [sample_gdp(iso2, window, (2, i), basis=basis) for i in range(150)]
        est = empirical_pair_correlation(pats, [0.0, 0.15])
        assert est[0][1] < 0.15

    def test_row_blocks_match_dense_oracle(self):
        w = BoxWindow(6.0, 2)
        pats = [sample_poisson(1.0, w, (9, i)) for i in range(4)]
        pats.append(PointPattern(pats[0].points[:37], w))
        edges = np.arange(0.0, 3.01, 0.25)
        assert empirical_pair_correlation(pats, edges) == dense_pair_correlation(pats, edges)

    def test_patterns_below_two_points(self):
        w = BoxWindow(6.0, 3)
        pats = [PointPattern(np.zeros((0, 3)), w), PointPattern([[1.0, 2.0, 0.5]], w),
                sample_poisson(1.0, w, 4)]
        edges = [0.0, 0.5, 1.0, 2.0]
        assert empirical_pair_correlation(pats, edges) == dense_pair_correlation(pats, edges)
        assert empirical_pair_correlation(pats[:2], edges) == [(0.25, 0.0), (0.75, 0.0),
                                                               (1.5, 0.0)]

    def test_pairs_wrap_around_the_torus(self):
        w = BoxWindow(6.0, 2)
        pat = PointPattern([[-2.95, 0.0], [2.95, 0.05], [0.0, 2.9], [0.1, -2.9], [1.0, 1.0]], w)
        edges = [0.0, 0.15, 0.25, 3.0]
        est = empirical_pair_correlation([pat], edges)
        assert est == dense_pair_correlation([pat], edges)
        # (-2.95, 0) and (2.95, 0.05) are 0.1118 apart across the x faces;
        # (0, 2.9) and (0.1, -2.9) are 0.2236 apart across the y faces.
        assert [value > 0 for _, value in est] == [True, True, True]

    def test_pair_at_the_last_edge_counts(self):
        # np.histogram closes its last bin, so a pair exactly at the last
        # edge counts there, as in the dense oracle.
        w = BoxWindow(6.0, 2)
        pat = PointPattern([[0.0, 0.0], [1.5, 0.0], [0.0, 2.5]], w)
        edges = [0.0, 0.5, 1.5]
        est = empirical_pair_correlation([pat], edges)
        assert est == dense_pair_correlation([pat], edges)
        assert est[1][1] > 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_pair_correlation([], [0.0, 1.0])
        pat = sample_poisson(1.0, BoxWindow(6.0, 2), 0)
        with pytest.raises(ValueError, match="increasing"):
            empirical_pair_correlation([pat], [1.0, 0.5])
        with pytest.raises(ValueError, match="half the torus"):
            empirical_pair_correlation([pat], [0.0, 4.0])


def test_dispersion_test_validation():
    with pytest.raises(ValueError):
        count_dispersion_test([5])
