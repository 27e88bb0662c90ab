import hashlib
import math
import os
import pickle
import signal
import tempfile
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from gaussdpp import sampling
from gaussdpp import (BallWindow, BoxWindow, PointPattern, ScatteringMatrix, build_spectral_basis,
                      count_dispersion_test, empirical_pair_correlation,
                      isotropic_scattering, normalize_scattering, sample_gdp, sample_poisson,
                      spectral_density, spiked_scattering, unit_ball_volume)
from oracles import count_variance, mean_count, modes_in_box


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
        basis = build_spectral_basis(iso1, 10.0)
        assert mean_count(basis) == pytest.approx(10.0, rel=0.01)

    def test_tiny_window_keeps_only_zero_mode(self, iso1):
        basis = build_spectral_basis(iso1, 0.3)
        assert basis.modes.shape == (1, 1)
        assert basis.modes[0, 0] == 0
        assert basis.eigenvalues[0] == 1.0
        # The zero mode is always selected, so every draw has a point.
        assert len(sample_gdp(iso1, BoxWindow(0.3, 1), 0)) == 1

    def test_mode_set_closed_under_negation(self, iso2):
        basis = build_spectral_basis(iso2, 12.0)
        keys = {tuple(k) for k in basis.modes.tolist()}
        assert all(tuple(-np.asarray(k)) in keys for k in keys)

    def test_eigenvalues_in_range(self, iso2):
        basis = build_spectral_basis(iso2, 9.0)
        assert np.all(basis.eigenvalues > sampling.DEFAULT_TOL)
        assert np.all(basis.eigenvalues <= 1.0)

    @pytest.mark.parametrize("sigma, side", [
        (isotropic_scattering(1), 30.0), (isotropic_scattering(2), 20.0),
        (spiked_scattering(3.0, [1.0, 0.0]), 28.0), (isotropic_scattering(3), 8.0),
        (spiked_scattering(2.0, [0.0, 0.6, 0.8]), 9.0), (isotropic_scattering(4), 5.0),
        (spiked_scattering(1.0, [0.5, 0.5, 0.5, 0.5]), 5.0)],
        ids=["iso1", "iso2", "spiked2", "iso3", "spiked3", "iso4", "spiked4"])
    def test_eigenvalues_are_the_spectral_density(self, sigma, side):
        # Mode k is kept with probability f(k/L), f the kernel's Fourier
        # transform, bit for bit; a frequency gets the same value alone as
        # in an array.
        basis = build_spectral_basis(sigma, side)
        omega = basis.modes / side
        assert np.array_equal(basis.eigenvalues, spectral_density(sigma, omega))
        rows = np.arange(0, omega.shape[0], max(1, omega.shape[0] // 300))
        assert np.array_equal(basis.eigenvalues[rows],
                              [spectral_density(sigma, omega[i]) for i in rows])

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

    def test_mode_cap(self, iso2, monkeypatch):
        monkeypatch.setattr(sampling, "_MODE_CAP", 100)
        with pytest.raises(ValueError, match="cap of 100"):
            build_spectral_basis(iso2, 40.0)

    def test_running_count_cap(self, iso2, monkeypatch):
        # L=40 keeps 22,105 modes; a cap one below passes the volume bound
        # and only the enumeration's running count refuses it.
        monkeypatch.setattr(sampling, "_MODE_CAP", 22_104)
        with pytest.raises(ValueError, match="^mode count exceeds the cap of 22104"):
            build_spectral_basis(iso2, 40.0)
        monkeypatch.setattr(sampling, "_MODE_CAP", 22_105)
        assert build_spectral_basis(iso2, 40.0).modes.shape[0] == 22_105

    @pytest.mark.parametrize("sigma, side", [
        (isotropic_scattering(1), 30.0), (isotropic_scattering(2), 20.0),
        (spiked_scattering(3.0, [1.0, 0.0]), 28.0), (isotropic_scattering(3), 8.0),
        (spiked_scattering(2.0, [0.0, 0.6, 0.8]), 9.0), (isotropic_scattering(4), 5.0),
        (spiked_scattering(1.0, [0.5, 0.5, 0.5, 0.5]), 5.0),
        (spiked_scattering(200.0, [math.sqrt(0.5), math.sqrt(0.5)]), 20.0)],
        ids=["iso1", "iso2", "spiked2", "iso3", "spiked3", "iso4", "spiked4", "needle"])
    def test_modes_are_those_of_the_bounding_box(self, sigma, side):
        # The row-by-row enumeration keeps the modes, their order and their
        # eigenvalues of a scan of every integer point of the ellipsoid's
        # bounding box, also for a thin needle off the axes.
        modes, eigenvalues = modes_in_box(sigma, side)
        basis = build_spectral_basis(sigma, side)
        assert np.array_equal(basis.modes, modes)
        assert np.array_equal(basis.eigenvalues, eigenvalues)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_modes_of_random_matrices_are_those_of_the_bounding_box(self, d):
        rng = np.random.default_rng(d)
        for side in (0.8, 9.0 / d, 13.0 / d):
            a = rng.standard_normal((d, d + 1))
            sigma = normalize_scattering(ScatteringMatrix(a @ a.T + 0.1 * np.eye(d)))
            modes, eigenvalues = modes_in_box(sigma, side)
            basis = build_spectral_basis(sigma, side)
            assert np.array_equal(basis.modes, modes)
            assert np.array_equal(basis.eigenvalues, eigenvalues)

    def test_high_dimension_keeps_the_lattice_ball(self):
        # At d=12, L=1 the kept modes are the k with |k|^2 <= 4: 1 + 24 + 264
        # + 1,760 + 7,944 of the 5^12 = 2.4e8 points of the bounding box.
        modes = build_spectral_basis(isotropic_scattering(12), 1.0).modes
        assert modes.shape == (9_993, 12)
        assert np.array_equal(np.bincount(np.einsum("ij,ij->i", modes, modes)),
                              [1, 24, 264, 1_760, 7_944])
        assert np.array_equal(np.unique(modes, axis=0), modes)  # sorted, each once
        assert np.array_equal(modes[::-1], -modes)

    def test_box_over_the_cap_is_refused_before_enumeration(self):
        # At d=4, L=30 the ellipsoid holds about 7.7e7 modes, and the prefixes
        # of its first three coordinates alone about 1.04e6, under the cap:
        # their 25 MB of coordinates would be built before the last
        # coordinate's count passed the cap.  The volume bound refuses first.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValueError, match="exceeds the cap of 2000000"):
                build_spectral_basis(isotropic_scattering(4), 30.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_coordinate_budget_refuses_a_level_before_building_it(self, monkeypatch):
        # d=4, L=6: the prefix levels hold 25, 497, 8,385 and 124,417 modes,
        # the last one 3.8 MB of coordinates.  A budget one coordinate short
        # of it is refused from the 0.2 MB of the level before.
        monkeypatch.setattr(sampling, "_MODE_ENTRIES", 4 * 124_417 - 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValueError, match="^124417 mode prefixes of 4 coordinates "
                                                 "exceed the budget of 497667 coordinates"):
                build_spectral_basis(isotropic_scattering(4), 6.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20  # building the refused level alone takes 3.8 MB
        monkeypatch.setattr(sampling, "_MODE_ENTRIES", 4 * 124_417)
        assert build_spectral_basis(isotropic_scattering(4), 6.0).modes.shape == (124_417, 4)

    def test_enumeration_memory_is_a_few_slabs(self):
        # d=4, L=6: 124k modes, whose box holds 2.1e6 candidates.  Scanning
        # the box in slabs of 2^20 candidates peaked at 41.9 MiB, 2^16 at
        # 13.9 MiB; building the ellipsoid one coordinate at a time, 13.6 MiB.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            basis = build_spectral_basis(isotropic_scattering(4), 6.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert basis.modes.shape[0] > 100_000
        assert peak < 20 << 20


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
        counts = np.array([len(sample_gdp(iso1, window, (99, i))) for i in range(600)])
        se_mean = math.sqrt(count_variance(basis) / counts.size)
        assert counts.mean() == pytest.approx(mean_count(basis), abs=4 * se_mean)
        # Variance of the sample variance, normal-ish approximation.
        se_var = count_variance(basis) * math.sqrt(2.0 / (counts.size - 1))
        assert counts.var(ddof=1) == pytest.approx(count_variance(basis),
                                                   abs=5 * se_var)

    def test_sub_poisson_dispersion(self, iso1):
        window = BoxWindow(6.0, 1)
        counts = [len(sample_gdp(iso1, window, (7, i))) for i in range(250)]
        ratio, pvalue = count_dispersion_test(counts)
        assert ratio < 1.0
        assert pvalue < 0.01
        # Wilson-Hilferty approximation agrees with the exact chi-square.
        t = (len(counts) - 1) * np.var(counts, ddof=1) / np.mean(counts)
        exact = stats.chi2.cdf(t, len(counts) - 1)
        assert pvalue == pytest.approx(exact, abs=1e-3)

    def test_window_and_sigma_dimensions_must_agree(self, iso2):
        with pytest.raises(ValueError, match="dimensions differ"):
            sample_gdp(iso2, BoxWindow(10.0, 3), 0)
        with pytest.raises(ValueError, match="dimensions differ"):
            sample_gdp(iso2, BoxWindow(10.0, 1), (0, 0))
        # Checked before the basis is built: this one is over the mode cap.
        with pytest.raises(ValueError, match="dimensions differ"):
            sample_gdp(isotropic_scattering(4), BoxWindow(30.0, 2), 0)

    def test_pair_correlation_small_window(self, iso1):
        # Empirical pair correlation against 1 - exp(-2 pi t^2), averaged
        # over each bin exactly as the estimator does (a center-value
        # comparison misstates the convex first bin).  Modest replication
        # here; the tight check lives in the acceptance suite.
        window = BoxWindow(6.0, 1)
        pats = [sample_gdp(iso1, window, (3, i)) for i in range(2500)]
        edges = np.arange(0.0, 1.61, 0.2)
        est = empirical_pair_correlation(pats, edges, iso1)
        for (center, value), lo, hi in zip(est, edges[:-1], edges[1:]):
            avg, _ = quad(lambda t: 1.0 - math.exp(-2.0 * math.pi * t ** 2),
                          lo, hi)
            assert value == pytest.approx(avg / (hi - lo), abs=0.05)


class TestSamplerStream:
    # Point counts and SHA-256 of points.tobytes() (float64, little-endian).
    # The first three were recorded from the sampler before its block loop
    # was rewritten as a candidate scan, iso2-L35 (whose float32 phase
    # spans two blocks) before compression became a per-block step, and
    # the last three before the sampler's two complement routines became
    # one: iso1-L30 (rank 26) is drawn within its first block, iso4-L5 and
    # spiked3-L9 cover d=4 and a spike in d=3.  iso3-L12, validate's d=3
    # configuration, was recorded before the QR became recursive.  Any
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
        (isotropic_scattering(1), 30.0, 26,
         "d336a6e13fce1e4398bc86edd275092631d9d6f97e24088c0c2feed8de6c9ad3"),
        (isotropic_scattering(4), 5.0, 619,
         "46fbba44092c009b24fdb1d6a9ddd0a54bf47e1ecf42995d4113c63c4adb2315"),
        (spiked_scattering(2.0, [0.0, 0.6, 0.8]), 9.0, 738,
         "772f2d072e8ff60b055a1b0543a741c7ae5101f6a80388b0b3492b541a1d879a"),
        (isotropic_scattering(3), 12.0, 1694,
         "692414ed0ff7f5e6b0686d94aef72479b3422ca510effe5cdbe1b17ea8afe289"),
    ], ids=["iso2-L20", "spiked2-L28", "iso3-L8", "iso2-L35", "iso1-L30", "iso4-L5",
            "spiked3-L9", "iso3-L12"])
    def test_golden_stream(self, sigma, side, count, digest):
        pts = sample_gdp(sigma, BoxWindow(side, sigma.dim), 0).points
        assert pts.shape == (count, sigma.dim)
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("sigma, side", [
        (isotropic_scattering(1), 30.0), (spiked_scattering(3.0, [1.0, 0.0]), 28.0),
        (isotropic_scattering(3), 8.0), (spiked_scattering(2.0, [0.0, 0.6, 0.8]), 9.0)],
        ids=["iso1-L30", "spiked2-L28", "iso3-L8", "spiked3-L9"])
    def test_selection_matches_interleaved_reference(self, sigma, side):
        # Reference: one uniform per real mode, the zero mode first and then
        # the cosine and sine of each positive representative (first nonzero
        # coordinate positive), the kept modes put cosines first by a
        # stable sort.
        basis = build_spectral_basis(sigma, side)
        modes, lam = basis.modes, basis.eigenvalues
        lead = np.take_along_axis(modes, np.argmax(modes != 0, axis=1)[:, None], axis=1)[:, 0]
        zero, reps = np.all(modes == 0, axis=1), lead > 0
        k_all = np.concatenate([modes[zero], np.repeat(modes[reps], 2, axis=0)])
        sin_all = np.concatenate([np.zeros(zero.sum(), dtype=bool),
                                  np.tile([False, True], reps.sum())])
        lam_all = np.concatenate([lam[zero], np.repeat(lam[reps], 2)])
        for seed in range(3):
            keep = np.random.default_rng(seed).random(lam_all.size) < lam_all
            order = np.argsort(sin_all[keep], kind="stable")
            k_sel, shift = sampling._realified_selection(np.random.default_rng(seed), basis)
            assert np.array_equal(k_sel, k_all[keep][order])
            # Phase shifts in turns: 1/8 for the zero mode, 1/4 for a sine.
            sine = sin_all[keep][order]
            assert shift[0] == 0.125
            assert np.array_equal(shift[1:], np.where(sine[1:], 0.25, 0.0))

    def test_working_set_is_a_few_float32_bases(self, iso2):
        # The float32 complement basis holds up to 4 m^2 bytes.  A sampler
        # that holds a whole block of features and their projection, and
        # keeps them through the compression, peaks at 8.5 times that.
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            m = len(sample_gdp(iso2, BoxWindow(35.0, 2), 0))  # the drawn rank, about 1225
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5 * 4 * m ** 2

    def test_compression_updates_the_basis_in_place(self):
        # One compression of a float32 basis (m, q) by s accepted rows.
        # Forming the (q, q - s) complement and multiplying, with the QR
        # run on a float64 copy of a, peaked at 1.17 times the basis bytes.
        m, q, s = 1200, 900, 300
        rng = np.random.default_rng(0)
        proj = np.linalg.qr(rng.standard_normal((m, q)))[0].astype(np.float32)
        rows = rng.standard_normal((s, m))
        a = np.asfortranarray((rows @ proj).astype(np.float32).T)
        ref = proj @ np.linalg.qr(a.astype(np.float64), mode="complete")[0][:, s:]
        basis_bytes = proj.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            new = sampling._compress(proj, a)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.7 * basis_bytes
        assert new.dtype == np.float32 and new.shape == (m, q - s)
        assert np.shares_memory(new, proj)
        tol = 10 * q * np.finfo(np.float32).eps
        assert np.abs(new - ref).max() <= tol
        assert np.abs(new.T @ new - np.eye(q - s)).max() <= tol
        unit_rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert np.abs(unit_rows @ new).max() <= tol

    @pytest.mark.parametrize("d, side", [(1, 400.0), (2, 35.0)])
    def test_every_compression_runs_in_float32(self, d, side, monkeypatch):
        # Ranks of about 400 and 1225, whatever the stream.  The first block
        # holds 1024 proposals, each accepted with probability (m - j) / m:
        # it cannot finish a draw of rank 1225, and finishes one of rank 400
        # with probability about exp(-400 e^(-1024/400)) = e^-31.  So both
        # draws compress.
        dtypes = []
        compress = sampling._compress

        def record(proj, a):
            dtypes.append(a.dtype)
            if proj is not None:
                dtypes.append(proj.dtype)
            return compress(proj, a)
        monkeypatch.setattr(sampling, "_compress", record)
        sample_gdp(isotropic_scattering(d), BoxWindow(side, d), 0)
        assert dtypes and all(dt == np.float32 for dt in dtypes)

    def test_float32_compression_chain_stays_orthonormal(self):
        # The sampler's blocks: about 40% of the rank accepted first, then
        # about 32 rows a block, 24 float32 compressions down to 8
        # directions.  Over seeds 0-9 the worst values were 2.4e-7 off
        # orthonormal, 1.1e-7 of an accepted unit row left in the basis,
        # and a kv error of 1.7e-7 ||psi||^2 (kv itself about 6e-3
        # ||psi||^2); the bounds are ten times those.
        m = 1200
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((480, m)).astype(np.float32)
        accepted = [rows]
        proj = sampling._compress(None, rows.copy().T)
        while proj.shape[1] > 8:
            rows = rng.standard_normal((min(32, proj.shape[1] - 8), m)).astype(np.float32)
            accepted.append(rows)
            proj = sampling._compress(proj, (rows @ proj).T)
        assert proj.dtype == np.float32 and proj.shape == (m, 8)
        basis = proj.astype(np.float64)
        assert np.abs(basis.T @ basis - np.eye(8)).max() <= 2.5e-6
        span = np.concatenate(accepted).astype(np.float64)
        span /= np.linalg.norm(span, axis=1, keepdims=True)
        assert np.abs(span @ basis).max() <= 1.2e-6
        psi = rng.standard_normal((200, m)).astype(np.float32)
        feats = psi @ proj
        kv = np.einsum("ij,ij->i", feats, feats)
        psi = psi.astype(np.float64)
        coords = psi @ np.linalg.qr(span.T)[0]
        nrm2 = np.einsum("ij,ij->i", psi, psi)
        exact = nrm2 - np.einsum("ij,ij->i", coords, coords)
        assert np.all(np.abs(kv - exact) <= 1.8e-6 * nrm2)

    def test_rejection_budget(self, iso2, monkeypatch):
        # Every proposal gets the same feature vector, so after the first
        # acceptance each later one has conditional density exactly 0 and
        # is rejected, whatever the stream.
        def same_feature(k_float, shift, x, side):
            psi = np.zeros((len(x), len(k_float)), dtype=np.float32)
            psi[:, 0] = 1.0
            return psi
        monkeypatch.setattr(sampling, "_features", same_feature)
        monkeypatch.setattr(sampling, "_MAX_REJECTS", 0)
        with pytest.raises(RuntimeError, match="rejection budget of 0 exhausted at point 2/"):
            sample_gdp(iso2, BoxWindow(20.0, 2), 0)

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
        # The sampler's shifts: a quarter turn for a sine, an eighth for
        # the constant mode, whose feature is then the constant 1/sqrt(2).
        const = np.all(k == 0, axis=1) & ~sin
        amp = np.where(const, math.sqrt(0.5), 1.0)
        x = np.random.default_rng(4).uniform(-side / 2, side / 2, size=(300, 2))
        x[:2] = [[-side / 2, side / 2], [side / 2, -side / 2]]
        shift = np.where(sin, 0.25, np.where(const, 0.125, 0.0))
        psi = sampling._features(k.astype(float), shift, x, side)
        assert psi.dtype == np.float32 and psi.shape == (300, k.shape[0])
        assert 300 > sampling._FEATURE_CHUNK // k.shape[0]
        angle = 2.0 * math.pi * (x @ k.T) / side
        ref = np.where(const, amp, np.where(sin, np.sin(angle), np.cos(angle)))
        assert np.all(np.abs(psi - ref) <= 1e-6 * amp)

    @pytest.mark.parametrize("shift", [0.0, 0.25], ids=["cosine", "sine"])
    def test_projection_draws_follow_the_kernel(self, shift):
        # Rank 2 in d=1: the constant mode and frequency k as a cosine or a
        # sine.  With c(x) = cos(2 pi (k x/L - shift)) the kernel is
        # K(x, y) = (1 + 2 c(x) c(y))/L.  The first point of a draw has
        # density K(x,x)/m = (1/2 + c(x)^2)/L, and so has every point, pooled
        # over the draws.  Given the first point x1, the second has density
        # det/K(x1,x1) = 2 (c(x) - c(x1))^2 / (L (1 + 2 c(x1)^2)), so its
        # conditional CDF is uniform over the draws.  Over these 2000 draws
        # the KS p-values read 0.036 and 0.032 (first point), 0.25 and 0.55
        # (pooled), 0.61 and 0.51 (conditional).  Tested against the other
        # phase's law, the first point read 2e-7 and 2e-8.  A sampler that
        # draws its proposals at the other phase read 2e-8 and 2e-7 (first
        # point); one that forms its features there, 2e-8 and 3e-19
        # (conditional).
        side, k = 6.0, 2
        modes, shifts = np.array([[0], [k]]), np.array([0.125, shift])
        draws = np.array([
            sampling._sample_projection(np.random.default_rng(seed), modes, shifts, side)[:, 0]
            for seed in range(2000)])
        first, second = draws.T

        def phase(x):
            return 2.0 * math.pi * (k * x / side - shift)

        def c_int(x):  # the integral of c from -L/2 to x
            return side / (2.0 * math.pi * k) * (np.sin(phase(x)) - math.sin(phase(-side / 2)))

        def c2_int(x):  # the integral of c^2 from -L/2 to x
            return (x + side / 2) / 2 + side / (8.0 * math.pi * k) * (
                np.sin(2.0 * phase(x)) - math.sin(2.0 * phase(-side / 2)))

        def cdf(x):
            return ((x + side / 2) / 2 + c2_int(x)) / side

        c1 =np.cos(phase(first))
        u = (2.0 * (c1 ** 2 * (second + side / 2) - 2.0 * c1 * c_int(second) + c2_int(second))
             / (side * (1.0 + 2.0 * c1 ** 2)))
        assert stats.kstest(first, cdf).pvalue > 1e-4
        assert stats.kstest(draws.ravel(), cdf).pvalue > 1e-4
        assert stats.kstest(u, "uniform").pvalue > 1e-4

    def test_cos2_quantiles_invert_the_cdf(self):
        # The law cos(t)^2 / pi on [0, 2 pi) has CDF (2t + sin 2t) / (4 pi);
        # 50 bisection steps left at most 1.2e-15 of it on these draws.
        u = np.random.default_rng(0).random(10_000)
        t = sampling._cos2_inverse_cdf(u)
        assert np.all((t >= 0.0) & (t < 2.0 * math.pi))
        assert np.abs((2.0 * t + np.sin(2.0 * t)) / (4.0 * math.pi) - u).max() <= 2.5e-15

    @pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 5e-6)])
    def test_orthonormal_bases_match_householder_qr(self, dtype, atol, monkeypatch):
        # Leaves of 4 columns make the recursive QR run several levels,
        # with odd splits (50 -> 25 -> 12 + 13 -> ...).
        monkeypatch.setattr(sampling, "_QR_LEAF", 4)
        a = np.random.default_rng(2).standard_normal((90, 50)).astype(dtype)
        full = np.linalg.qr(a, mode="complete")[0]
        comp = sampling._compress(None, a.copy())
        assert comp.dtype == dtype
        assert np.allclose(comp, full[:, 50:], rtol=0, atol=atol)

    @pytest.mark.parametrize("leaf", [sampling._QR_LEAF, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("s", [1, 4, 5, 37, 100])
    def test_householder_returns_the_compact_wy_factor(self, s, dtype, leaf, monkeypatch):
        # I - V T V' is the Q of LAPACK's Householder QR, with T upper
        # triangular, whether a leaf or many levels of recursion built it.
        monkeypatch.setattr(sampling, "_QR_LEAF", leaf)
        q = 120
        a = np.random.default_rng(s).standard_normal((q, s))
        full = np.linalg.qr(a, mode="complete")[0]
        v = a.astype(dtype)
        t = sampling._householder(v)
        assert t.dtype == dtype and t.shape == (s, s)
        assert np.array_equal(t, np.triu(t))
        assert np.array_equal(v, np.tril(v)) and np.all(np.diag(v) == 1.0)
        v, t = v.astype(np.float64), t.astype(np.float64)
        tol = 1e-12 if dtype == np.float64 else 10 * q * np.finfo(dtype).eps
        assert np.abs(np.eye(q) - v @ t @ v.T - full).max() <= tol

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
        comp = sampling._compress(None, a.copy())
        assert comp.dtype == dtype and comp.shape == (q, q - s)
        tol = 10 * q * np.finfo(dtype).eps
        assert np.abs(comp.T @ comp - np.eye(q - s)).max() <= tol
        assert np.abs(comp.T @ (a / np.linalg.norm(a, axis=0))).max() <= tol


class TestSamplePoisson:
    def test_determinism(self):
        w = BoxWindow(10.0, 2)
        assert np.array_equal(sample_poisson(w, 3).points,
                              sample_poisson(w, 3).points)

    def test_count_moments(self):
        w = BoxWindow(10.0, 2)
        counts = np.array([len(sample_poisson(w, (5, i)))
                           for i in range(400)])
        assert counts.mean() == pytest.approx(100.0, abs=4 * math.sqrt(100 / 400))
        assert counts.var(ddof=1) == pytest.approx(100.0, rel=0.3)


class TestEmpiricalPairCorrelation:
    def test_poisson_is_flat(self, iso2):
        w = BoxWindow(12.0, 2)
        pats = [sample_poisson(w, (8, i)) for i in range(300)]
        est = empirical_pair_correlation(pats, np.arange(0.0, 2.01, 0.25), iso2)
        for _, value in est:
            assert value == pytest.approx(1.0, abs=0.08)

    def test_repulsion_at_contact(self, iso2):
        window = BoxWindow(10.0, 2)
        pats = [sample_gdp(iso2, window, (2, i)) for i in range(150)]
        est = empirical_pair_correlation(pats, [0.0, 0.15], iso2)
        assert est[0][1] < 0.15

    def test_row_blocks_match_dense_oracle(self, iso2):
        w = BoxWindow(6.0, 2)
        pats = [sample_poisson(w, (9, i)) for i in range(4)]
        pats.append(PointPattern(pats[0].points[:37], w))
        edges = np.arange(0.0, 3.01, 0.25)
        assert empirical_pair_correlation(pats, edges, iso2) == dense_pair_correlation(pats, edges)

    def test_patterns_below_two_points(self):
        w = BoxWindow(6.0, 3)
        pats = [PointPattern(np.zeros((0, 3)), w), PointPattern([[1.0, 2.0, 0.5]], w),
                sample_poisson(w, 4)]
        edges = [0.0, 0.5, 1.0, 2.0]
        iso3 = isotropic_scattering(3)
        assert empirical_pair_correlation(pats, edges, iso3) == dense_pair_correlation(pats, edges)
        assert empirical_pair_correlation(pats[:2], edges, iso3) == [(0.25, 0.0), (0.75, 0.0),
                                                                     (1.5, 0.0)]

    def test_pairs_wrap_around_the_torus(self, iso2):
        w = BoxWindow(6.0, 2)
        pat = PointPattern([[-2.95, 0.0], [2.95, 0.05], [0.0, 2.9], [0.1, -2.9], [1.0, 1.0]], w)
        edges = [0.0, 0.15, 0.25, 3.0]
        est = empirical_pair_correlation([pat], edges, iso2)
        assert est == dense_pair_correlation([pat], edges)
        # (-2.95, 0) and (2.95, 0.05) are 0.1118 apart across the x faces;
        # (0, 2.9) and (0.1, -2.9) are 0.2236 apart across the y faces.
        assert [value > 0 for _, value in est] == [True, True, True]

    def test_pair_at_the_last_edge_counts(self, iso2):
        # np.histogram closes its last bin, so a pair exactly at the last
        # edge counts there, as in the dense oracle.
        w = BoxWindow(6.0, 2)
        pat = PointPattern([[0.0, 0.0], [1.5, 0.0], [0.0, 2.5]], w)
        edges = [0.0, 0.5, 1.5]
        est = empirical_pair_correlation([pat], edges, iso2)
        assert est == dense_pair_correlation([pat], edges)
        assert est[1][1] > 0

    def test_pair_metric(self):
        sigma = spiked_scattering(3.0, np.array([1.0, 1.0]) / math.sqrt(2.0))
        whiten, stretch = sampling.pair_metric(sigma)
        u = np.random.default_rng(4).standard_normal((20, 2))
        rho2 = np.einsum("ij,jk,ik->i", u, np.linalg.inv(2 * math.pi * sigma.entries), u)
        assert np.allclose(np.sum((u @ whiten) ** 2, axis=1), rho2, rtol=1e-12)
        assert stretch == pytest.approx(2.0, rel=1e-12)  # sqrt of 1 + lambda
        for d in range(1, 6):  # so the isotropic separation is the torus distance, bitwise
            whiten, stretch = sampling.pair_metric(isotropic_scattering(d))
            assert np.array_equal(whiten, np.eye(d)) and stretch == 1.0
        with pytest.raises(ValueError, match="normalized"):
            sampling.pair_metric(ScatteringMatrix(np.eye(2)))

    def test_anisotropic_pairs_are_binned_by_their_separation(self):
        # 2 pi S = diag(4, 1/4), so rho(u) = sqrt(u1^2 / 4 + 4 u2^2): the
        # first pair is 0.5 apart, the second 0.75 across the x faces.
        w = BoxWindow(8.0, 2)
        pat = PointPattern([[0.0, 0.0], [1.0, 0.0], [3.0, 3.0], [-3.5, 3.0]], w)
        edges = np.array([0.0, 0.6, 0.9, 1.0])
        est = empirical_pair_correlation([pat], edges, spiked_scattering(3.0, [1.0, 0.0]))
        shell = 64.0 * math.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
        assert [v for _, v in est] == pytest.approx((2.0 * np.array([1, 1, 0]) / shell).tolist())

    def test_separation_keeps_the_sign_of_a_wrapped_difference(self):
        # Across the x faces the difference is (-0.2, 0.2): across the spike
        # (1, 1)/sqrt(2), so rho = 2 |u| = 0.57, not |u| / 2 = 0.14.
        w = BoxWindow(8.0, 2)
        pat = PointPattern([[3.9, 0.1], [-3.9, -0.1]], w)
        sigma = spiked_scattering(3.0, np.array([1.0, 1.0]) / math.sqrt(2.0))
        est = empirical_pair_correlation([pat], [0.0, 0.3, 0.7], sigma)
        assert [v > 0 for _, v in est] == [False, True]

    def test_input_validation(self, iso2):
        with pytest.raises(ValueError, match="at least one"):
            empirical_pair_correlation([], [0.0, 1.0], iso2)
        pat = sample_poisson(BoxWindow(6.0, 2), 0)
        with pytest.raises(ValueError, match="increasing"):
            empirical_pair_correlation([pat], [1.0, 0.5], iso2)
        with pytest.raises(ValueError, match="half the torus"):
            empirical_pair_correlation([pat], [0.0, 4.0], iso2)
        with pytest.raises(ValueError, match="half the torus"):  # reaches 2 * 1.6 along e1
            empirical_pair_correlation([pat], [0.0, 1.6], spiked_scattering(3.0, [1.0, 0.0]))


def test_dispersion_test_validation():
    with pytest.raises(ValueError):
        count_dispersion_test([5])


def test_dispersion_test_refuses_all_zero_counts():
    with pytest.raises(ValueError, match="counts are identically zero"):
        count_dispersion_test([0, 0, 0])


@pytest.mark.parametrize("windows, message", [
    ([BallWindow(3.0, 2)], "pair-correlation estimate expects box (torus) windows"),
    ([BoxWindow(6.0, 2), BoxWindow(7.0, 2)], "all patterns must share the same window"),
], ids=["ball", "two-boxes"])
def test_pair_correlation_refuses_a_ball_or_two_windows(windows, message):
    pats = [PointPattern([[0.5, 0.5], [1.0, 0.25]], w) for w in windows]
    with pytest.raises(ValueError) as exc:
        empirical_pair_correlation(pats, [0.0, 0.5, 1.0], isotropic_scattering(2))
    assert str(exc.value) == message


def _use_cpus(monkeypatch, n: int) -> None:
    """Make map_replicates see n usable CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestMapReplicates:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_results_come_back_in_item_order(self, cpus, monkeypatch):
        _use_cpus(monkeypatch, cpus)
        caller = os.getpid()
        out = sampling.map_replicates(lambda i: (i * i, os.getpid() == caller), range(7))
        assert [v for v, _ in out] == [i * i for i in range(7)]
        # Item i is computed by worker i mod w, the caller being worker 0.
        assert [mine for _, mine in out] == [i % cpus == 0 for i in range(7)]
        _no_child_left()

    def test_patterns_cross_unchanged_and_read_only(self, iso2, monkeypatch):
        _use_cpus(monkeypatch, 2)
        window = BoxWindow(6.0, 2)
        seeds = [(5, i) for i in range(3)]
        forked = sampling.map_replicates(lambda s: sample_gdp(iso2, window, s), seeds)
        for pat, seed in zip(forked, seeds):
            assert pat.window == window
            assert pat.points.tobytes() == sample_gdp(iso2, window, seed).points.tobytes()
            assert not pat.points.flags.writeable
        _no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_results_larger_than_a_pipe_come_back_whole(self, cpus, monkeypatch, tmp_path):
        # A pipe holds 64 KiB; each child here returns three results of 1 MiB.
        _use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        out = sampling.map_replicates(lambda i: bytes([i]) * (1 << 20), range(3 * cpus))
        assert out == [bytes([i]) * (1 << 20) for i in range(3 * cpus)]
        assert os.listdir(tmp_path) == []
        _no_child_left()

    def test_an_error_in_a_child_is_raised_with_its_type_and_message(self, monkeypatch):
        _use_cpus(monkeypatch, 2)

        def fn(i):
            if i == 3:
                raise ValueError(f"replicate {i} refused")
            return i
        with pytest.raises(ValueError, match="^replicate 3 refused$"):
            sampling.map_replicates(fn, range(6))
        _no_child_left()

    def test_a_result_that_cannot_be_pickled_raises_its_pickling_error(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        caller = os.getpid()
        with pytest.raises(Exception) as unpicklable:
            pickle.dumps(lambda: 0)

        def fn(i):
            return i if os.getpid() == caller else (lambda: i)
        with pytest.raises(unpicklable.type, match="^Can't pickle local object"):
            sampling.map_replicates(fn, range(4))
        _no_child_left()

    def test_a_child_killed_by_a_signal_names_its_replicate(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def fn(i):
            if i == 3 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return i
        # The child holds items 1, 3 and 5: item 1 came back, item 3 did not.
        with pytest.raises(RuntimeError, match="^replicate 3 ended without a result: its "
                                               f"process was killed by signal {int(signal.SIGKILL)}$"):
            sampling.map_replicates(fn, range(6))
        _no_child_left()

    def test_an_error_in_the_caller_kills_the_children(self, monkeypatch):
        _use_cpus(monkeypatch, 3)
        caller = os.getpid()

        def fn(i):
            if os.getpid() != caller:
                time.sleep(60)
            raise ValueError("the caller's replicate failed")
        start = time.monotonic()
        with pytest.raises(ValueError, match="caller's replicate"):
            sampling.map_replicates(fn, range(3))
        assert time.monotonic() - start < 30
        _no_child_left()

    def test_a_failed_fork_leaves_no_child_and_no_descriptor(self, monkeypatch, tmp_path):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to list the open descriptors")
        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        fork, forked = os.fork, []

        def fork_once():
            if forked:
                raise OSError(11, "Resource temporarily unavailable")
            forked.append(True)
            return fork()
        monkeypatch.setattr(os, "fork", fork_once)
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="Resource temporarily unavailable"):
            sampling.map_replicates(abs, range(3))
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        assert os.listdir(tmp_path) == []
        _no_child_left()

    def test_fork_beside_another_thread_warns_nothing(self, monkeypatch):
        # Python >= 3.12 warns when it forks a process with other threads.
        _use_cpus(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert sampling.map_replicates(abs, [-1, -2]) == [1, 2]
        finally:
            release.set()
            other.join()
        assert caught == []
        _no_child_left()

    def test_one_usable_cpu_never_forks(self, monkeypatch):
        _use_cpus(monkeypatch, 1)

        def fail():
            raise AssertionError("forked with one usable CPU")
        monkeypatch.setattr(os, "fork", fail)
        assert sampling.map_replicates(abs, [-1, -2, -3]) == [1, 2, 3]
