import math

import numpy as np
import pytest
from scipy.integrate import quad

from gaussdpp import (ScatteringMatrix, isotropic_scattering, normalize_scattering,
                      spectral_density, spiked_scattering)
from oracles import kernel_value, rho_k, truncated_pair_correlation

TWO_PI = 2.0 * math.pi


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class TestScatteringMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            ScatteringMatrix([[1.0, 0.5], [0.4, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive-definite"):
            ScatteringMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            ScatteringMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ScatteringMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_normalized_flag(self):
        assert isotropic_scattering(3).normalized
        assert not ScatteringMatrix(np.eye(3)).normalized

    def test_log_det_large_dimension(self):
        # det = (2 pi)^(-600) underflows doubles; the log stays finite.
        sigma = isotropic_scattering(600)
        assert sigma.normalized
        assert math.isfinite(sigma.log_det)

    def test_entries_read_only(self):
        sigma = isotropic_scattering(2)
        with pytest.raises(ValueError):
            sigma.entries[0, 0] = 1.0


class TestKernelValue:
    def test_unit_at_coincident_points_when_normalized(self):
        sigma = isotropic_scattering(3)
        x = np.array([0.3, -1.2, 2.0])
        assert kernel_value(sigma, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_d1_closed_form(self):
        # K(t) = exp(-pi t^2) for the normalized one-dimensional kernel.
        sigma = isotropic_scattering(1)
        assert kernel_value(sigma, [0.5], [0.0]) == pytest.approx(
            0.45593812776599624, rel=1e-12)
        # Independent check: that profile must integrate to the unit density.
        total, _ = quad(lambda t: kernel_value(sigma, [t], [0.0]), -8, 8)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_monotone_decay_along_ray(self):
        sigma = ScatteringMatrix([[0.7, 0.2], [0.2, 0.4]])
        direction = np.array([0.6, -0.8])
        values = [kernel_value(sigma, t * direction, [0.0, 0.0])
                  for t in np.linspace(0.0, 12.0, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_value(isotropic_scattering(2), [1.0], [0.0])

    def test_rotation_covariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            a = rng.standard_normal((d, d))
            sigma = ScatteringMatrix(a @ a.T + d * np.eye(d))
            q = random_orthogonal(rng, d)
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            rotated = ScatteringMatrix(q @ sigma.entries @ q.T)
            assert kernel_value(rotated, q @ x, q @ y) == pytest.approx(
                kernel_value(sigma, x, y), abs=1e-10)


class TestSpectralDensity:
    def test_unit_at_zero(self):
        assert spectral_density(isotropic_scattering(4), np.zeros(4)) == 1.0

    def test_d1_value_and_fourier_oracle(self):
        sigma = isotropic_scattering(1)
        got = spectral_density(sigma, [1.0])
        assert got == pytest.approx(0.04321391826377225, rel=1e-12)
        # Numerically Fourier-transform the kernel profile at frequency 1.
        ft, _ = quad(lambda t: kernel_value(sigma, [t], [0.0])
                     * math.cos(2 * math.pi * t), -8, 8)
        assert got == pytest.approx(ft, rel=1e-8)

    def test_log_quadratic_in_frequency(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        sigma = normalize_scattering(ScatteringMatrix(a @ a.T + 3 * np.eye(3)))
        for _ in range(25):
            w = rng.standard_normal(3)
            expected = 2.0 * math.pi ** 2 * float(w @ sigma.entries @ w)
            assert -math.log(spectral_density(sigma, w)) == pytest.approx(
                expected, rel=1e-10)
            assert -math.log(spectral_density(sigma, 2 * w)) == pytest.approx(
                4 * expected, rel=1e-10)

    def test_range(self):
        rng = np.random.default_rng(4)
        sigma = isotropic_scattering(2)
        for _ in range(50):
            v = spectral_density(sigma, rng.standard_normal(2) * 3)
            assert 0.0 < v <= 1.0

    def test_array_of_frequencies(self):
        rng = np.random.default_rng(5)
        sigma = spiked_scattering(2.0, [0.0, 0.6, 0.8])
        w = rng.standard_normal((4, 5, 3))
        got = spectral_density(sigma, w)
        assert got.shape == (4, 5)
        assert np.all((0.0 < got) & (got <= 1.0))
        for idx in np.ndindex(4, 5):
            expected = math.exp(-2.0 * math.pi ** 2 * float(w[idx] @ sigma.entries @ w[idx]))
            assert got[idx] == pytest.approx(expected, rel=1e-12)

    def test_rejects_wrong_dimension_and_non_finite(self):
        sigma = isotropic_scattering(2)
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 2\)"):
            spectral_density(sigma, np.zeros((5, 3)))
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 2\)"):
            spectral_density(sigma, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            spectral_density(sigma, [[0.0, 1.0], [np.nan, 0.0]])


class TestNormalize:
    def test_d2_identity(self):
        out = normalize_scattering(ScatteringMatrix(np.eye(2)))
        assert np.allclose(out.entries, np.eye(2) / TWO_PI, rtol=1e-12)
        assert out.normalized

    def test_idempotent(self):
        sigma = isotropic_scattering(3)
        assert normalize_scattering(sigma) is sigma

    def test_d3_diagonal(self):
        out = normalize_scattering(ScatteringMatrix(np.diag([1.0, 2.0, 4.0])))
        scale = 0.07957747154594767  # ((2 pi)^-3 / 8)^(1/3) = 1/(4 pi)
        assert np.allclose(out.entries, scale * np.diag([1.0, 2.0, 4.0]),
                           rtol=1e-12)
        assert out.log_det == pytest.approx(-3 * math.log(TWO_PI), abs=1e-9)

    def test_eigenvectors_preserved(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        sigma = ScatteringMatrix(a @ a.T + 4 * np.eye(4))
        out = normalize_scattering(sigma)
        assert np.allclose(np.abs(np.sum(out.eigenvectors * sigma.eigenvectors,
                                         axis=0)), 1.0, atol=1e-9)


class TestRhoK:
    def test_single_point(self):
        sigma = isotropic_scattering(2)
        assert rho_k(sigma, [[3.0, -1.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_pair_closed_form(self):
        # rho_2 = 1 - exp(-(x-y)' S^{-1} (x-y)) under the normalization.
        sigma = isotropic_scattering(2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = rng.standard_normal((2, 2))
            u = x - y
            expected = 1.0 - math.exp(-float(u @ np.linalg.inv(sigma.entries) @ u))
            assert rho_k(sigma, [x, y]) == pytest.approx(expected, rel=1e-10)

    def test_coincident_pair_vanishes(self):
        sigma = isotropic_scattering(3)
        x = [0.1, 0.2, 0.3]
        assert rho_k(sigma, [x, x]) == pytest.approx(0.0, abs=1e-12)

    def test_bounds_random_tuples(self):
        rng = np.random.default_rng(6)
        sigma = isotropic_scattering(2)
        for _ in range(400):
            k = int(rng.integers(1, 7))
            pts = rng.uniform(-2, 2, size=(k, 2))
            val = rho_k(sigma, pts)
            assert -1e-10 <= val <= 1.0 + 1e-10

    def test_fischer_inequality(self):
        rng = np.random.default_rng(8)
        sigma = isotropic_scattering(3)
        for _ in range(300):
            pts = rng.uniform(-1.5, 1.5, size=(4, 3))
            rho4 = rho_k(sigma, pts)
            bound = rho_k(sigma, pts[:2]) * rho_k(sigma, pts[2:])
            assert rho4 <= bound + 1e-10


class TestTruncatedPairCorrelation:
    def test_full_repulsion_at_zero(self):
        sigma = isotropic_scattering(2)
        x = [0.4, 0.5]
        assert truncated_pair_correlation(sigma, x, x) == pytest.approx(-1.0)

    def test_decorrelation_at_distance(self):
        sigma = isotropic_scattering(2)
        val = truncated_pair_correlation(sigma, [10.0, 0.0], [0.0, 0.0])
        assert -1e-12 < val < 0.0

    def test_matches_rho2_minus_one(self):
        sigma = isotropic_scattering(3)
        rng = np.random.default_rng(9)
        for _ in range(30):
            x, y = rng.standard_normal((2, 3))
            assert truncated_pair_correlation(sigma, x, y) == pytest.approx(
                rho_k(sigma, [x, y]) - 1.0, abs=1e-12)

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            truncated_pair_correlation(ScatteringMatrix(np.eye(2)),
                                       [0.0, 0.0], [1.0, 0.0])


class TestSpikedScattering:
    def test_zero_strength_recovers_isotropic(self):
        out = spiked_scattering(0.0, [0.0, 1.0, 0.0])
        assert np.allclose(out.entries, np.eye(3) / TWO_PI, atol=1e-14)

    def test_d2_axis_spike(self):
        out = spiked_scattering(1.0, [1.0, 0.0])
        assert np.allclose(TWO_PI * out.entries, np.diag([2.0, 0.5]), rtol=1e-12)
        assert out.normalized

    def test_always_normalized(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            lam = float(rng.uniform(0, 5))
            assert spiked_scattering(lam, u).normalized

    def test_spike_recovery_from_top_eigenvalue(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            lam = float(rng.uniform(0.1, 4))
            sigma = spiked_scattering(lam, u)
            assert TWO_PI * sigma.eigenvalues[-1] - 1.0 == pytest.approx(
                lam, abs=1e-9)
            top = sigma.eigenvectors[:, -1]
            assert abs(float(top @ u)) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_d1_and_bad_direction(self):
        with pytest.raises(ValueError, match="d >= 2"):
            spiked_scattering(1.0, [1.0])
        with pytest.raises(ValueError, match="unit norm"):
            spiked_scattering(1.0, [1.0, 1.0])
        with pytest.raises(ValueError, match=">= 0"):
            spiked_scattering(-0.5, [1.0, 0.0])
