import math

import numpy as np
import pytest

from gaussdpp import (BoxWindow, NullCalibration, calibrate_null_threshold,
                      detection_statistic, estimate_scattering, estimate_spike,
                      isotropic_scattering, sample_gdp, spiked_scattering)
from oracles import sin_angle

TWO_PI = 2.0 * math.pi


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class TestDetectionTest:
    """The test's one statistic; its thresholds are tested through the CLI."""

    def test_isotropic_statistic_is_one(self):
        assert detection_statistic(np.eye(2) / TWO_PI) == pytest.approx(1.0, abs=1e-12)

    def test_exact_spike_statistic_is_one_plus_lambda(self):
        lam = 7.5
        sigma = spiked_scattering(lam, [1.0, 0.0])
        assert detection_statistic(sigma.entries) == pytest.approx(1.0 + lam, rel=1e-10)

    def test_statistic_rotation_invariant(self):
        rng = np.random.default_rng(0)
        sigma = spiked_scattering(1.3, [0.6, 0.8])
        q = random_orthogonal(rng, 2)
        assert detection_statistic(q @ sigma.entries @ q.T) == pytest.approx(
            detection_statistic(sigma.entries), rel=1e-12)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="asymmetric"):
            detection_statistic(np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_operator_norm_uses_magnitude(self):
        assert detection_statistic(np.diag([0.5, -2.0])) == TWO_PI * 2.0

    @pytest.mark.parametrize("matrix, message", [
        (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
        (np.ones(4), "expected a square matrix, got shape (4,)"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite entries"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite entries"),
    ], ids=["2x3", "vector", "nan", "inf"])
    def test_rejects_a_non_square_or_non_finite_input(self, matrix, message):
        for check in (detection_statistic, estimate_spike):
            with pytest.raises(ValueError) as exc:
                check(matrix)
            assert message in str(exc.value)


class TestEstimateSpike:
    def test_exact_spiked_input(self):
        sigma = spiked_scattering(1.0, [1.0, 0.0])
        est = estimate_spike(sigma.entries)
        assert np.allclose(est.u_hat, [1.0, 0.0], atol=1e-12)
        assert est.lambda_hat == pytest.approx(1.0, abs=1e-12)
        assert est.gap == pytest.approx(1.5 / TWO_PI, rel=1e-12)

    def test_degenerate_isotropic_convention(self):
        est = estimate_spike(np.eye(2) / TWO_PI)
        assert est.gap == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(np.abs(est.u_hat), [1.0, 0.0]) or np.allclose(
            np.abs(est.u_hat), [0.0, 1.0])
        # first nonzero coordinate positive
        nz = np.nonzero(np.abs(est.u_hat) > 1e-12)[0][0]
        assert est.u_hat[nz] > 0

    def test_sign_deterministic_under_negated_eigvec(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        m = a + a.T
        e1 = estimate_spike(m)
        e2 = estimate_spike(m.copy())
        assert np.array_equal(e1.u_hat, e2.u_hat)

    def test_lambda_hat_can_be_negative(self):
        est = estimate_spike(np.eye(2) * 0.01)
        assert est.lambda_hat < 0

    def test_davis_kahan_numeric(self):
        # perturbation below half the gap keeps the top eigenvector within
        # the classical sin-angle bound
        rng = np.random.default_rng(2)
        sigma = spiked_scattering(2.0, [0.0, 1.0, 0.0])
        gap = sigma.eigenvalues[-1] - sigma.eigenvalues[-2]
        for _ in range(25):
            e = rng.standard_normal((3, 3))
            e = e + e.T
            e *= (0.4 * gap) / np.linalg.norm(e, 2)
            est = estimate_spike(sigma.entries + e)
            bound = 2.0 * np.linalg.norm(e, 2) / gap
            assert sin_angle(est.u_hat, [0.0, 1.0, 0.0]) <= bound + 1e-12


class TestSinAngle:
    def test_trivial_values(self):
        assert sin_angle([1.0, 0.0], [1.0, 0.0]) == 0.0
        assert sin_angle([1.0, 0.0], [0.0, 1.0]) == 1.0
        c = math.sqrt(0.5)
        assert sin_angle([1.0, 0.0], [c, c]) == pytest.approx(c, rel=1e-12)

    def test_sign_and_argument_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            # normalize-by-division leaves ||u|| off by ~1e-16, so the
            # anti-parallel angle resolves to ~1e-8 rather than exactly 0
            assert sin_angle(u, -u) == pytest.approx(0.0, abs=1e-7)
            assert sin_angle(u, v) == pytest.approx(sin_angle(v, u), abs=1e-15)
            assert sin_angle(-u, v) == pytest.approx(sin_angle(u, v), abs=1e-15)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            sin_angle([2.0, 0.0], [1.0, 0.0])


class TestCalibration:
    def test_threshold_is_high_order_statistic(self):
        cal = calibrate_null_threshold(
            d=2, R=5.0, r=0.8, delta=0.1, n_replicates=30, seed=4)
        stats = np.sort(cal.statistics)
        # ceil(31 * 0.9) = 28th order statistic
        assert cal.threshold == stats[27]

    def test_each_replicate_takes_the_detection_statistic(self):
        # Replicate i is drawn from the stream (seed, i, 0, 1) on the box of
        # side 2R, estimated on its inscribed ball B(R) at the given r, and
        # scored like the data.
        R, seed, r = 4.0, 5, 0.8
        cal = calibrate_null_threshold(d=2, R=R, r=r, delta=0.5, n_replicates=3, seed=seed)
        for i, stat in enumerate(cal.statistics):
            pattern = sample_gdp(isotropic_scattering(2), BoxWindow(2 * R, 2), (seed, i, 0, 1))
            assert stat == detection_statistic(estimate_scattering(pattern, r).sigma_hat)

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_null_threshold(2, 5.0, 0.8, 1.5, 10, 0)
        with pytest.raises(ValueError):
            calibrate_null_threshold(2, 5.0, 0.8, 0.1, 1, 0)

    def test_threshold_from_given_statistics(self):
        stats = [5.0, 1.0, 4.0, 2.0, 3.0]
        # ceil(6 * 0.5) = 3rd smallest; ceil(6 * 0.95) = 6 is capped at K = 5
        assert NullCalibration.from_statistics(stats, 0.5).threshold == 3.0
        cal = NullCalibration.from_statistics(stats, 0.05)
        assert cal.threshold == 5.0
        assert cal.statistics.tolist() == stats
        assert not cal.statistics.flags.writeable
        with pytest.raises(ValueError):
            NullCalibration.from_statistics(stats, 1.0)
        with pytest.raises(ValueError):
            NullCalibration.from_statistics([1.0], 0.5)
