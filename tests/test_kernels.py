"""Kernel evaluation, matrix construction, and Holder-continuity checks."""

import math

import numpy as np
import pytest

from gpucb import (
    KernelFamily,
    KernelSpec,
    holder_validate,
    kernel_cross,
    kernel_eval,
    kernel_matrix,
)
from gpucb import kernels

SE = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=1.0)
MATERN_HALF = KernelSpec(KernelFamily.MATERN, nu=0.5, lengthscale=1.0)
MATERN_32 = KernelSpec(KernelFamily.MATERN, nu=1.5, lengthscale=1.0)


class TestKernelSpec:
    def test_rejects_bad_lengthscale(self):
        with pytest.raises(ValueError):
            KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=0.0)
        with pytest.raises(ValueError):
            KernelSpec(KernelFamily.MATERN, nu=1.5, lengthscale=-1.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            KernelSpec(KernelFamily.MATERN, nu=0.0)
        with pytest.raises(ValueError):
            KernelSpec(KernelFamily.MATERN, nu=None)

    def test_se_ignores_nu(self):
        spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL)
        assert spec.nu is None


class TestKernelEval:
    def test_zero_distance_is_one(self):
        for spec in (SE, MATERN_HALF, MATERN_32):
            assert kernel_eval(spec, [0.3, 0.4], [0.3, 0.4]) == 1.0

    def test_se_half_value(self):
        # exp(-r^2/2) = 1/2 at r = sqrt(2 ln 2)
        r = math.sqrt(2.0 * math.log(2.0))
        assert kernel_eval(SE, [0.0], [r]) == pytest.approx(0.5, rel=1e-14)

    def test_matern_half_closed_form(self):
        # K_{1/2} closed form collapses the profile to exp(-z), z = sqrt(2) r
        assert kernel_eval(MATERN_HALF, [0.0], [1.0]) == pytest.approx(
            math.exp(-math.sqrt(2.0)), rel=1e-12
        )

    def test_matern_32_closed_form(self):
        # (1 + z) exp(-z) with z = 2 sqrt(1.5) * 0.5
        z = math.sqrt(6.0) * 0.5
        assert kernel_eval(MATERN_32, [0.0], [0.5]) == pytest.approx(
            (1.0 + z) * math.exp(-z), rel=1e-12
        )

    def test_general_order_matches_oracle(self):
        # frozen arbitrary-precision value for a non-half-integer order
        spec = KernelSpec(KernelFamily.MATERN, nu=0.3, lengthscale=1.0)
        # psi(r) = z^nu K_nu(z) / (gamma(nu) 2^{nu-1}), z = 2 sqrt(0.3) r;
        # at r = 0.7 / (2 sqrt(0.3)): z = 0.7, K_0.3(0.7) = 0.68956248975697498
        r = 0.7 / (2.0 * math.sqrt(0.3))
        expected = 0.7**0.3 * 0.68956248975697498 / (math.gamma(0.3) * 2 ** (0.3 - 1))
        assert kernel_eval(spec, [0.0], [r]) == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            kernel_eval(SE, [float("nan")], [0.0])
        with pytest.raises(ValueError):
            kernel_eval(SE, [0.0], [float("inf")])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(SE, [0.0, 1.0], [0.0])

    @pytest.mark.parametrize("spec", [SE, MATERN_HALF, MATERN_32])
    def test_symmetry_bit_exact(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=3)
            y = rng.uniform(-2, 2, size=3)
            assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)

    @pytest.mark.parametrize(
        "spec",
        [SE, MATERN_HALF, MATERN_32, KernelSpec(KernelFamily.MATERN, nu=0.8, lengthscale=0.5)],
    )
    def test_range_and_monotone_decay(self, spec):
        radii = np.linspace(0.0, 4.0, 200)
        vals = np.array([kernel_eval(spec, [0.0], [r]) for r in radii])
        assert vals[0] == 1.0
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_matern_limits_to_se(self):
        # as nu grows the profile approaches the squared exponential with
        # lengthscale l / sqrt(2); the gap must shrink with nu
        matched = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=1.0 / math.sqrt(2.0))
        radii = np.linspace(0.05, 2.0, 40)
        sup_gap = {}
        for nu in (50.0, 100.0):
            spec = KernelSpec(KernelFamily.MATERN, nu=nu, lengthscale=1.0)
            sup_gap[nu] = max(
                abs(kernel_eval(spec, [0.0], [r]) - kernel_eval(matched, [0.0], [r]))
                for r in radii
            )
        assert sup_gap[100.0] < sup_gap[50.0]


class TestKernelMatrix:
    def test_single_point(self):
        assert np.array_equal(kernel_matrix(SE, [[0.5]]), np.array([[1.0]]))

    def test_two_point_half_correlation(self):
        r = math.sqrt(2.0 * math.log(2.0))
        K = kernel_matrix(SE, [[0.0], [r]])
        assert K[0, 0] == 1.0 and K[1, 1] == 1.0
        assert K[0, 1] == pytest.approx(0.5, rel=1e-14)
        assert K[0, 1] == K[1, 0]

    @pytest.mark.parametrize("spec", [SE, MATERN_32])
    def test_symmetric_and_psd(self, spec):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(25, 3))
        K = kernel_matrix(spec, X)
        assert np.array_equal(K, K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-12

    def test_general_order_makes_one_bessel_call(self, monkeypatch):
        # the whole set of distinct distances goes through one K_nu call
        calls = []
        original = kernels.bessel_k

        def counted(nu, z):
            calls.append(np.size(z))
            return original(nu, z)

        monkeypatch.setattr(kernels, "bessel_k", counted)
        spec = KernelSpec(KernelFamily.MATERN, nu=1.2, lengthscale=0.5)
        X = np.random.default_rng(0).uniform(size=(40, 2))
        kernel_matrix(spec, X)
        assert calls == [40 * 39 // 2]  # one call on every distinct pair distance
        kernel_cross(spec, X[:7], X)
        assert len(calls) == 2

    def test_duplicates_allowed(self):
        K = kernel_matrix(SE, [[0.2], [0.2]])
        assert np.array_equal(K, np.ones((2, 2)))

    @pytest.mark.parametrize("X, Y", [([[0.0]], [[0.0, 5.0]]), ([[0.0, 5.0]], [[0.0]])])
    def test_cross_rejects_dim_mismatch(self, X, Y):
        # neither coordinate set may be read as a prefix of the other
        with pytest.raises(ValueError, match=rf"{len(X[0])}-d points against {len(Y[0])}-d"):
            kernel_cross(SE, X, Y)


class TestHolderValidate:
    def test_se_ratio_bounded_by_half_radius(self):
        # (1 - exp(-r^2/2))/r <= r/2, so the fitted constant stays below
        # max_radius/2 plus slack
        report = holder_validate(SE, n_samples=5000, max_radius=2.0, seed=3)
        assert report.theta == 1.0
        assert report.fitted_A0 <= 1.0 + 1e-9

    def test_matern_theta_caps_at_one(self):
        spec = KernelSpec(KernelFamily.MATERN, nu=2.0, lengthscale=1.0)
        report = holder_validate(spec, n_samples=500, max_radius=1.0, seed=0)
        assert report.theta == 1.0

    def test_matern_rough_theta_and_bounded_ratio(self):
        report = holder_validate(MATERN_HALF, n_samples=5000, max_radius=2.0, seed=5)
        assert report.theta == 0.5
        assert math.isfinite(report.max_ratio)
        assert report.max_ratio == report.fitted_A0

    def test_gap_bounded_by_fitted_constant(self):
        # the defining inequality holds at every sampled radius by
        # construction; confirm on a fresh deterministic scan
        for spec in (SE, MATERN_HALF, MATERN_32):
            report = holder_validate(spec, n_samples=2000, max_radius=2.0, seed=9)
            radii = np.logspace(-6, math.log10(2.0), 200)
            gaps = np.array([1.0 - kernel_eval(spec, [0.0], [r]) for r in radii])
            assert np.all(gaps <= report.fitted_A0 * radii**report.theta * (1 + 1e-6) + 1e-12)

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            holder_validate(SE, n_samples=10, max_radius=1.0, seed=0)
