"""Posterior state: factorization, sequential updates, and diagnostics."""

import math

import numpy as np
import pytest

from gpucb import (
    KernelFamily,
    KernelSpec,
    NumericError,
    fit,
    logdet_information,
    make_rkhs_function,
    norm_chain_check,
    posterior_mean_at,
    posterior_var_at,
    sample_random_rkhs,
    update,
)
from gpucb.rkhs import Box

SE = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=1.0)
MATERN_32 = KernelSpec(KernelFamily.MATERN, nu=1.5, lengthscale=1.0)


def random_state(spec, rho, t, d, seed, y_scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(t, d))
    y = y_scale * rng.standard_normal(t)
    return fit(spec, rho, X, y), X, y


class TestFit:
    def test_empty_state_prior(self):
        state = fit(SE, 1.0, np.empty((0, 2)), [])
        assert state.t == 0
        assert posterior_mean_at(state, [0.3, 0.4])[0] == 0.0
        assert posterior_var_at(state, [0.3, 0.4])[0] == 1.0
        assert logdet_information(state) == 0.0

    def test_single_point_scalar_algebra(self):
        state = fit(SE, 1.0, [[0.5]], [2.0])
        assert state.chol[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert state.alpha[0] == pytest.approx(1.0, rel=1e-15)
        assert posterior_mean_at(state, [0.5])[0] == pytest.approx(1.0, rel=1e-14)
        assert posterior_var_at(state, [0.5])[0] == pytest.approx(0.5, rel=1e-14)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            fit(SE, 0.0, [[0.0]], [1.0])
        with pytest.raises(ValueError):
            fit(SE, -1.0, [[0.0]], [1.0])

    def test_duplicated_points_stay_spd(self):
        X = np.array([[0.2], [0.2], [0.2]])
        state = fit(SE, 0.5, X, [1.0, 1.1, 0.9])
        assert np.all(np.diag(state.chol) > 0)

    def test_residual_invariant(self):
        state, X, y = random_state(MATERN_32, 0.3, 40, 2, seed=1)
        from gpucb import kernel_matrix

        A = kernel_matrix(MATERN_32, X) + 0.3 * np.eye(40)
        resid = np.max(np.abs(A @ state.alpha - y))
        assert resid <= 1e-8 * (1.0 + np.max(np.abs(y)))


class TestUpdate:
    def test_update_empty_equals_single_fit(self):
        empty = fit(SE, 1.0, np.empty((0, 1)), [])
        one = update(empty, [0.5], 2.0)
        ref = fit(SE, 1.0, [[0.5]], [2.0])
        assert np.allclose(one.chol, ref.chol)
        assert np.allclose(one.alpha, ref.alpha)

    def test_commutes_with_fit(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(20, 2))
        y = rng.standard_normal(20)
        state = fit(MATERN_32, 0.5, X[:-1], y[:-1])
        stepped = update(state, X[-1], y[-1])
        direct = fit(MATERN_32, 0.5, X, y)
        grid = rng.uniform(0, 1, size=(30, 2))
        assert np.max(np.abs(posterior_mean_at(stepped, grid) - posterior_mean_at(direct, grid))) < 1e-9
        assert np.max(np.abs(posterior_var_at(stepped, grid) - posterior_var_at(direct, grid))) < 1e-9

    def test_fifty_sequential_updates_match_refit(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(50, 1))
        y = rng.standard_normal(50)
        state = fit(SE, 1.0, np.empty((0, 1)), [])
        for x, yi in zip(X, y):
            state = update(state, x, yi)
        direct = fit(SE, 1.0, X, y)
        assert np.max(np.abs(state.alpha - direct.alpha)) < 1e-9
        assert np.max(np.abs(state.chol - direct.chol)) < 1e-9

    def test_variance_strictly_decreases_at_new_point(self):
        state, X, y = random_state(SE, 1.0, 5, 1, seed=5)
        x_new = np.array([0.77])
        before = posterior_var_at(state, x_new)[0]
        after = posterior_var_at(update(state, x_new, 0.3), x_new)[0]
        assert before > 0
        assert after < before

    def test_old_state_unchanged_by_update(self):
        state, X, y = random_state(SE, 1.0, 5, 1, seed=6)
        alpha_before = state.alpha.copy()
        update(state, [0.1], 1.0)
        assert np.array_equal(state.alpha, alpha_before)
        with pytest.raises(ValueError):
            state.alpha[0] = 99.0  # read-only


class TestPredictions:
    def test_mean_shrinkage_bound(self):
        # |mean(x)| <= ||y|| * ||k_t(x)|| / rho from the ridge form
        for seed in range(5):
            state, X, y = random_state(MATERN_32, 0.7, 15, 2, seed=seed)
            from gpucb import kernel_cross

            rng = np.random.default_rng(100 + seed)
            for x in rng.uniform(0, 1, size=(10, 2)):
                k_vec = kernel_cross(MATERN_32, X, x[None, :])[:, 0]
                bound = np.linalg.norm(y) * np.linalg.norm(k_vec) / 0.7
                assert abs(posterior_mean_at(state, x)[0]) <= bound + 1e-12

    def test_variance_range(self):
        state, _, _ = random_state(SE, 0.2, 30, 1, seed=7)
        grid = np.linspace(0, 1, 101)[:, None]
        var = posterior_var_at(state, grid)
        assert np.all(var >= 0.0)
        assert np.all(var <= 1.0)

    def test_variance_monotone_under_updates(self):
        state, _, _ = random_state(SE, 1.0, 10, 1, seed=8)
        grid = np.linspace(0, 1, 50)[:, None]
        rng = np.random.default_rng(9)
        for _ in range(5):
            before = posterior_var_at(state, grid)
            state = update(state, rng.uniform(0, 1, size=1), rng.standard_normal())
            after = posterior_var_at(state, grid)
            assert np.all(after <= before + 1e-10)

    def test_variance_at_design_points_never_regrows(self):
        # sigma_t(x_j) <= sigma_j(x_j) for every j <= t, including repeats
        rng = np.random.default_rng(20)
        X = rng.uniform(0, 1, size=(30, 1))
        X[10] = X[3]  # repeated design point
        y = rng.standard_normal(30)
        at_insertion = {}
        state = fit(SE, 0.5, np.empty((0, 1)), [])
        for j, (x, yi) in enumerate(zip(X, y)):
            state = update(state, x, yi)
            at_insertion[j] = posterior_var_at(state, x)[0]
        for j in range(30):
            assert posterior_var_at(state, X[j])[0] <= at_insertion[j] + 1e-10

    def test_variance_lower_bound(self):
        # var(x) >= rho * A2 / (A1^2 t) with A1 = 1 + rho and A2 the smallest
        # squared correlation among the (design, probe) pairs in play
        from gpucb import kernel_cross

        for rho in (0.1, 1.0):
            state, X, _ = random_state(MATERN_32, rho, 25, 1, seed=10)
            probes = np.linspace(0, 1, 40)[:, None]
            cross = kernel_cross(MATERN_32, X, probes)
            a1 = 1.0 + rho
            a2 = float(np.min(cross**2))
            floor = rho * a2 / (a1**2 * 25)
            var = posterior_var_at(state, probes)
            assert np.all(var >= floor - 1e-15)

    def test_incremental_vs_scratch_after_200_updates(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(200, 2))
        y = rng.standard_normal(200)
        state = fit(MATERN_32, 0.5, np.empty((0, 2)), [])
        for x, yi in zip(X, y):
            state = update(state, x, yi)
        direct = fit(MATERN_32, 0.5, X, y)
        grid = rng.uniform(0, 1, size=(100, 2))
        assert np.max(np.abs(posterior_mean_at(state, grid) - posterior_mean_at(direct, grid))) < 1e-9
        assert np.max(np.abs(posterior_var_at(state, grid) - posterior_var_at(direct, grid))) < 1e-9


class TestLogdetInformation:
    def test_single_point(self):
        for rho in (0.25, 1.0, 4.0):
            state = fit(SE, rho, [[0.0]], [1.0])
            assert logdet_information(state) == pytest.approx(0.5 * math.log1p(1.0 / rho), rel=1e-12)

    def test_two_identical_points_unit_rho(self):
        # K is the all-ones 2x2 matrix, det(I + K) = 3
        state = fit(SE, 1.0, [[0.4], [0.4]], [1.0, -1.0])
        assert logdet_information(state) == pytest.approx(0.5 * math.log(3.0), rel=1e-12)

    def test_chain_identity(self):
        # log det(I + K/rho) accumulated from sequential variances must match
        # the dense determinant
        rho = 0.5
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(60, 1))
        y = rng.standard_normal(60)
        state = fit(SE, rho, np.empty((0, 1)), [])
        acc = 0.0
        for x, yi in zip(X, y):
            acc += math.log1p(posterior_var_at(state, x)[0] / rho)
            state = update(state, x, yi)
        dense = 2.0 * logdet_information(fit(SE, rho, X, y))
        assert acc == pytest.approx(dense, rel=1e-8)


class TestBiasBound:
    @pytest.mark.parametrize("spec", [SE, MATERN_32])
    @pytest.mark.parametrize("rho", [0.1, 1.0])
    def test_noiseless_error_within_norm_times_sd(self, spec, rho):
        # exact-observation replay: |f - mean| <= norm(f) * sd everywhere,
        # for arbitrary designs including clustered ones
        box = Box((0.0, 0.0), (1.0, 1.0))
        f = sample_random_rkhs(spec, m=15, B=2.0, domain=box, seed=13)
        rng = np.random.default_rng(14)
        designs = {
            "uniform": rng.uniform(0, 1, size=(40, 2)),
            "clustered": np.clip(
                np.repeat(rng.uniform(0.2, 0.8, size=(8, 2)), 5, axis=0)
                + 0.01 * rng.standard_normal((40, 2)),
                0, 1,
            ),
        }
        grid = rng.uniform(0, 1, size=(400, 2))
        f_grid = f.on_points(grid)
        for X in designs.values():
            state = fit(spec, rho, X, f.on_points(X))
            ratio = np.abs(f_grid - posterior_mean_at(state, grid)) / (
                f.norm * np.sqrt(posterior_var_at(state, grid))
            )
            assert np.max(ratio) <= 1.0 + 1e-6


class TestNormChain:
    def test_identical_points_vanish(self):
        state, _, _ = random_state(SE, 1.0, 10, 2, seed=15)
        report = norm_chain_check(state, [0.3, 0.3], [0.3, 0.3])
        assert report.h_norm_sq == 0.0
        assert report.h2_norm_sq == pytest.approx(0.0, abs=1e-20)
        assert report.h1_norm_sq == pytest.approx(0.0, abs=1e-20)
        assert report.holds

    def test_random_instances_hold(self):
        rng = np.random.default_rng(16)
        for seed in range(20):
            state, _, _ = random_state(MATERN_32, 1.0, 10, 2, seed=30 + seed)
            x, x2 = rng.uniform(0, 1, size=(2, 2))
            report = norm_chain_check(state, x, x2)
            assert report.holds

    def test_large_rho_shrinks_h2_not_h1(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 1, size=(10, 1))
        y = rng.standard_normal(10)
        x, x2 = [0.25], [0.75]
        small = norm_chain_check(fit(SE, 0.1, X, y), x, x2)
        big = norm_chain_check(fit(SE, 1e6, X, y), x, x2)
        assert big.h2_norm_sq < 1e-10
        assert big.h1_norm_sq == pytest.approx(small.h1_norm_sq, rel=1e-9)

    def test_singular_design_skips_h1(self):
        X = np.array([[0.2], [0.2], [0.7]])  # duplicate rows make K singular
        state = fit(SE, 1.0, X, [1.0, 1.0, 0.0])
        report = norm_chain_check(state, [0.1], [0.9])
        assert report.h1_norm_sq is None
        assert report.holds

    def test_requires_design_points(self):
        empty = fit(SE, 1.0, np.empty((0, 1)), [])
        with pytest.raises(ValueError):
            norm_chain_check(empty, [0.1], [0.9])


class TestNumericErrors:
    def test_negative_variance_guard_is_error_not_clamp(self):
        state, _, _ = random_state(SE, 1.0, 5, 1, seed=18)
        broken = state.chol.copy()
        broken.setflags(write=True)
        broken[0, 0] *= 0.5  # corrupt the factor
        from dataclasses import replace

        bad = replace(state, chol=broken)
        with pytest.raises(NumericError):
            posterior_var_at(bad, state.X[0])

    def test_failed_factorization_reports_pivot(self, monkeypatch):
        # leading minors of orders 1 and 2 are positive, the order-3 one is not
        indefinite = np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.9], [0.9, 0.9, 1.0]])
        monkeypatch.setattr("gpucb.posterior.kernel_matrix", lambda spec, X: indefinite.copy())
        with pytest.raises(NumericError) as excinfo:
            fit(SE, 0.01, np.zeros((3, 1)), np.zeros(3))
        assert excinfo.value.index == 2
