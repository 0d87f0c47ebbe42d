"""Finite kernel expansions: exact norms, scaling, sampling."""

import math

import numpy as np
import pytest

from gpucb.config import Box, KernelFamily, KernelSpec
from gpucb.kernels import kernel_cross, kernel_matrix
from gpucb.rkhs import grid_maximum, make_rkhs_function, sample_random_rkhs, scale_to_norm

SE = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=1.0)
MATERN_32 = KernelSpec(KernelFamily.MATERN, nu=1.5, lengthscale=0.5)
UNIT_BOX_1D = Box((0.0,), (1.0,))
UNIT_BOX_2D = Box((0.0, 0.0), (1.0, 1.0))


class TestBox:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0,))

    def test_contains(self):
        assert UNIT_BOX_2D.contains([[0.5, 0.5], [0.0, 1.0]])
        assert not UNIT_BOX_2D.contains([[0.5, 1.5]])
        with pytest.raises(ValueError):
            UNIT_BOX_2D.contains([[0.5]])


class TestNorm:
    def test_single_center_unit_norm(self):
        f = make_rkhs_function(SE, [[0.5]], [1.0])
        assert f.norm == 1.0

    def test_two_center_closed_form(self):
        # c = (1, -1) at distance r: norm^2 = 2 (1 - psi(r))
        r = 0.8
        f = make_rkhs_function(SE, [[0.0], [r]], [1.0, -1.0])
        expected = math.sqrt(2.0 * (1.0 - kernel_cross(SE, [0.0], [r])[0, 0]))
        assert f.norm == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("spec", [SE, MATERN_32])
    def test_norm_matches_quadratic_form(self, spec):
        rng = np.random.default_rng(1)
        centers = rng.uniform(0, 1, size=(20, 2))
        coeffs = rng.standard_normal(20)
        f = make_rkhs_function(spec, centers, coeffs)
        dense = coeffs @ kernel_matrix(spec, centers) @ coeffs
        assert f.norm**2 == pytest.approx(dense, rel=1e-10)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_rkhs_function(SE, [[0.0], [1.0]], [1.0])


class TestEvaluation:
    def test_value_at_center(self):
        f = make_rkhs_function(SE, [[0.3, 0.7]], [1.0])
        assert f.on_points([0.3, 0.7])[0] == 1.0

    def test_zero_function(self):
        f = make_rkhs_function(SE, [[0.2], [0.8]], [0.0, 0.0])
        for x in np.linspace(0, 1, 11):
            assert f.on_points([x])[0] == 0.0

    @pytest.mark.parametrize("spec", [SE, MATERN_32])
    def test_sup_bounded_by_norm(self, spec):
        # reproducing property: |f(x)| <= ||f|| since psi(0) = 1
        f = sample_random_rkhs(spec, m=25, B=3.0, domain=UNIT_BOX_2D, seed=2)
        grid = np.random.default_rng(3).uniform(0, 1, size=(10_000, 2))
        assert np.max(np.abs(f.on_points(grid))) <= f.norm + 1e-9

    def test_batch_matches_scalar(self):
        f = sample_random_rkhs(SE, m=5, B=1.0, domain=UNIT_BOX_1D, seed=4)
        X = np.linspace(0, 1, 7)[:, None]
        batch = f.on_points(X)
        scalar = np.array([f.on_points(x)[0] for x in X])
        assert np.allclose(batch, scalar, rtol=1e-13, atol=1e-15)


class TestScaling:
    def test_halving(self):
        f = make_rkhs_function(SE, [[0.0], [2.0]], [2.0, 2.0])
        g = scale_to_norm(f, f.norm / 2.0)
        assert np.allclose(g.coeffs, f.coeffs / 2.0)

    def test_target_norm_reached(self):
        for seed in range(5):
            f = sample_random_rkhs(MATERN_32, m=12, B=1.0, domain=UNIT_BOX_1D, seed=seed)
            g = scale_to_norm(f, 2.5)
            assert g.norm == pytest.approx(2.5, rel=1e-10)

    def test_argmax_invariant(self):
        f = sample_random_rkhs(SE, m=10, B=1.0, domain=UNIT_BOX_1D, seed=6)
        grid = np.linspace(0, 1, 301)[:, None]
        x1, _ = grid_maximum(f, grid)
        x2, _ = grid_maximum(scale_to_norm(f, 7.0), grid)
        assert np.array_equal(x1, x2)

    def test_scaling_multiplies_values_exactly(self):
        f = sample_random_rkhs(SE, m=8, B=2.0, domain=UNIT_BOX_1D, seed=7)
        g = scale_to_norm(f, 4.0)
        grid = np.linspace(0, 1, 50)[:, None]
        ratio = g.on_points(grid) / f.on_points(grid)
        assert np.max(np.abs(ratio - 2.0)) < 1e-12

    def test_zero_function_rejected(self):
        f = make_rkhs_function(SE, [[0.0]], [0.0])
        with pytest.raises(ValueError):
            scale_to_norm(f, 1.0)


class TestSampling:
    def test_deterministic(self):
        a = sample_random_rkhs(SE, m=9, B=2.0, domain=UNIT_BOX_2D, seed=8)
        b = sample_random_rkhs(SE, m=9, B=2.0, domain=UNIT_BOX_2D, seed=8)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_norm_equals_target(self):
        f = sample_random_rkhs(MATERN_32, m=30, B=2.0, domain=UNIT_BOX_2D, seed=9)
        assert f.norm == pytest.approx(2.0, rel=1e-10)

    def test_centers_inside_box(self):
        box = Box((-1.0, 2.0), (1.0, 5.0))
        f = sample_random_rkhs(SE, m=50, B=1.0, domain=box, seed=10)
        assert box.contains(f.centers)


class TestGridMaximum:
    def test_single_point_grid(self):
        f = make_rkhs_function(SE, [[0.0]], [1.0])
        x, v = grid_maximum(f, [[0.4]])
        assert x[0] == 0.4
        assert v == f.on_points([0.4])[0]

    def test_tie_break_lowest_index(self):
        f = make_rkhs_function(SE, [[0.5]], [0.0])  # identically zero
        x, v = grid_maximum(f, [[0.9], [0.1], [0.5]])
        assert x[0] == 0.9
        assert v == 0.0

    def test_nearest_grid_point_to_center_wins(self):
        # single positive bump decays radially, so the closest point wins
        f = make_rkhs_function(MATERN_32, [[0.37]], [1.0])
        grid = np.linspace(0, 1, 21)[:, None]
        x, _ = grid_maximum(f, grid)
        assert x[0] == pytest.approx(0.35)

    def test_empty_grid_rejected(self):
        f = make_rkhs_function(SE, [[0.0]], [1.0])
        with pytest.raises(ValueError):
            grid_maximum(f, np.empty((0, 1)))
