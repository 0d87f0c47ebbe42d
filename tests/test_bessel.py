"""Modified Bessel function of the second kind against frozen references."""

import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gpucb import kernels
from gpucb.config import KernelFamily, KernelSpec
from gpucb.kernels import _BLOCK, _bessel_k_general, bessel_k, kernel_cross

REFERENCE = Path(__file__).parent / "data" / "bessel_kv_reference.csv"


def _load_reference():
    with open(REFERENCE, newline="") as fh:
        return [(float(r["nu"]), float(r["z"]), float(r["k_nu"])) for r in csv.DictReader(fh)]


class TestClosedForms:
    def test_half_order_at_one(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-14
        )

    def test_half_order_at_two(self):
        assert bessel_k(0.5, 2.0) == pytest.approx(
            math.sqrt(math.pi / 4.0) * math.exp(-2.0), rel=1e-14
        )

    def test_three_halves_recurrence(self):
        # K_{3/2}(z) = K_{1/2}(z) (1 + 1/z)
        for z in (0.3, 1.0, 5.0):
            assert bessel_k(1.5, z) == pytest.approx(bessel_k(0.5, z) * (1 + 1 / z), rel=1e-13)


class TestGeneralOrder:
    def test_frozen_oracle_value(self):
        # arbitrary-precision reference computed before the build
        assert bessel_k(0.3, 0.7) == pytest.approx(0.68956248975697498, rel=1e-12)

    def test_reference_table_within_1e_minus_12(self):
        rows = _load_reference()
        assert len(rows) == 500
        worst = 0.0
        for nu, z, expected in rows:
            worst = max(worst, abs(bessel_k(nu, z) - expected) / abs(expected))
        assert worst <= 1e-12

    def test_general_path_agrees_with_closed_form(self):
        # half-integer orders take the quadrature too; the closed form is
        # K_{n+1/2}(z) = sqrt(pi/(2z)) e^{-z} sum_{k=0}^{n} (n+k)!/(k!(n-k)!) (2z)^{-k}
        for n in range(4):
            for z in (0.01, 0.5, 1.9, 2.1, 10.0):
                total = sum(
                    math.factorial(n + k) / (math.factorial(k) * math.factorial(n - k)) / (2.0 * z) ** k
                    for k in range(n + 1)
                )
                closed = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * total
                assert bessel_k(n + 0.5, z) == pytest.approx(closed, rel=1e-12)

    def test_recurrence_identity(self):
        # K_{nu+1}(z) = K_{nu-1}(z) + (2 nu / z) K_nu(z)
        for nu in (0.7, 1.3, 2.9):
            for z in (0.4, 1.7, 6.0):
                lhs = bessel_k(nu + 1.0, z)
                rhs = bessel_k(nu - 1.0, z) if nu > 1.0 else _bessel_k_general(nu - 1.0, z)
                assert lhs == pytest.approx(rhs + (2.0 * nu / z) * bessel_k(nu, z), rel=1e-11)

    def test_decreasing_in_z(self):
        values = [bessel_k(1.1, z) for z in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestErrors:
    def test_nonpositive_argument(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, -2.0)

    def test_nonpositive_order(self):
        with pytest.raises(ValueError):
            bessel_k(0.0, 1.0)
        with pytest.raises(ValueError):
            bessel_k(-1.5, 1.0)

    def test_overflow_at_tiny_argument(self):
        with pytest.raises(OverflowError):
            bessel_k(100.5, 1e-8)

    def test_far_below_the_reference_table(self):
        from scipy.special import kv  # test oracle only

        z = np.array([1e-300, 1e-250, 1e-206, 1e-100, 1e-30, 1e-12])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # at nu = 0.4 the K_{mu+1} = K_1.4 sum overflows at the two
            # smallest arguments while the K_mu sum still grows: that must
            # neither stop the K_mu sum early nor meet an underflowed factor
            # as inf * 0
            for nu in (0.01, 0.4, 0.6):
                expected = kv(nu, z)
                assert np.max(np.abs(bessel_k(nu, z) - expected) / expected) <= 1e-12
            with pytest.raises(OverflowError):
                bessel_k(1.2, 1e-300)


def _arguments(n: int, seed: int) -> np.ndarray:
    """Log-spaced random arguments plus a run of arguments around z = 2."""
    rng = np.random.default_rng(seed)
    z = np.exp(rng.uniform(math.log(1e-6), math.log(600.0), n))
    near_two = [np.nextafter(2.0, -np.inf), 2.0, np.nextafter(2.0, np.inf), 1.999, 2.001]
    return np.concatenate([z[: n // 2], near_two, z[n // 2 :]])


class TestArrays:
    @pytest.mark.parametrize("nu", [0.3, 1.2, 7.3, 2.5])
    def test_batch_equals_single_calls_bit_for_bit(self, nu):
        z = _arguments(_BLOCK + 900, seed=3)
        batch = bessel_k(nu, z)
        # the run around z = 2, both sides of the block boundary and a random sample
        n = z.size
        picks = set(range(n // 2 - 2, n // 2 + 7)) | set(range(_BLOCK - 5, _BLOCK + 5))
        picks |= set(np.random.default_rng(4).choice(n, 150, replace=False).tolist())
        for i in sorted(picks):
            assert batch[i] == bessel_k(nu, float(z[i])), (nu, z[i])
        # the values do not depend on the order or company of the arguments
        perm = np.random.default_rng(5).permutation(n)
        assert np.array_equal(bessel_k(nu, z[perm]), batch[perm])
        assert np.array_equal(bessel_k(nu, z[::-3]), batch[::-3])
        # finished arguments leave the working arrays from the tail, from the
        # head or from the middle of the block: a dense ascending run around
        # z = 2, repeated arguments, a descending copy, and an interleaved
        # block whose arguments finish between unfinished ones
        dense = np.linspace(1.9, 2.1, 301)
        for extra in (dense, np.repeat(dense[::30], 4), dense[::-1].copy(), np.tile([2.5, 60.0, 7.0], 50)):
            values = bessel_k(nu, extra)
            for v, x in zip(values.tolist(), extra.tolist()):
                assert v == bessel_k(nu, x), (nu, x)

    def test_float_in_float_out_and_shape_kept(self):
        assert type(bessel_k(1.2, 0.7)) is float
        z = np.array([[0.5, 3.0], [1.0, 40.0]])
        out = bessel_k(1.2, z)
        assert out.shape == (2, 2)
        assert out[1, 0] == bessel_k(1.2, 1.0)
        assert bessel_k(1.2, np.array([])).shape == (0,)

    @pytest.mark.parametrize("nu", [0.3, 0.8, 1.2, 2.2, 7.3])
    def test_agrees_with_scipy_kv(self, nu):
        from scipy.special import kv  # test oracle only

        z = np.logspace(-6.0, math.log10(600.0), 700)
        expected = kv(nu, z)
        assert np.max(np.abs(bessel_k(nu, z) - expected) / expected) <= 1e-12

    def test_matern_profile_zero_where_k_underflows(self):
        spec = KernelSpec(KernelFamily.MATERN, nu=1.2, lengthscale=1.0)
        z = np.array([700.0, 745.5, 760.0, 900.0, 5000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_k(1.2, 900.0) == 0.0
            psi = kernel_cross(spec, [[0.0]], (z / (2.0 * math.sqrt(1.2)))[:, None])[0]
        assert psi[0] > 0.0
        assert np.array_equal(psi[2:], np.zeros(3))

    def test_overflow_in_an_array(self):
        with pytest.raises(OverflowError):
            bessel_k(100.5, np.array([3.0, 1e-8, 1.0]))
        with pytest.raises(OverflowError):
            bessel_k(100.3, np.array([3.0, 1e-8, 1.0]))

    def test_nonpositive_entry_in_an_array(self):
        with pytest.raises(ValueError):
            bessel_k(1.2, np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            bessel_k(1.2, np.array([1.0, np.nan]))

    # both sides of z = 1, where the quadrature's step starts to shrink
    @pytest.mark.parametrize("z", [0.5, 5.0])
    def test_non_convergence_raises(self, monkeypatch, z):
        monkeypatch.setattr(kernels, "_MAX_ITER", 2)
        with pytest.raises(ArithmeticError):
            bessel_k(1.2, np.array([z, 1.5 * z]))
