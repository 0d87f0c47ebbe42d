"""Kernel evaluation, matrix construction, and Holder-continuity checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpucb import kernels
from gpucb.config import KernelFamily, KernelSpec
from gpucb.kernels import kernel_cross, kernel_matrix
from reference import holder_validate

SE = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=1.0)
MATERN_HALF = KernelSpec(KernelFamily.MATERN, nu=0.5, lengthscale=1.0)
MATERN_32 = KernelSpec(KernelFamily.MATERN, nu=1.5, lengthscale=1.0)


def whole_distances(X, Y):
    """Euclidean distances as a whole-matrix build forms them: squared
    coordinate differences summed from zero, one coordinate at a time."""
    sq = np.zeros((len(X), len(Y)))
    for k in range(X.shape[1]):
        diff = np.subtract.outer(X[:, k], Y[:, k])
        diff *= diff
        sq += diff
    return np.sqrt(sq)


def psi(spec, x, y):
    """Correlation between two points x and y, read off kernel_cross."""
    return float(kernel_cross(spec, x, y)[0, 0])


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
        general = KernelSpec(KernelFamily.MATERN, nu=1.2, lengthscale=1.0)
        for spec in (SE, MATERN_HALF, MATERN_32, general):
            assert psi(spec, [0.3, 0.4], [0.3, 0.4]) == 1.0

    def test_se_half_value(self):
        # exp(-r^2/2) = 1/2 at r = sqrt(2 ln 2)
        r = math.sqrt(2.0 * math.log(2.0))
        assert psi(SE, [0.0], [r]) == pytest.approx(0.5, rel=1e-14)

    def test_matern_half_closed_form(self):
        # K_{1/2} closed form collapses the profile to exp(-z), z = sqrt(2) r
        assert psi(MATERN_HALF, [0.0], [1.0]) == pytest.approx(
            math.exp(-math.sqrt(2.0)), rel=1e-12
        )

    def test_matern_32_closed_form(self):
        # (1 + z) exp(-z) with z = 2 sqrt(1.5) * 0.5
        z = math.sqrt(6.0) * 0.5
        assert psi(MATERN_32, [0.0], [0.5]) == pytest.approx(
            (1.0 + z) * math.exp(-z), rel=1e-12
        )

    def test_general_order_matches_oracle(self):
        # frozen arbitrary-precision value for a non-half-integer order
        spec = KernelSpec(KernelFamily.MATERN, nu=0.3, lengthscale=1.0)
        # psi(r) = z^nu K_nu(z) / (gamma(nu) 2^{nu-1}), z = 2 sqrt(0.3) r;
        # at r = 0.7 / (2 sqrt(0.3)): z = 0.7, K_0.3(0.7) = 0.68956248975697498
        r = 0.7 / (2.0 * math.sqrt(0.3))
        expected = 0.7**0.3 * 0.68956248975697498 / (math.gamma(0.3) * 2 ** (0.3 - 1))
        assert psi(spec, [0.0], [r]) == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_finite(self):
        # unchecked, a NaN coordinate gave SE a NaN and Matern a correlation
        # of exactly 1 with every point
        for spec in (SE, MATERN_32):
            for bad in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ValueError, match="non-finite"):
                    kernel_cross(spec, [[bad]], [[0.0], [0.7]])
                with pytest.raises(ValueError, match="non-finite"):
                    kernel_cross(spec, [[0.0, 1.0]], [[0.0, 0.5], [0.0, bad]])
                with pytest.raises(ValueError, match="non-finite"):
                    kernel_matrix(spec, [[0.0], [bad], [0.7]])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            psi(SE, [0.0, 1.0], [0.0])

    @pytest.mark.parametrize("spec", [SE, MATERN_HALF, MATERN_32])
    def test_symmetry_bit_exact(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=3)
            y = rng.uniform(-2, 2, size=3)
            assert psi(spec, x, y) == psi(spec, y, x)

    @pytest.mark.parametrize(
        "spec",
        [SE, MATERN_HALF, MATERN_32, KernelSpec(KernelFamily.MATERN, nu=0.8, lengthscale=0.5)],
    )
    def test_range_and_monotone_decay(self, spec):
        radii = np.linspace(0.0, 4.0, 200)
        vals = kernel_cross(spec, [[0.0]], radii[:, None])[0]
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
                abs(psi(spec, [0.0], [r]) - psi(matched, [0.0], [r]))
                for r in radii
            )
        assert sup_gap[100.0] < sup_gap[50.0]


class TestKernelMatrix:
    def test_single_point(self):
        assert np.array_equal(kernel_matrix(SE, [[0.5]]), np.array([[1.0]]))

    def test_no_points(self):
        assert kernel_matrix(MATERN_32, np.empty((0, 2))).shape == (0, 0)

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

    @pytest.mark.parametrize("nu", [1.2, 1.5])
    def test_infinite_scaled_distance_is_uncorrelated(self, nu):
        # 2 sqrt(nu) / lengthscale overflows to inf: distinct points get 0,
        # coincident ones 1, and no numpy warning is raised
        spec = KernelSpec(KernelFamily.MATERN, nu=nu, lengthscale=1e-310)
        X = np.array([[0.0], [0.25], [0.25], [1.0]])
        expected = np.eye(4)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(kernel_matrix(spec, X), expected)
        assert np.array_equal(kernel_cross(spec, X[:2], X), expected[:2])

    @pytest.mark.parametrize("family, nu, lengthscale", [
        (KernelFamily.SQUARED_EXPONENTIAL, None, 1e-310),
        (KernelFamily.MATERN, 2.5, 1e-300),
        (KernelFamily.MATERN, 3.5, 1e-300),
    ])
    def test_underflowing_profile_is_uncorrelated(self, family, nu, lengthscale):
        # finite but huge scaled distances: SE's r / l overflows, and the
        # half-integer polynomial would overflow where exp(-z) underflows;
        # either way distinct points get exactly 0 and no warning is raised
        spec = KernelSpec(family, nu=nu, lengthscale=lengthscale)
        X = np.array([[0.0], [0.5], [0.5], [1.0]])
        expected = np.eye(4)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(kernel_matrix(spec, X), expected)
        assert np.array_equal(kernel_cross(spec, X[:2], X), expected[:2])

    @pytest.mark.parametrize("lengthscale", [0.5, 1e-310])
    @pytest.mark.parametrize("family, nu", [
        (KernelFamily.SQUARED_EXPONENTIAL, None),
        (KernelFamily.MATERN, 0.5),
        (KernelFamily.MATERN, 1.2),
        (KernelFamily.MATERN, 1.5),
        (KernelFamily.MATERN, 2.5),
    ])
    def test_matrix_is_the_cross_of_a_set_with_itself(self, family, nu, lengthscale):
        # no diagonal is patched in: both profiles are exactly 1 at zero lag
        spec = KernelSpec(family, nu=nu, lengthscale=lengthscale)
        X = np.random.default_rng(4).uniform(size=(30, 2))
        K = kernel_matrix(spec, X)
        assert np.array_equal(K, kernel_cross(spec, X, X))
        assert np.all(np.diag(K) == 1.0)

    @pytest.mark.parametrize("lengthscale", [0.05, 0.5, 3.0, 1e-310, 1e300])
    def test_se_profile_is_the_textbook_formula_bit_for_bit(self, lengthscale):
        # 1e-310 overflows r / l to inf; 1e300 underflows u * u to zero
        spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=lengthscale)
        X = np.random.default_rng(8).uniform(size=(30, 2))
        with np.errstate(over="ignore"):
            u = whole_distances(X[:12], X) / lengthscale
            expected = np.exp(-0.5 * u * u)
        assert np.array_equal(kernel_cross(spec, X[:12], X), expected)

    def test_duplicates_allowed(self):
        K = kernel_matrix(SE, [[0.2], [0.2]])
        assert np.array_equal(K, np.ones((2, 2)))

    @pytest.mark.parametrize("X, Y", [([[0.0]], [[0.0, 5.0]]), ([[0.0, 5.0]], [[0.0]])])
    def test_cross_rejects_dim_mismatch(self, X, Y):
        # neither coordinate set may be read as a prefix of the other
        with pytest.raises(ValueError, match=rf"{len(X[0])}-d points against {len(Y[0])}-d"):
            kernel_cross(SE, X, Y)


GENERAL = KernelSpec(KernelFamily.MATERN, nu=1.2, lengthscale=0.5)
# a lattice repeats distances within and across blocks of rows
LATTICE = np.array([[i / 4.0, j / 4.0] for i in range(2) for j in range(5)])


class TestRowBlocks:
    """A build in blocks of rows gives the whole-matrix result bit for bit."""

    @staticmethod
    def blocked(monkeypatch, entries, build, *args):
        whole = build(*args)
        monkeypatch.setattr(kernels, "_ROW_BLOCK", entries)
        return build(*args), whole

    @pytest.mark.parametrize("spec", [SE, MATERN_32, GENERAL], ids=["se", "matern32", "matern12"])
    @pytest.mark.parametrize("n", [8, 9, 10])  # 3 rows per block: k * 3 - 1, k * 3, k * 3 + 1
    def test_cross_matches_the_whole_matrix(self, monkeypatch, spec, n):
        rng = np.random.default_rng(n)
        X, Y = rng.uniform(size=(n, 2)), rng.uniform(size=(7, 2))
        got, whole = self.blocked(monkeypatch, 3 * 7, kernel_cross, spec, X, Y)
        assert np.array_equal(got, whole)

    @pytest.mark.parametrize("spec", [SE, MATERN_32, GENERAL], ids=["se", "matern32", "matern12"])
    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_y_led_by_x_shares_the_square_part(self, monkeypatch, spec, n):
        rng = np.random.default_rng(n)
        X, Z = rng.uniform(size=(n, 2)), rng.uniform(size=(7, 2))
        got, whole = self.blocked(monkeypatch, 3 * (n + 7), kernel_cross, spec, X, np.vstack([X, Z]))
        assert np.array_equal(got, whole)
        assert np.array_equal(got, np.hstack([kernel_matrix(spec, X), kernel_cross(spec, X, Z)]))
        assert np.array_equal(got[:, :n], got[:, :n].T)

    @pytest.mark.parametrize("spec", [SE, MATERN_32, GENERAL], ids=["se", "matern32", "matern12"])
    def test_wide_y_takes_one_row_per_block(self, monkeypatch, spec):
        rng = np.random.default_rng(1)
        X, Y = rng.uniform(size=(5, 3)), rng.uniform(size=(30, 3))
        got, whole = self.blocked(monkeypatch, 16, kernel_cross, spec, X, Y)
        assert np.array_equal(got, whole)
        got, whole = self.blocked(monkeypatch, 16, kernel_cross, spec, X[:1], Y)
        assert got.shape == (1, 30) and np.array_equal(got, whole)

    @pytest.mark.parametrize("lengthscale", [1e-310, 1e300])
    def test_extreme_se_lengthscales_in_place(self, monkeypatch, lengthscale):
        # 1e-310 overflows r / l to inf; 1e300 underflows u * u to zero
        spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=lengthscale)
        X = np.random.default_rng(2).uniform(size=(11, 2))
        got, whole = self.blocked(monkeypatch, 2 * 11, kernel_matrix, spec, X)
        assert np.array_equal(got, whole)
        with np.errstate(over="ignore"):
            u = whole_distances(X, X) / lengthscale
            assert np.array_equal(got, np.exp(-0.5 * u * u))

    @pytest.mark.parametrize("spec", [SE, MATERN_32, GENERAL], ids=["se", "matern32", "matern12"])
    def test_blocked_matrix_is_exactly_symmetric(self, monkeypatch, spec):
        X = np.random.default_rng(3).uniform(size=(13, 2))
        K, whole = self.blocked(monkeypatch, 4 * 13, kernel_matrix, spec, X)
        assert np.array_equal(K, K.T)
        assert np.array_equal(K, whole)
        # blocked too, every entry evaluated: reversed columns do not start
        # with X, so no block copies the rows above
        assert np.array_equal(K, kernel_cross(spec, X, X[::-1])[:, ::-1])
        assert np.all(np.diag(K) == 1.0)

    @staticmethod
    def bessel_calls(monkeypatch):
        calls = []
        original = kernels.bessel_k

        def recorded(nu, z):
            calls.append(np.array(z))
            return original(nu, z)

        monkeypatch.setattr(kernels, "bessel_k", recorded)
        return calls

    @staticmethod
    def assert_one_call_per_block(calls, X, Y, left):
        # blocks of 4 rows; block i evaluates Y's columns from left[i] on
        z = (2.0 * math.sqrt(GENERAL.nu) / GENERAL.lengthscale) * whole_distances(X, Y)
        want = [np.unique(b[b > 0.0]) for b in (z[start:start + 4, col:] for start, col in zip((0, 4, 8), left))]
        assert len(calls) == 3
        for got, expected in zip(calls, want):
            assert np.array_equal(got, expected)

    def test_one_bessel_call_per_block_on_its_distinct_distances(self, monkeypatch):
        calls = self.bessel_calls(monkeypatch)
        monkeypatch.setattr(kernels, "_ROW_BLOCK", 4 * len(LATTICE))
        kernel_matrix(GENERAL, LATTICE)
        # each block evaluates its columns from its first row on
        self.assert_one_call_per_block(calls, LATTICE, LATTICE, (0, 4, 8))

    @pytest.mark.parametrize("order, left", [
        (slice(None), (0, 4, 8)),  # Y's first rows are X: from each block's first row on
        (slice(None, None, -1), (0, 0, 0)),  # X's rows in another order: all columns
    ], ids=["shared-prefix", "reordered"])
    def test_one_bessel_call_per_block_of_a_cross_build(self, monkeypatch, order, left):
        Y = np.vstack([LATTICE[order], LATTICE[:3] + 0.125])
        whole, M = kernel_cross(GENERAL, LATTICE, Y), kernel_matrix(GENERAL, LATTICE)
        calls = self.bessel_calls(monkeypatch)
        monkeypatch.setattr(kernels, "_ROW_BLOCK", 4 * len(Y))
        K = kernel_cross(GENERAL, LATTICE, Y)
        assert np.array_equal(K, whole) and np.array_equal(K[:, : len(LATTICE)], M[:, order])
        self.assert_one_call_per_block(calls, LATTICE, Y, left)

    @pytest.mark.parametrize("spec, n, blocks", [
        (SE, 1500, 2),  # the scratch block, plus bookkeeping
        (MATERN_32, 1500, 6),  # the profile's temporaries of one block
        (KernelSpec(KernelFamily.MATERN, nu=1.2), 600, 9),  # and np.unique's
    ], ids=["se", "matern32", "matern12"])
    def test_peak_memory_is_the_output_plus_a_few_blocks(self, spec, n, blocks):
        # a whole-matrix build peaked at about three outputs (SE) or seven
        # (Matern); in blocks the output is the only large array
        import tracemalloc

        X = np.random.default_rng(5).uniform(size=(n, 2))
        tracemalloc.start()
        try:
            K = kernel_matrix(spec, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= K.nbytes + blocks * 8 * kernels._ROW_BLOCK


STORE_SPECS = [
    SE,
    MATERN_HALF,
    MATERN_32,
    KernelSpec(KernelFamily.MATERN, nu=2.5, lengthscale=0.7),
    KernelSpec(KernelFamily.MATERN, nu=1.2, lengthscale=0.7),
]
STORE_IDS = ["se", "matern12", "matern32", "matern52", "nu1.2"]


class TestKernelRows:
    """The store of kernel rows: built on first read, each row once, equal
    to the whole build's rows bit for bit."""

    @staticmethod
    def cross_calls(monkeypatch):
        calls = []
        original = kernels.kernel_cross

        def recorded(spec, X, Y):
            calls.append(np.array(X))
            return original(spec, X, Y)

        monkeypatch.setattr(kernels, "kernel_cross", recorded)
        return calls

    @pytest.mark.parametrize("spec", STORE_SPECS, ids=STORE_IDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_row_built_alone_is_the_whole_builds_row(self, spec, d):
        # 300 points: 218 rows per block of the square build, so its second
        # block copies its leading columns from the rows above; the wider
        # set adds 40 points after the first
        rng = np.random.default_rng(d)
        X = rng.uniform(size=(300, d))
        for Y in (X, np.vstack([X, rng.uniform(size=(40, d))])):
            whole = kernel_cross(spec, X, Y)
            if Y is X:
                assert whole.tobytes() == kernel_matrix(spec, X).tobytes()
            store = kernels.KernelRows(spec, X, Y)
            for i in (0, 150, 299):
                assert kernel_cross(spec, X[i:i + 1], Y).tobytes() == whole[i:i + 1].tobytes(), i
                assert store.take(i).tobytes() == whole[i].tobytes(), i
            assert store.take([299, 0, 150]).tobytes() == whole[[299, 0, 150]].tobytes()

    @pytest.mark.parametrize("spec", STORE_SPECS[:4], ids=STORE_IDS[:4])
    def test_closed_forms_build_each_row_once_on_first_read(self, monkeypatch, spec):
        X = LATTICE
        calls = self.cross_calls(monkeypatch)
        store = kernels.KernelRows(spec, X, X)
        assert calls == []
        whole = kernel_matrix(spec, X)
        # a batch builds its new rows in one call, a row asked for twice once
        assert store.take([5, 2, 5]).tobytes() == whole[[5, 2, 5]].tobytes()
        assert store.take(2).tobytes() == whole[2].tobytes()
        out = np.empty((2, len(X)))
        assert store.take(np.array([2, 7]), out=out) is out and out.tobytes() == whole[[2, 7]].tobytes()
        assert [c.tolist() for c in calls] == [X[[2, 5]].tolist(), X[[7]].tolist()]
        # packed in first-use order, and copied out: a row taken and written
        # leaves the store's
        assert store._slot[[2, 5, 7]].tolist() == [0, 1, 2]
        store.take(7)[:] = 0.0
        assert store.take(np.arange(len(X))).tobytes() == whole.tobytes()

    def test_a_general_order_is_built_whole_at_construction(self, monkeypatch):
        # one bessel_k call per block of the whole build, and none per row
        spec = STORE_SPECS[4]
        calls = self.cross_calls(monkeypatch)
        store = kernels.KernelRows(spec, LATTICE, LATTICE)
        assert len(calls) == 1 and np.array_equal(calls[0], LATTICE)
        assert store.take(np.arange(len(LATTICE))).tobytes() == kernel_matrix(spec, LATTICE).tobytes()
        assert len(calls) == 1

    def test_a_batch_imports_no_numpy_ma(self):
        # np.unique would dedupe a batch by importing numpy.ma, which no
        # other step of a run or a report needs
        code = (
            "import sys; from gpucb.config import KernelFamily, KernelSpec; from gpucb.kernels import KernelRows\n"
            "rows = KernelRows(KernelSpec(KernelFamily.SQUARED_EXPONENTIAL), [[0.0], [0.5], [1.0]], [[0.0], [1.0]])\n"
            "assert rows.take([2, 0, 2]).shape == (3, 2)\n"
            "print('numpy.ma' in sys.modules)"
        )
        src = str(Path(kernels.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"

    def test_rejects_what_kernel_cross_rejects(self):
        with pytest.raises(ValueError, match="non-finite"):
            kernels.KernelRows(SE, [[0.0], [np.nan]], [[0.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernels.KernelRows(SE, [[0.0]], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="axis 0"):
            kernels.KernelRows(SE, [[0.0]], [[0.0]]).take(0, axis=1)


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
        assert math.isfinite(report.fitted_A0)

    def test_gap_bounded_by_fitted_constant(self):
        # the defining inequality holds at every sampled radius by
        # construction; confirm on a fresh deterministic scan
        for spec in (SE, MATERN_HALF, MATERN_32):
            report = holder_validate(spec, n_samples=2000, max_radius=2.0, seed=9)
            radii = np.logspace(-6, math.log10(2.0), 200)
            gaps = 1.0 - kernel_cross(spec, [[0.0]], radii[:, None])[0]
            assert np.all(gaps <= report.fitted_A0 * radii**report.theta * (1 + 1e-6) + 1e-12)

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            holder_validate(SE, n_samples=10, max_radius=1.0, seed=0)
