"""Posterior state: factorization, sequential updates, and diagnostics."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from gpucb.config import Box, KernelFamily, KernelSpec, NumericError
from gpucb.kernels import kernel_cross, kernel_matrix
from gpucb.posterior import (
    GrowingPosterior,
    _BLOCK,
    _cholesky,
    _held,
    _inv_lower,
    _lower_product,
    fit,
    logdet_information,
    posterior_mean_at,
    posterior_var_at,
)
from gpucb.rkhs import make_rkhs_function, sample_random_rkhs
from reference import norm_chain_check, update

SE = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=1.0)
MATERN_32 = KernelSpec(KernelFamily.MATERN, nu=1.5, lengthscale=1.0)
MATERN_03 = KernelSpec(KernelFamily.MATERN, nu=1.5, lengthscale=0.3)
REFERENCE = Path(__file__).parent / "data" / "posterior_reference.json"


def _arrow(t, v):
    """The t x t identity with ``v`` off the diagonal in its last row and column."""
    K = np.eye(t)
    K[-1, :-1] = K[:-1, -1] = v
    return K


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
        from gpucb.kernels import kernel_matrix

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
            from gpucb.kernels import kernel_cross

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
        from gpucb.kernels import kernel_cross

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


def grow(points, rho, order, y):
    """A GrowingPosterior over ``points`` fed ``y`` at ``order``, yielding
    (mean, variance) before each step and after the last."""
    post = GrowingPosterior(kernel_matrix(MATERN_03, points), rho)
    for t, c in enumerate(order):
        yield post.mean.copy(), post.variance()
        post.observe(c, y[t])
    yield post.mean.copy(), post.variance()


class TestGrowingPosterior:
    """The fixed-point-set posterior, in its W rows and across the refactors
    that rebuild them from the distinct design."""

    points = np.linspace(0.0, 1.0, 8)[:, None]  # n = 8: this order refactors after steps 15, 25 and 34
    K = kernel_matrix(MATERN_03, points)
    rng = np.random.default_rng(11)
    order = rng.integers(0, 8, size=40)  # 40 observations of 8 points: points repeat
    ys = rng.standard_normal((2, 40))

    def test_matches_fit_across_the_refactors(self):
        for j, y in enumerate(self.ys):
            for t, (mean, var) in enumerate(grow(self.points, 0.5, self.order, y)):
                state = fit(MATERN_03, 0.5, self.points[self.order[:t]], y[:t])
                assert np.allclose(mean, posterior_mean_at(state, self.points), rtol=0, atol=1e-9), (t, j)
                assert np.allclose(var, posterior_var_at(state, self.points), rtol=0, atol=1e-9), (t, j)

    def test_rows_never_exceed_twice_the_distinct_design_plus_one(self):
        # the refactor steps the class comment names, and over a long run a
        # row count that never passes 2 * distinct + 1, written or kept; a
        # refactor orders its design by last play, so this step's point,
        # the last played, takes the last design row
        long = np.random.default_rng(12).integers(0, 8, size=400)
        for order, steps in ((self.order, [15, 25, 34]), (long, None)):
            post = GrowingPosterior(self.K, 0.5)
            assert post._W.shape[0] == 17
            refactors = []
            for t, c in enumerate(order, start=1):
                written = post._rows + 1  # the rows once this observation's row is in
                post.observe(c, 0.0)
                distinct = np.unique(order[:t]).size
                assert written <= 2 * distinct + 1 and post._rows <= 2 * distinct, t
                if post._rows < written:
                    # right after a refactor the rows are the design rows
                    assert post._rows == distinct, t
                    assert post._pos[c] == distinct - 1, t
                    last = {p: j for j, p in enumerate(order[:t])}
                    assert list(post._pos[sorted(last, key=last.get)]) == list(range(distinct)), t
                    refactors.append(t)
            assert refactors == steps if steps else len(refactors) > 20

    @pytest.mark.parametrize("horizon", [10, 15, 16, 20, 21, 26])
    def test_shorter_horizon_is_a_bitwise_prefix(self, horizon):
        # the refactor steps are fixed by the prefix, so the horizon never
        # moves a bit: these horizons stop before the first refactor, at it,
        # just after it, just after a design point's first replay since the
        # refactor (step 20 replays point 4, last played before the
        # refactor, from the last design row), just after a repeat
        # within its epoch (step 21 plays point 6 again since step 17 and
        # reads its own row) and after the second
        for j, y in enumerate(self.ys):
            short = list(grow(self.points, 0.5, self.order[:horizon], y[:horizon]))
            whole = list(grow(self.points, 0.5, self.order, y))
            for t, ((m_a, v_a), (m_b, v_b)) in enumerate(zip(short, whole)):
                assert np.array_equal(m_a, m_b) and np.array_equal(v_a, v_b), (t, j)

    def test_negative_variance_after_a_refactor_is_an_error(self, monkeypatch):
        # a halved factor at the first refactor (after step 15) doubles its
        # rows W = L^-1 K[D], leaving negative variances at observed points
        monkeypatch.setattr("gpucb.posterior._cholesky", lambda K, noise: 0.5 * _cholesky(K, noise))
        with pytest.raises(NumericError, match="negative posterior variance") as excinfo:
            list(grow(self.points, 0.5, self.order, self.ys[0]))
        assert excinfo.value.step == 16

    def test_matches_fit_after_5000_replicated_observations(self):
        # 8 points played 5000 times: the refactors carry the replicate
        # counts, and the rows must still give the refit posterior, at the
        # step of the last refactor and at the end
        rng = np.random.default_rng(13)
        order = rng.integers(0, 8, size=5000)
        y = rng.standard_normal(5000)
        post = GrowingPosterior(self.K, 0.5)
        last = None
        for t, c in enumerate(order, start=1):
            rows = post._rows
            post.observe(c, y[t - 1])
            if post._rows <= rows:
                last = (t, post.mean.copy(), post.variance())
        assert last is not None and last[0] < 5000
        for t, mean, var in (last, (5000, post.mean, post.variance())):
            state = fit(MATERN_03, 0.5, self.points[order[:t]], y[:t])
            assert np.allclose(mean, posterior_mean_at(state, self.points), rtol=0, atol=1e-9), t
            assert np.allclose(var, posterior_var_at(state, self.points), rtol=0, atol=1e-9), t

    @pytest.mark.parametrize("rho", [0.5, 1e-3])
    def test_matches_fit_over_2000_replays_of_the_refactored_design(self, rho):
        # 4 of the 8 points, played twice each, refactor after step 9; every
        # later step replays one of them, reading its covariance row from
        # the refactor (a refactor every 5 steps from there on)
        rng = np.random.default_rng(14)
        design = np.array([1, 3, 4, 6])
        order = np.concatenate([design, design, [1], rng.choice(design, size=2001)])
        y = rng.standard_normal(order.size)
        post = GrowingPosterior(self.K, rho)
        seen, design = {}, 0
        for t, c in enumerate(order, start=1):
            if t > 9:
                assert design == 4 and post._pos[c] >= 0, t
            rows = post._rows
            post.observe(c, y[t - 1])
            if post._rows <= rows:
                design = post._rows  # right after a refactor, the design rows
            if t in (10, 13, 500, 1999, order.size):
                seen[t] = (post.mean.copy(), post.variance())
        for t, (mean, var) in seen.items():
            state = fit(MATERN_03, rho, self.points[order[:t]], y[:t])
            assert np.allclose(mean, posterior_mean_at(state, self.points), rtol=0, atol=1e-9), (rho, t)
            assert np.allclose(var, posterior_var_at(state, self.points), rtol=0, atol=1e-9), (rho, t)

    @pytest.mark.parametrize("rho", [0.5, 1e-3, 1e-4])
    def test_matches_fit_over_repeats_within_one_refactor_epoch(self, rho):
        # 4 of the 8 points, played twice each, refactor after step 9; then
        # point 0, off that design, is played 3 times and design point 3
        # twice before the next refactor: 0 reads K first and its own row
        # after, 3 its design row first and its own row after
        rng = np.random.default_rng(16)
        design = np.array([1, 3, 4, 6])
        order = np.concatenate([design, design, [1, 0, 3, 5, 0, 3, 0], rng.integers(0, 8, size=60)])
        y = rng.standard_normal(order.size)
        every = np.vstack([self.points, self.shadow])
        post = GrowingPosterior(kernel_cross(MATERN_03, self.points, every), rho)
        sources, designs, design = [], [], 0
        for t, c in enumerate(order, start=1):
            p = post._pos[c]
            sources.append("own" if p >= design else "design row" if p >= 0 else "K")
            designs.append(design)
            rows = post._rows
            post.observe(c, y[t - 1])
            if post._rows <= rows:
                design = post._rows  # right after a refactor, the design rows
            state = fit(MATERN_03, rho, self.points[order[:t]], y[:t])
            assert np.allclose(post.mean, posterior_mean_at(state, every), rtol=0, atol=1e-9), (rho, t)
            assert np.allclose(post.variance(), posterior_var_at(state, every), rtol=0, atol=1e-9), (rho, t)
        assert sources[9:15] == ["K", "design row", "K", "own", "own", "own"]
        assert designs[9:16] == [4] * 7  # no refactor from step 10 to step 16
        assert {"K", "design row", "own"} <= set(sources[15:])

    @pytest.mark.parametrize("rho", [1e-3, 1e-4, 1e-5])
    def test_matches_the_50_digit_reference_over_300_replays(self, rho):
        # tests/data/gen_posterior_reference.py: the design {1, 3, 4, 6}
        # played twice each, then point 1, then 300 seeded replays of it.
        # The bounds are twice the largest errors of replays through the
        # refactor's inv(L) (4.5e-12 on the mean, 1.1e-15 on the variance),
        # rounded up.  With W's design columns taken from the product
        # inv(L) K[D], where they cancel, the mean reads 4.7e-11 off at
        # rho = 1e-5; fit reads 7.6e-10 off
        ref = json.loads(REFERENCE.read_text())
        spec = KernelSpec(KernelFamily.MATERN, nu=ref["nu"], lengthscale=ref["lengthscale"])
        points = np.array(ref["points"])[:, None]
        order, y = ref["order"], ref["y"]
        checkpoints = {r["t"]: r for r in ref["checkpoints"] if r["rho"] == rho}
        post = GrowingPosterior(kernel_matrix(spec, points), rho)
        for t, c in enumerate(order, start=1):
            post.observe(c, y[t - 1])
            if t in checkpoints:
                assert np.allclose(post.mean, checkpoints[t]["mean"], rtol=0, atol=1e-11), t
                assert np.allclose(post.variance(), checkpoints[t]["var"], rtol=0, atol=3e-15), t
        assert len(checkpoints) == 6

    def test_every_row_is_written_before_it_is_read(self):
        # W starts unset (np.empty): rows poisoned with NaN grow bit for bit
        # as rows set to zeros, past the refactors after steps 15, 25 and 34
        def run(fill):
            post = GrowingPosterior(self.K, 0.5)
            post._W.fill(fill)
            seen = []
            for c, y in zip(self.order, self.ys[0]):
                seen.append((post.mean.copy(), post.variance()))
                post.observe(c, y)
            return seen + [(post.mean.copy(), post.variance())]

        for t, ((m_a, v_a), (m_b, v_b)) in enumerate(zip(run(np.nan), run(0.0))):
            assert np.array_equal(m_a, m_b) and np.array_equal(v_a, v_b), t

    shadow = np.array([[0.05], [0.55]])

    @pytest.mark.parametrize("rho", [0.5, 1e-3])
    def test_shadow_columns_match_fit_across_refactors_and_replays(self, rho):
        # two points off the set, never played: through the refactors and
        # the replays of the refactored design, their columns hold the refit
        # posterior at them
        rng = np.random.default_rng(15)
        design = np.array([0, 2, 5, 7])
        order = np.concatenate([rng.integers(0, 8, size=30), design, design, rng.choice(design, size=400)])
        y = rng.standard_normal(order.size)
        every = np.vstack([self.points, self.shadow])
        post = GrowingPosterior(kernel_cross(MATERN_03, self.points, every), rho)
        replays = 0
        for t, c in enumerate(order, start=1):
            replays += int(post._pos[c] >= 0)
            post.observe(c, y[t - 1])
            if t in (1, 16, 30, 38, 100, order.size):
                state = fit(MATERN_03, rho, self.points[order[:t]], y[:t])
                mean, var = post.mean[8:], post.variance()[8:]
                assert np.allclose(mean, posterior_mean_at(state, self.shadow), rtol=0, atol=1e-9), (rho, t)
                assert np.allclose(var, posterior_var_at(state, self.shadow), rtol=0, atol=1e-9), (rho, t)
        assert replays > 300


class TestHeld:
    """``_held``: one value per name, kept while the same key is asked for."""

    def test_a_new_key_builds_with_nothing_held_under_its_name(self, fresh_memo):
        seen = []

        def build(value):
            def run():
                seen.append({name: held for name, (_, held) in fresh_memo.items()})
                return value
            return run

        _held("other", (0,), build("kept"))
        _held("x", (SE, np.arange(3.0)), build("first"))
        assert _held("x", (SE, np.arange(4.0)), build("second")) == "second"
        # the old value under the name went before the builder ran; the
        # other name's value stayed
        assert seen == [{}, {"other": "kept"}, {"other": "kept"}]

    def test_the_same_key_returns_the_same_object(self, fresh_memo):
        points = np.linspace(0.0, 1.0, 5)[:, None]
        first = _held("kernel", (SE, points), lambda: kernel_matrix(SE, points))
        # an equal key from another array: compared by shape and bytes
        assert _held("kernel", (SE, points.copy()), None) is first
        # the same bytes in another shape, or another spec, are another key
        assert _held("kernel", (SE, points.reshape(1, 5)), lambda: "reshaped") == "reshaped"
        assert _held("kernel", (MATERN_32, points), lambda: "matern") == "matern"
        # -0.0 == 0.0, yet its bits differ: exact keys
        zero = np.zeros(2)
        _held("v", (zero,), lambda: "zero")
        assert _held("v", (-zero,), lambda: "negative zero") == "negative zero"

    def test_array_values_are_read_only(self, fresh_memo):
        K = _held("kernel", (SE,), lambda: kernel_matrix(SE, np.zeros((2, 1))))
        assert not K.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            K[0, 0] = 0.0

    def test_a_failed_build_holds_nothing(self, fresh_memo):
        _held("x", (1,), lambda: "old")

        def fail():
            raise NumericError("no")

        with pytest.raises(NumericError):
            _held("x", (2,), fail)
        assert "x" not in fresh_memo
        assert _held("x", (1,), lambda: "rebuilt") == "rebuilt"


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

    @pytest.mark.parametrize("indefinite, pivot", [
        # leading minors of orders 1 and 2 are positive, the order-3 one is not
        (np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.9], [0.9, 0.9, 1.0]]), 2),
        # the order-1 minor is already negative
        (np.array([[-1.0, 0.5], [0.5, 1.0]]), 0),
        # every leading minor of this 130 x 130 matrix is positive but its own
        (_arrow(130, 0.2), 129),
    ], ids=["order3", "order1", "order130"])
    def test_failed_factorization_reports_pivot(self, monkeypatch, indefinite, pivot):
        from scipy.linalg.lapack import dpotrf  # test oracle only

        t = indefinite.shape[0]
        assert dpotrf(indefinite + 0.01 * np.eye(t), lower=True)[1] - 1 == pivot
        monkeypatch.setattr("gpucb.posterior.kernel_matrix", lambda spec, X: indefinite.copy())
        with pytest.raises(NumericError, match=f"failed at pivot {pivot}$") as excinfo:
            fit(SE, 0.01, np.zeros((t, 1)), np.zeros(t))
        assert excinfo.value.index == pivot


class TestTriangularSolve:
    """Solves through ``_inv_lower``, and ``_lower_product``, against SciPy's triangular solve."""

    @staticmethod
    def factor(t):
        """Factor of an SE kernel matrix over t random points plus 0.01 I."""
        x = np.random.default_rng(t).uniform(0, 1, (t, 1))
        return np.linalg.cholesky(np.exp(-np.square(x - x.T) / 0.1) + 0.01 * np.eye(t))

    @pytest.mark.parametrize("t", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("columns", [None, 5])
    def test_matches_scipy(self, t, trans, columns):
        # the solves the refit reference takes through the inverse factor:
        # inv(L) b in update and posterior_var_at, inv(L)' b in _cho_solve
        from scipy.linalg import solve_triangular  # test oracle only

        L = self.factor(t)
        b = np.random.default_rng(t + 1).standard_normal(t if columns is None else (t, columns))
        ref = solve_triangular(L, b, lower=True, trans=int(trans))
        Linv = _inv_lower(L)
        got = (Linv.T if trans else Linv) @ b
        assert got.shape == b.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 200])
    def test_whiten_matches_scipy(self, t):
        # the fits whiten kernel rows C in place, by blocks of inv(L)'s
        # lower triangle: the full product with inv(L) and the solve
        from scipy.linalg import solve_triangular  # test oracle only

        L = self.factor(t)
        C = np.random.default_rng(t + 2).standard_normal((t, 7))
        Linv = _inv_lower(L)
        full, ref = Linv @ C, solve_triangular(L, C, lower=True)
        assert _lower_product(Linv, C) is C
        assert np.allclose(C, full, rtol=1e-12, atol=0)
        assert np.max(np.abs(C - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t", [1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("k", [1, 4, 16, 64, 256, 1024, 4096])
    def test_inverse_by_halves_matches_scipy(self, t, k):
        # the factor a refactor inverts: an SE design whose points were each
        # played k times, so the noise is rho / k (rho = 1)
        from scipy.linalg import solve_triangular  # test oracle only

        x = np.random.default_rng(t).uniform(0, 1, (t, 2))
        L = _cholesky(kernel_matrix(KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=0.2), x), 1.0 / k)
        got = _inv_lower(L)
        ref = solve_triangular(L, np.eye(t), lower=True)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert not np.any(np.triu(got, 1))
