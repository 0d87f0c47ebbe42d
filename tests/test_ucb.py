"""Exploration schedules, acquisition, the sampling loop, and recommendations."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import gpucb.kernels
from gpucb import posterior
from gpucb.analysis import grid_columns
from gpucb.config import BetaKind, BetaSchedule, KernelFamily, KernelSpec, NumericError
from gpucb.kernels import KernelRows, kernel_cross, kernel_matrix
from gpucb.posterior import GrowingPosterior, _clamped_var, fit
from gpucb.ucb import (
    _WRITE_ROWS,
    RegretTrace,
    _seed_noise,
    beta_column,
    beta_value,
    run_gp_ucb,
    trace_from_csv,
    trace_to_csv,
)
from reference import acquire, edp_recommend, update
from conftest import make_config

SE = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=1.0)


class TestBetaValue:
    def test_log_product_hand_value(self):
        # c0^2 * ln(1 + rho t) * ln(e + (6/pi^2) c_subg t^2 / delta) at
        # t = 1, rho = 1, delta = 0.1, c0 = c_subg = 1
        sched = BetaSchedule(BetaKind.LOG_PRODUCT, delta=0.1, c0=1.0, c_subg=1.0)
        expected = math.log(2.0) * math.log(math.e + (6.0 / math.pi**2) / 0.1)
        assert beta_value(sched, 1, rho=1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.5074, abs=2e-4)

    def test_t_zero_equals_t_one(self):
        for kind in (BetaKind.LOG_PRODUCT, BetaKind.SRINIVAS):
            sched = BetaSchedule(kind, delta=0.2)
            assert beta_value(sched, 0, rho=0.5) == beta_value(sched, 1, rho=0.5)

    @pytest.mark.parametrize("kind", [BetaKind.LOG_PRODUCT, BetaKind.SRINIVAS])
    def test_monotone_nondecreasing(self, kind):
        sched = BetaSchedule(kind, delta=0.1)
        values = [beta_value(sched, t, rho=1.0) for t in range(1, 200)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_constant_kind(self):
        sched = BetaSchedule(BetaKind.CONSTANT, constant_value=4.0)
        assert all(beta_value(sched, t, rho=1.0) == 4.0 for t in (0, 1, 7, 100))

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            BetaSchedule(BetaKind.LOG_PRODUCT, delta=1.0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            beta_value(BetaSchedule(BetaKind.CONSTANT), -1, rho=1.0)

    @pytest.mark.parametrize("c0, c_subg, t", [(1e300, 1.0, 0), (1e154, 1.0, 2), (1.0, 1e308, 0)],
                             ids=["c0_squared", "product", "tail"])
    def test_overflowing_weight_is_named(self, c0, c_subg, t):
        # c0**2 raises OverflowError; the product c0^2 * grow * tail grows
        # past the double range with t (c0 = 1e154 first at step 3); the
        # tail's log argument overflows at c_subg = 1e308
        sched = BetaSchedule(BetaKind.LOG_PRODUCT, delta=0.1, c0=c0, c_subg=c_subg)
        if t:
            assert math.isfinite(beta_value(sched, t - 1, rho=1.0))
        message = f"exploration weight overflows double precision: the log_product schedule gives inf at step {t + 1}"
        with pytest.raises(NumericError, match=f"^{message}$"):
            beta_value(sched, t, rho=1.0)
        with pytest.raises(NumericError, match=f"^{message}$"):
            beta_column(sched, 8, rho=1.0)

    @pytest.mark.parametrize("kind", list(BetaKind))
    def test_column_is_the_schedule_bit_for_bit_and_read_only(self, kind):
        sched = BetaSchedule(kind, delta=0.2, c0=0.39, constant_value=3.0)
        column = beta_column(sched, 300, 0.5)
        assert np.array_equal(column.view(np.int64), np.array([beta_value(sched, t, 0.5) for t in range(300)]).view(np.int64))
        assert beta_column(sched, 300, 0.5) is column
        with pytest.raises(ValueError):
            column[0] = 1.0


class TestClampedVariance:
    def test_no_negative_entry_leaves_the_input_untouched(self):
        raw = np.array([0.0, 0.25, 1.0])
        assert _clamped_var(raw) is raw
        assert raw.tolist() == [0.0, 0.25, 1.0]

    def test_round_off_below_zero_is_clamped(self):
        raw = np.array([-1e-13, 0.5, -0.9e-12])
        assert _clamped_var(raw) is raw
        assert raw.tolist() == [0.0, 0.5, 0.0]

    def test_larger_negative_entry_is_an_error(self):
        with pytest.raises(NumericError, match="negative posterior variance") as excinfo:
            _clamped_var(np.array([0.5, -2e-12]), step=7)
        assert excinfo.value.step == 7

    def test_negative_entry_past_a_nan_is_an_error(self):
        # argmin stops at the NaN, which hides the -1.0 behind it
        with pytest.raises(NumericError, match=r"negative posterior variance -1.0 "):
            _clamped_var(np.array([0.5, np.nan, -1.0]))

    def test_round_off_past_a_nan_is_clamped_and_the_nan_kept(self):
        raw = np.array([np.nan, -1e-13, 0.5, np.nan])
        assert _clamped_var(raw) is raw
        assert np.array_equal(raw, [np.nan, 0.0, 0.5, np.nan], equal_nan=True)
        raw = np.array([np.nan, np.nan])
        assert np.isnan(_clamped_var(raw)).all()


class TestAcquire:
    def test_empty_state_ties_to_first(self):
        state = fit(SE, 1.0, np.empty((0, 1)), [])
        cands = np.linspace(0, 1, 9)[:, None]
        assert acquire(state, beta=2.0, candidates=cands) == 0

    def test_zero_beta_is_pure_exploitation(self):
        state = fit(SE, 1.0, [[0.2], [0.8]], [-1.0, 3.0])
        cands = np.linspace(0, 1, 21)[:, None]
        idx = acquire(state, beta=0.0, candidates=cands)
        from gpucb.posterior import posterior_mean_at

        assert idx == int(np.argmax(posterior_mean_at(state, cands)))

    def test_large_beta_explores_far_from_data(self):
        state = fit(SE, 1.0, [[0.0]], [0.0])
        cands = np.linspace(0, 1, 21)[:, None]
        # brute-force acquisition at huge beta picks the max-variance point
        idx = acquire(state, beta=1e8, candidates=cands)
        assert cands[idx, 0] == 1.0

    def test_rejects_empty_candidates(self):
        state = fit(SE, 1.0, np.empty((0, 1)), [])
        with pytest.raises(ValueError):
            acquire(state, 1.0, np.empty((0, 1)))


class TestRunLoop:
    def test_first_step_is_first_candidate(self):
        config = make_config(horizon=1, seeds=(0,))
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        cand = config.candidate_points()
        assert np.array_equal(trace.X[0], cand[0])
        assert trace.inst_regret[0] == trace.f_star - f.on_points(cand[0])[0]

    def test_same_seed_identical_bytes(self):
        config = make_config(horizon=32, seeds=(3,))
        f = config.objective_for_seed(3)
        a = run_gp_ucb(config, f, 3)
        b = run_gp_ucb(config, f, 3)
        assert trace_to_csv(a) == trace_to_csv(b)

    def test_different_seed_differs(self):
        config = make_config(horizon=32)
        f = config.objective_for_seed(0)
        a = run_gp_ucb(config, f, 0)
        b = run_gp_ucb(config, f, 1)
        assert trace_to_csv(a) != trace_to_csv(b)

    def test_matches_reference_posterior_loop(self):
        # the fixed-point-set recursion must select the same points and
        # record the same statistics as the direct posterior implementation,
        # in its first W rows (steps 1-21) and across the refactors that
        # rebuild them from the distinct design after steps 21 and 34
        config = make_config(horizon=48, candidates_count=16, eval_grid_count=16, noise_sigma=0.05)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)

        cand = config.candidate_points()
        state = fit(config.kernel, config.rho, np.empty((0, 1)), [])
        noise = _seed_noise(config, 0)
        from gpucb.posterior import posterior_mean_at, posterior_var_at

        for t in range(config.horizon):
            beta = beta_value(config.beta, t, config.rho)
            idx = acquire(state, beta, cand)
            assert np.array_equal(cand[idx], trace.X[t]), f"selection diverged at step {t + 1}"
            assert posterior_mean_at(state, cand[idx][None])[0] == pytest.approx(
                trace.mu[t], abs=1e-9
            )
            assert math.sqrt(posterior_var_at(state, cand[idx][None])[0]) == pytest.approx(
                trace.sigma[t], abs=1e-9
            )
            y = f.on_points(cand[idx])[0] + noise[t]
            assert y == pytest.approx(trace.y[t], abs=1e-12)
            state = update(state, cand[idx], y)

    @pytest.mark.slow
    def test_refactored_loop_matches_fit_at_the_readme_horizon(self):
        # the README example refactors its rows 37 times, first after step
        # 135; its mu and sigma at step 516, five refactors in, and at the
        # last step must agree with a refit
        config = make_config(horizon=4096, candidates_count=256, eval_grid_count=256, c0=0.39)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        from gpucb.posterior import posterior_mean_at, posterior_var_at

        for step in (516, 4096):
            state = fit(config.kernel, config.rho, trace.X[: step - 1], trace.y[: step - 1])
            x = trace.X[step - 1][None]
            assert posterior_mean_at(state, x)[0] == pytest.approx(trace.mu[step - 1], abs=1e-9)
            assert math.sqrt(posterior_var_at(state, x)[0]) == pytest.approx(trace.sigma[step - 1], abs=1e-9)

    def test_regret_accounting(self):
        config = make_config(horizon=48, seeds=(5,))
        f = config.objective_for_seed(5)
        trace = run_gp_ucb(config, f, 5)
        assert np.all(trace.inst_regret >= 0.0)
        # fixed left-to-right summation is reproducible bit-exactly
        acc = 0.0
        for i in range(trace.horizon):
            acc = acc + trace.inst_regret[i]
            assert trace.cum_regret[i] == acc
        assert np.all(np.diff(trace.cum_regret) >= 0.0)

    def test_noise_free_average_regret_decays(self):
        config = make_config(
            horizon=256, noise_sigma=0.0, candidates_count=64, eval_grid_count=64,
            objective_kind="explicit", centers=((0.5,),), coeffs=(1.0,), m=1, B=1.0,
        )
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        assert trace.inst_regret[-1] <= np.max(trace.inst_regret)
        assert trace.cum_regret[-1] / 256.0 < trace.cum_regret[0]

    @pytest.mark.parametrize("kind", ["normal", "uniform"])
    def test_noise_array_equals_single_draws(self, kind):
        # the loop draws its noise as one array; that must not move a draw
        from gpucb.ucb import _noise

        whole = _noise(kind, 0.3, np.random.default_rng(5), 5000)
        rng = np.random.default_rng(5)
        half_width = 0.3 * math.sqrt(3.0)
        single = [
            rng.normal(0.0, 0.3) if kind == "normal" else rng.uniform(-half_width, half_width)
            for _ in range(5000)
        ]
        assert np.array_equal(whole, single)

    @pytest.mark.parametrize("kind", ["normal", "uniform"])
    def test_zero_noise_observes_f_exactly(self, kind):
        config = make_config(horizon=32, noise_kind=kind, noise_sigma=0.0)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        grid = config.evaluation_points()
        f_played = f.on_points(grid)[grid_columns(grid, trace.X)]
        assert np.array_equal(trace.y.view(np.int64), f_played.view(np.int64))

    def test_uniform_noise_kind_runs(self):
        config = make_config(horizon=16, noise_kind="uniform")
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        assert trace.horizon == 16

    def test_cauchy_schwarz_on_recorded_columns(self):
        config = make_config(horizon=128, seeds=(2,))
        f = config.objective_for_seed(2)
        trace = run_gp_ucb(config, f, 2)
        lhs = float(np.sum(np.sqrt(trace.beta) * trace.sigma))
        rhs = math.sqrt(trace.horizon * trace.beta[-1] * float(np.sum(trace.sigma**2)))
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_flagged_steps_obey_per_step_bound(self):
        # with candidate grid == evaluation grid the incumbent optimum is a
        # candidate, so flagged steps satisfy regret <= 2 sqrt(beta) sd
        config = make_config(horizon=128, c0=2.0, seeds=(7,))
        f = config.objective_for_seed(7)
        trace = run_gp_ucb(config, f, 7)
        flagged = trace.flag
        assert flagged.any()
        bound = 2.0 * np.sqrt(trace.beta) * trace.sigma
        assert np.all(trace.inst_regret[flagged] <= bound[flagged] + 1e-9)

    def test_off_candidate_optimum_flags_as_a_refit_at_x_star(self):
        # a bump centred between two of the 16 candidates puts the optimum on
        # the 61-point evaluation grid only: the loop tracks it as an extra
        # point, and every flag must be the one a refit gives at x_star (at
        # c0 = 0.2, 6 of the 48 steps fail it there)
        grid = make_config(candidates_count=16, eval_grid_count=61).evaluation_points()
        x_star = grid[40]
        config = make_config(
            horizon=48, candidates_count=16, eval_grid_count=61, noise_sigma=0.05, c0=0.2,
            objective_kind="explicit", centers=(tuple(x_star),), coeffs=(1.0,), m=1, B=1.0,
        )
        f = config.objective_for_seed(0)
        f_grid = f.on_points(grid)
        assert int(np.argmax(f_grid)) == 40
        trace = run_gp_ucb(config, f, 0)
        f_played = f_grid[grid_columns(grid, trace.X)]
        from gpucb.posterior import posterior_mean_at, posterior_var_at

        for t in range(trace.horizon):
            state = fit(config.kernel, config.rho, trace.X[:t], trace.y[:t])
            at = np.vstack([x_star, trace.X[t]])
            err = np.abs(np.array([trace.f_star, f_played[t]]) - posterior_mean_at(state, at))
            bound = math.sqrt(trace.beta[t]) * np.sqrt(posterior_var_at(state, at))
            assert trace.flag[t] == bool(np.all(err <= bound)), f"flag differs at step {t + 1}"
        assert 0 < np.count_nonzero(trace.flag) < trace.horizon

    def test_shadow_column_gets_a_store_of_its_own_bit_for_bit(self, monkeypatch, fresh_memo):
        # the optimum lies off the 16 candidates: the run hands its posterior
        # a store of its own, of the candidates against themselves and the
        # optimum, and leaves the held store of the candidates' kernel rows
        # as it was
        grid = make_config(candidates_count=16, eval_grid_count=61).evaluation_points()
        config = make_config(
            horizon=8, candidates_count=16, eval_grid_count=61,
            objective_kind="explicit", centers=(tuple(grid[40]),), coeffs=(1.0,), m=1, B=1.0,
        )
        cand = grid[:16]
        handed = []

        class Recorded(GrowingPosterior):
            def __init__(self, K, rho):
                handed.append(K)
                super().__init__(K, rho)

        monkeypatch.setattr("gpucb.ucb.GrowingPosterior", Recorded)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        assert "kernel" not in fresh_memo
        # a store held from an earlier seed keeps its rows, and is not read
        kept = posterior._held("kernel", (config.kernel, cand), lambda: KernelRows(config.kernel, cand, cand))
        kept.take([0, 5])
        assert trace_to_csv(run_gp_ucb(config, f, 0)) == trace_to_csv(trace)
        assert posterior._held("kernel", (config.kernel, cand), None) is kept
        assert np.flatnonzero(kept._slot >= 0).tolist() == [0, 5]
        K, again = handed
        assert K is not again and kept not in handed
        # the rows the posterior read, those of the points it played, are
        # the rows its store built, once each, and they are the wider
        # block's rows bit for bit, whose leading columns are the
        # candidates' kernel matrix
        played = sorted(set(grid_columns(grid, trace.X).tolist()))
        want = kernel_cross(config.kernel, cand, np.vstack([cand, grid[40]]))
        assert K.shape == (16, 17) and np.flatnonzero(K._slot >= 0).tolist() == played
        read = K.take(played)
        assert np.flatnonzero(K._slot >= 0).tolist() == played
        assert read.view(np.int64).tobytes() == want[played].view(np.int64).tobytes()
        assert want[:, :16].tobytes() == kernel_matrix(config.kernel, cand).tobytes()
        # a row taken is a copy: writing it leaves the rows the store holds
        read[:, -1] = 0.0
        assert K.take(played).tobytes() == want[played].tobytes()
        assert K.take(np.arange(16)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, dim, count, grid_count", [
        ("lattice", 1, 64, 100),
        ("low_discrepancy", 2, 256, 512),
    ])
    def test_candidates_are_the_evaluation_grids_first_rows(self, kind, dim, count, grid_count):
        # the run and the report hand the candidates' kernel rows to the
        # posterior and the audits as the grid's first columns, unchecked
        config = make_config(dim=dim, candidates_method=kind, candidates_count=count, eval_grid_count=grid_count)
        cand, grid = config.candidate_points(), config.evaluation_points()
        assert grid.shape[0] > cand.shape[0]  # the eval lattice adds points
        assert grid[: cand.shape[0]].tobytes() == cand.tobytes()

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan], ids=["-inf", "inf", "nan"])
    def test_non_finite_score_names_the_first_bad_candidate_and_step(self, monkeypatch, bad):
        # a -inf score is never chosen, so only the smallest score shows it;
        # either way the error names the first bad candidate and the step
        class Broken(GrowingPosterior):
            def observe(self, c, y):
                super().observe(c, y)
                if self.t == 3:
                    self.mean[[9, 5]] = bad

        monkeypatch.setattr("gpucb.ucb.GrowingPosterior", Broken)
        config = make_config(horizon=8)
        with pytest.raises(NumericError, match=r"^non-finite acquisition value at candidate 5$") as excinfo:
            run_gp_ucb(config, config.objective_for_seed(0), 0)
        assert (excinfo.value.index, excinfo.value.step) == (5, 4)

    def test_nan_in_the_sum_of_squares_names_the_candidate_and_step(self, monkeypatch):
        # the variance passes a NaN through its clamp, so the score check
        # is what stops it
        class Broken(GrowingPosterior):
            def observe(self, c, y):
                super().observe(c, y)
                if self.t == 3:
                    self._sumsq[[9, 5]] = np.nan

        monkeypatch.setattr("gpucb.ucb.GrowingPosterior", Broken)
        config = make_config(horizon=8)
        with pytest.raises(NumericError, match=r"^non-finite acquisition value at candidate 5$") as excinfo:
            run_gp_ucb(config, config.objective_for_seed(0), 0)
        assert (excinfo.value.index, excinfo.value.step) == (5, 4)

    def test_traces_do_not_depend_on_the_seed_order_or_the_kernel_memo(self, monkeypatch, fresh_memo):
        # Halton candidates: the optimum is off them for seeds 0, 1, 3, 4, 5
        # and 7, whose runs track it as a shadow column, in a store of the
        # seed's own; seeds 2 and 6 share the held store of the candidates'
        # kernel rows, each row built when first played
        config = make_config(dim=2, candidates_method="low_discrepancy", candidates_count=32,
                             eval_grid_count=64, horizon=48, seeds=tuple(range(8)))
        m, grid = config.candidates_count, config.evaluation_points()
        fs = {s: config.objective_for_seed(s) for s in config.seeds}
        off = [s for s, f in fs.items() if int(np.argmax(f.on_points(grid))) >= m]
        on = [s for s in fs if s not in off]
        assert off and on

        def traces(seeds, clear):
            out = {}
            for s in seeds:
                if clear:
                    fresh_memo.clear()
                out[s] = trace_to_csv(run_gp_ucb(config, fs[s], s))
            return out

        fresh_memo.clear()
        built = []
        kernel_cross = gpucb.kernels.kernel_cross
        monkeypatch.setattr(gpucb.kernels, "kernel_cross", lambda spec, X, Y: built.append((X, len(Y))) or kernel_cross(spec, X, Y))
        ordered, own = {}, {}
        for s in config.seeds:
            before = len(built)
            ordered.update(traces([s], False))
            own[s] = built[before:]
        played = {s: set(grid_columns(grid, trace_from_csv(tr, config.kernel, 0.0, 0).X).tolist()) for s, tr in ordered.items()}

        def rows(s):
            return sorted(c for X, _ in own[s] for c in grid_columns(grid, X).tolist())

        # the row of each candidate that the on-candidate seeds play is built
        # once, in the one store they share; each off-candidate seed builds
        # the rows it plays once, in its own
        assert all(n == m for s in on for _, n in own[s]) and all(n == m + 1 for s in off for _, n in own[s])
        assert sorted(sum((rows(s) for s in on), [])) == sorted(set().union(*(played[s] for s in on)))
        assert all(rows(s) == sorted(played[s]) for s in off)
        assert len(set().union(*played.values())) < m
        assert traces(config.seeds[::-1], False) == ordered
        assert traces(config.seeds, True) == ordered

    def test_beta_column_monotone(self):
        config = make_config(horizon=64)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        assert np.all(np.diff(trace.beta) >= 0.0)

    @staticmethod
    def assert_runs_are_prefixes(short, long, **keys):
        """The run at horizon ``short`` is the run at ``long`` cut, bit for bit."""
        a_config, b_config = (make_config(horizon=T, seeds=(4,), **keys) for T in (short, long))
        f = a_config.objective_for_seed(4)
        a, b = run_gp_ucb(a_config, f, 4), run_gp_ucb(b_config, f, 4)
        for field in dataclasses.fields(RegretTrace):
            whole = getattr(b, field.name)
            expected = whole[:short] if isinstance(whole, np.ndarray) else whole
            assert np.array_equal(getattr(a, field.name), expected), field.name

    @pytest.mark.parametrize("noise_kind", ["normal", "uniform"])
    def test_horizon_extension_preserves_prefix(self, noise_kind):
        self.assert_runs_are_prefixes(32, 64, noise_kind=noise_kind)

    @pytest.mark.parametrize("short, long", [(12, 40), (24, 40)], ids=["before_refactor", "after_refactor"])
    def test_prefix_across_a_refactor(self, short, long):
        # 8 candidates: the posterior refactors after steps 15, 25 and 34,
        # so the short run stops before the first refactor or after it
        self.assert_runs_are_prefixes(short, long, candidates_count=8, eval_grid_count=8)

    @staticmethod
    def assert_same_run(a, b):
        for field in dataclasses.fields(RegretTrace):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name

    def test_held_loop_runs_on_and_cuts_bit_for_bit(self):
        # 8 candidates: refactors after steps 15, 25 and 34, so the longer
        # trace is cut between them
        configs = {T: make_config(horizon=T, candidates_count=8, eval_grid_count=8, seeds=(4,)) for T in (8, 12, 24, 40)}
        f = configs[8].objective_for_seed(4)
        longest = run_gp_ucb(configs[40], f, 4)
        for T in (8, 12, 24, 40):
            cut = run_gp_ucb(configs[T], f, 4, longest)
            assert np.shares_memory(cut.X, longest.X)
            self.assert_same_run(cut, run_gp_ucb(configs[T], f, 4))
        # a longer trace shorter than the horizon is not cut: the call runs
        short = run_gp_ucb(configs[12], f, 4)
        again = run_gp_ucb(configs[24], f, 4, short)
        assert not np.shares_memory(again.X, short.X)
        self.assert_same_run(again, run_gp_ucb(configs[24], f, 4))

    def test_traces_and_held_cuts_are_read_only(self):
        # a cut shares memory with the longer trace, so a writable array
        # would let one cell's caller change another's trace
        configs = {T: make_config(horizon=T, seeds=(4,)) for T in (8, 16)}
        f = configs[16].objective_for_seed(4)
        whole = run_gp_ucb(configs[16], f, 4)
        cut = run_gp_ucb(configs[8], f, 4, whole)
        assert np.shares_memory(cut.X, whole.X)
        for trace in (whole, cut):
            arrays = {k: v for k, v in vars(trace).items() if isinstance(v, np.ndarray)}
            assert len(arrays) == 8
            for name, arr in arrays.items():
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[0] = arr[-1]


class TestEdpRecommend:
    def test_single_step_trace(self):
        config = make_config(horizon=1)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        assert np.array_equal(edp_recommend(trace, seed=0), trace.X[0])

    def test_uniform_over_plays(self):
        config = make_config(horizon=4)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        draws = 100_000
        rows = {tuple(trace.X[i]): i for i in range(4)}
        counts = np.zeros(4)
        for s in range(draws):
            counts[rows[tuple(edp_recommend(trace, seed=s))]] += 1
        expected = draws / 4.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.99, df=3)

    def test_mean_simple_regret_matches_average_cumulative(self):
        config = make_config(horizon=64, seeds=(6,))
        f = config.objective_for_seed(6)
        trace = run_gp_ucb(config, f, 6)
        draws = 20_000
        regrets = np.array(
            [trace.f_star - f.on_points(edp_recommend(trace, seed=s))[0] for s in range(draws)]
        )
        target = trace.cum_regret[-1] / trace.horizon
        mc_err = float(np.std(trace.inst_regret)) / math.sqrt(draws)
        assert abs(float(np.mean(regrets)) - target) <= 3.0 * mc_err + 1e-12


def _edit_columns(text, edit):
    """The trace text with ``edit`` applied to its columns, each a tuple
    of the column's name and then its fields."""
    columns = list(zip(*(line.split(",") for line in text.splitlines())))
    return "\n".join(",".join(row) for row in zip(*edit(columns))) + "\n"


class TestTraceSerialization:
    def test_round_trip_bit_exact(self):
        for dim, count in ((1, 25), (2, 25), (3, 27)):
            config = make_config(horizon=20, dim=dim, candidates_count=count, eval_grid_count=count)
            f = config.objective_for_seed(0)
            trace = run_gp_ucb(config, f, 0)
            text = trace_to_csv(trace)
            back = trace_from_csv(text, trace.spec, trace.f_star, trace.seed)
            # the record holds the file's columns plus what the reader
            # supplies, so every field comes back
            for field in dataclasses.fields(RegretTrace):
                assert np.array_equal(getattr(back, field.name), getattr(trace, field.name)), (dim, field.name)
            assert trace_to_csv(back) == text

    @pytest.mark.parametrize("edit", [
        lambda c: [c[0], c[2], c[1], *c[3:]],
        lambda c: [*c[:5], c[6], c[5], *c[7:]],
        lambda c: [*c[:7], *c[8:]],
        lambda c: [*c, ("regret_ratio", *c[7][1:])],
        lambda c: [c[0], ("x_0", *c[1][1:]), ("x_1", *c[2][1:]), *c[3:]],
    ], ids=["x_1_x_2_swapped", "sigma_mu_swapped", "inst_regret_dropped", "column_added", "x_0_x_1"])
    def test_header_other_than_the_writers_is_rejected(self, edit):
        # a 2-d trace: t, x_1, x_2, y, beta, sigma, mu, inst_regret, ...
        config = make_config(horizon=6, dim=2, candidates_count=25, eval_grid_count=25)
        trace = run_gp_ucb(config, config.objective_for_seed(0), 0)
        text = _edit_columns(trace_to_csv(trace), edit)
        header = text.split("\n", 1)[0]
        want = f"trace header {header!r} is not t, x_1..x_d, y, beta, sigma, mu, inst_regret, cum_regret, flag"
        with pytest.raises(ValueError) as info:
            trace_from_csv(text, trace.spec, trace.f_star, trace.seed)
        assert str(info.value) == want

    @pytest.mark.parametrize("line", [2, 5, 8])
    def test_blank_line_is_a_ragged_row_at_its_own_line(self, line):
        # lines 2, 5 and 8 of a 6-row trace: the top, the middle and the end
        # of its body
        config = make_config(horizon=6)
        trace = run_gp_ucb(config, config.objective_for_seed(0), 0)
        lines = trace_to_csv(trace).splitlines()
        lines.insert(line - 1, "")
        with pytest.raises(ValueError) as info:
            trace_from_csv("\n".join(lines) + "\n", trace.spec, trace.f_star, trace.seed)
        assert str(info.value) == f"ragged row at line {line}: 1 fields, header has 9"

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_per_value_formatting(self, dim):
        # reference writer: every value through format(v, ".17g"), row by row;
        # the longer horizon spans three of the writer's row blocks, the last
        # one row long
        for horizon in (40, 2 * _WRITE_ROWS + 1):
            config = make_config(horizon=horizon, dim=dim, candidates_count=25, eval_grid_count=25)
            tr = run_gp_ucb(config, config.objective_for_seed(1), 1)
            lines = [trace_to_csv(tr).splitlines()[0]]
            for i in range(tr.horizon):
                values = [*tr.X[i], tr.y[i], tr.beta[i], tr.sigma[i], tr.mu[i], tr.inst_regret[i], tr.cum_regret[i]]
                lines.append(",".join([str(i + 1)] + [format(v, ".17g") for v in values] + [str(int(tr.flag[i]))]))
            text = trace_to_csv(tr)
            assert text == "\n".join(lines) + "\n"
            back = trace_from_csv(text, tr.spec, tr.f_star, tr.seed)
            for field in dataclasses.fields(RegretTrace):
                assert np.array_equal(getattr(back, field.name), getattr(tr, field.name)), (horizon, field.name)

    def test_extreme_values_round_trip_bit_for_bit(self):
        # signed zeros, the smallest subnormal, the smallest normal, the
        # largest double and values whose shortest form needs 17 digits
        seventeen = [0.1 + 0.2, math.nextafter(2.0, 0.0), -math.nextafter(1.0, 2.0), math.nextafter(1e300, math.inf)]
        assert all(float(format(v, ".16g")) != v for v in seventeen)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
        values = np.array(special + seventeen)
        T = values.size
        cols = [np.roll(values, k) for k in range(8)]
        trace = RegretTrace(
            X=np.column_stack(cols[:2]), y=cols[2], beta=cols[3], sigma=cols[4], mu=cols[5],
            inst_regret=cols[6], cum_regret=cols[7], flag=np.arange(T) % 2 == 1,
            f_star=1.0, seed=0, spec=SE,
        )
        text = trace_to_csv(trace)
        back = trace_from_csv(text, trace.spec, trace.f_star, trace.seed)
        for field in dataclasses.fields(RegretTrace):
            want, got = getattr(trace, field.name), getattr(back, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape, field.name
                assert got.tobytes() == want.tobytes(), field.name
        # each value read is float() of its field, bit for bit
        read = np.column_stack([back.X, back.y, back.beta, back.sigma, back.mu, back.inst_regret, back.cum_regret])
        fields = np.array([[float(v) for v in line.split(",")[1:-1]] for line in text.splitlines()[1:]])
        assert read.tobytes() == fields.tobytes()

    def test_parse_peaks_below_four_times_the_text(self):
        # one parse of a 4096-row README-config trace holds no Python object
        # per value; a parse that split the body into field strings and
        # per-column lists peaked at 6.6 times the text
        config = make_config(horizon=4096, candidates_count=256, eval_grid_count=256, c0=0.39)
        trace = run_gp_ucb(config, config.objective_for_seed(0), 0)
        text = trace_to_csv(trace)
        tracemalloc.start()
        try:
            trace_from_csv(text, trace.spec, trace.f_star, trace.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text), peak / len(text)

    def test_header_names_dimension(self):
        config = make_config(horizon=2, dim=2, candidates_count=25, eval_grid_count=25)
        f = config.objective_for_seed(0)
        text = trace_to_csv(run_gp_ucb(config, f, 0))
        header = text.splitlines()[0]
        assert header == "t,x_1,x_2,y,beta,sigma,mu,inst_regret,cum_regret,flag"
