"""Exploration schedules, acquisition, the sampling loop, and recommendations."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2

from gpucb import (
    BetaKind,
    BetaSchedule,
    KernelFamily,
    KernelSpec,
    RegretTrace,
    acquire,
    beta_value,
    edp_recommend,
    fit,
    run_gp_ucb,
    trace_from_csv,
    trace_to_csv,
    update,
)
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


class TestAcquire:
    def test_empty_state_ties_to_first(self):
        state = fit(SE, 1.0, np.empty((0, 1)), [])
        cands = np.linspace(0, 1, 9)[:, None]
        assert acquire(state, beta=2.0, candidates=cands) == 0

    def test_zero_beta_is_pure_exploitation(self):
        state = fit(SE, 1.0, [[0.2], [0.8]], [-1.0, 3.0])
        cands = np.linspace(0, 1, 21)[:, None]
        idx = acquire(state, beta=0.0, candidates=cands)
        from gpucb import posterior_mean_at

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
        assert trace.inst_regret[0] == trace.f_star - f(cand[0])

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
        # the O(T^2 m) recursion must select the same points and record the
        # same statistics as the direct posterior implementation
        config = make_config(horizon=24, candidates_count=16, eval_grid_count=16, noise_sigma=0.05)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)

        cand = config.candidate_points()
        state = fit(config.kernel, config.rho, np.empty((0, 1)), [])
        rng = np.random.default_rng(0 + 1)
        from gpucb import posterior_mean_at, posterior_var_at

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
            y = f(cand[idx]) + rng.normal(0.0, config.noise_sigma)
            assert y == pytest.approx(trace.y[t], abs=1e-12)
            state = update(state, cand[idx], y)

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

    def test_beta_column_monotone(self):
        config = make_config(horizon=64)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        assert np.all(np.diff(trace.beta) >= 0.0)

    def test_horizon_extension_preserves_prefix(self):
        short = make_config(horizon=32, seeds=(4,))
        long = make_config(horizon=64, seeds=(4,))
        f = short.objective_for_seed(4)
        a = run_gp_ucb(short, f, 4)
        b = run_gp_ucb(long, f, 4)
        assert np.array_equal(a.X, b.X[:32])
        assert np.array_equal(a.y, b.y[:32])


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
            [trace.f_star - f(edp_recommend(trace, seed=s)) for s in range(draws)]
        )
        target = trace.cum_regret[-1] / trace.horizon
        mc_err = float(np.std(trace.inst_regret)) / math.sqrt(draws)
        assert abs(float(np.mean(regrets)) - target) <= 3.0 * mc_err + 1e-12


class TestTraceSerialization:
    def test_round_trip_bit_exact(self):
        config = make_config(horizon=20, dim=2, candidates_count=25, eval_grid_count=25)
        f = config.objective_for_seed(0)
        trace = run_gp_ucb(config, f, 0)
        text = trace_to_csv(trace)
        back = trace_from_csv(text, trace.spec, trace.f_star, trace.seed)
        # the record holds the file's columns plus what the reader supplies,
        # so every field comes back
        for field in dataclasses.fields(RegretTrace):
            assert np.array_equal(getattr(back, field.name), getattr(trace, field.name)), field.name
        assert trace_to_csv(back) == text

    def test_header_names_dimension(self):
        config = make_config(horizon=2, dim=2, candidates_count=25, eval_grid_count=25)
        f = config.objective_for_seed(0)
        text = trace_to_csv(run_gp_ucb(config, f, 0))
        header = text.splitlines()[0]
        assert header == "t,x_1,x_2,y,beta,sigma,mu,inst_regret,cum_regret,flag"
