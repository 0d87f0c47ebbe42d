"""Information gain, error audits, regret-bound checks, and rate fits."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from gpucb import (
    KernelFamily,
    KernelSpec,
    NumericError,
    calibrate_c0,
    fit,
    fit_regret_exponent,
    greedy_info_gain,
    kernel_cross,
    kernel_matrix,
    logdet_information,
    make_rkhs_function,
    prefix_bound_audit,
    rate_reference,
    regret_bound_check,
    run_gp_ucb,
    sample_random_rkhs,
    states_at_checkpoints,
    uniform_bound_audit,
)
from gpucb.analysis import grid_columns, loglog_slope
from gpucb.rkhs import Box
from gpucb.ucb import RegretTrace
from conftest import make_config

SE = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale=1.0)
MATERN_32 = KernelSpec(KernelFamily.MATERN, nu=1.5, lengthscale=0.5)


def synthetic_trace(cum_regret: np.ndarray, spec=SE) -> RegretTrace:
    """Trace carrying a prescribed cumulative-regret column."""
    T = len(cum_regret)
    inst = np.diff(np.concatenate([[0.0], cum_regret]))
    zeros = np.zeros(T)
    return RegretTrace(
        X=np.zeros((T, 1)), y=zeros, beta=np.ones(T), sigma=np.ones(T), mu=zeros,
        inst_regret=inst, cum_regret=np.asarray(cum_regret, dtype=float),
        flag=np.ones(T, dtype=bool), f_star=0.0, seed=0, spec=spec,
    )


def audit_inputs(config, f):
    """The objective's values over the evaluation grid and the candidates'
    kernel rows against it, as ``prefix_bound_audit`` takes them."""
    grid = config.evaluation_points()
    return f.on_points(grid), kernel_cross(config.kernel, config.candidate_points(), grid)


class TestRateReference:
    def test_matern_32_d1(self):
        ref = rate_reference(KernelFamily.MATERN, 1.5, 1)
        assert ref.cum_exponent == pytest.approx(0.625)
        assert ref.gamma_exponent == pytest.approx(0.25)

    def test_matern_52_d1(self):
        ref = rate_reference(KernelFamily.MATERN, 2.5, 1)
        assert ref.cum_exponent == pytest.approx(3.5 / 6.0)

    def test_smooth_limit_approaches_se_rate(self):
        ref = rate_reference(KernelFamily.MATERN, 1e9, 2)
        assert ref.cum_exponent == pytest.approx(0.5, abs=1e-8)
        se = rate_reference(KernelFamily.SQUARED_EXPONENTIAL, None, 2)
        assert se.cum_exponent == 0.5
        assert se.gamma_exponent == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rate_reference(KernelFamily.MATERN, None, 1)
        with pytest.raises(ValueError):
            rate_reference(KernelFamily.SQUARED_EXPONENTIAL, None, 0)


class TestGreedyInfoGain:
    def test_first_value(self):
        cands = np.linspace(0, 1, 8)[:, None]
        for rho in (0.5, 1.0):
            series = greedy_info_gain(SE, rho, cands, T=1)
            assert series[0] == pytest.approx(0.5 * math.log1p(1.0 / rho), rel=1e-12)

    def test_nondecreasing_and_floor(self):
        cands = np.linspace(0, 1, 32)[:, None]
        series = greedy_info_gain(MATERN_32, 1.0, cands, T=32)
        assert np.all(np.diff(series) >= -1e-15)
        assert np.all(series >= 0.5 * math.log1p(1.0) - 1e-12)

    def test_bounded_by_exhaustive_maximum(self):
        # 6 well-separated candidates, T = 3: enumerate all 20 subsets
        cands = np.linspace(0, 1, 6)[:, None]
        rho = 1.0
        series = greedy_info_gain(MATERN_32, rho, cands, T=3)
        best = -np.inf
        for subset in itertools.combinations(range(6), 3):
            K = kernel_matrix(MATERN_32, cands[list(subset)])
            sign, logdet = np.linalg.slogdet(np.eye(3) + K / rho)
            assert sign > 0
            best = max(best, 0.5 * logdet)
        assert series[2] <= best + 1e-12

    def test_chain_identity_against_dense_logdet(self):
        # greedy's accumulated value equals the dense half log-determinant of
        # its own chosen set
        cands = np.linspace(0, 1, 16)[:, None]
        rho = 0.7
        T = 10
        series = greedy_info_gain(SE, rho, cands, T=T)
        # replay the greedy selection to recover the chosen subset
        from gpucb import posterior_var_at, update

        state = fit(SE, rho, np.empty((0, 1)), [])
        chosen = []
        for _ in range(T):
            var = posterior_var_at(state, cands)
            c = int(np.argmax(var))
            chosen.append(c)
            state = update(state, cands[c], 0.0)
        K = kernel_matrix(SE, cands[chosen])
        _, logdet = np.linalg.slogdet(np.eye(T) + K / rho)
        assert series[-1] == pytest.approx(0.5 * logdet, rel=1e-10)

    def test_shared_block_matches_a_fresh_build_bit_for_bit(self, monkeypatch):
        # nu = 1.2 takes the general-order K_nu path; the 48 Halton candidates
        # are the first rows of a grid that adds a lattice
        import gpucb.posterior
        from gpucb.config import halton_points, lattice_points

        spec = KernelSpec(KernelFamily.MATERN, nu=1.2, lengthscale=0.5)
        box = Box((0.0, 0.0), (1.0, 1.0))
        cands = halton_points(box, 48)
        grid = np.vstack([cands, lattice_points(box, 36)])
        monkeypatch.setattr(gpucb.posterior, "_KERNELS", {})
        fresh = greedy_info_gain(spec, 0.5, cands, T=40)
        monkeypatch.setattr(gpucb.posterior, "_KERNELS", {})
        block = gpucb.posterior._points_kernel(spec, cands, grid)
        built = []
        monkeypatch.setattr(gpucb.posterior, "kernel_matrix", lambda *a: built.append(a) or kernel_matrix(*a))
        shared = greedy_info_gain(spec, 0.5, cands, T=40)
        (kept,) = gpucb.posterior._KERNELS.values()
        assert built == [] and kept is block
        assert block.shape == (48, 84) and shared.tobytes() == fresh.tobytes()
        # the candidates' own columns come from kernel_matrix, the rest from kernel_cross
        assert block.tobytes() == kernel_cross(spec, cands, grid).tobytes()

    def test_se_polylog_ratio_bounded(self):
        cands = np.linspace(0, 1, 160)[:, None]
        series = greedy_info_gain(SE, 1.0, cands, T=128)
        r64 = series[63] / math.log1p(64.0) ** 2
        r128 = series[127] / math.log1p(128.0) ** 2
        assert r128 <= 1.1 * r64

    def test_requires_enough_candidates(self):
        with pytest.raises(ValueError):
            greedy_info_gain(SE, 1.0, np.zeros((3, 1)), T=4)


class TestLoglogSlope:
    def test_exact_power_law(self):
        # logged values: ln(e * t^2) at t = 1, e, e^2, e^3; every step is exact
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert loglog_slope(x, 2.0 * x + 1.0) == (2.0, 0.0)

    def test_two_points_have_no_stderr(self):
        assert loglog_slope(np.array([0.0, 2.0]), np.array([1.0, 0.0])) == (-0.5, 0.0)

    def test_noisy_fit_matches_polyfit(self):
        rng = np.random.default_rng(3)
        x = np.log(np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0]))
        y = 0.6 * x - 1.0 + rng.normal(0.0, 0.05, 6)
        coef, cov = np.polyfit(x, y, 1, cov=True)
        slope, stderr = loglog_slope(x, y)
        assert slope == pytest.approx(coef[0], rel=1e-12)
        assert stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
        assert stderr > 0.0


class TestFitRegretExponent:
    def test_exact_power_law(self):
        t = np.arange(1, 1025, dtype=float)
        traces = [synthetic_trace(t**0.7) for _ in range(5)]
        res = fit_regret_exponent(traces, 64, 1024)
        assert res.slope == pytest.approx(0.7, abs=1e-9)
        assert res.stderr == pytest.approx(0.0, abs=1e-9)

    def test_sqrt_t_log_t(self):
        t = np.arange(1, 4097, dtype=float)
        traces = [synthetic_trace(np.sqrt(t) * np.log(t)) for _ in range(5)]
        res = fit_regret_exponent(traces, 256, 4096)
        assert 0.5 < res.slope < 0.65

    def test_constant_regret(self):
        t = np.arange(1, 513, dtype=float)
        traces = [synthetic_trace(np.full_like(t, 3.0)) for _ in range(5)]
        res = fit_regret_exponent(traces, 32, 512)
        assert abs(res.slope) < 1e-9

    def test_nonpositive_checkpoints_excluded(self):
        t = np.arange(1, 513, dtype=float)
        curve = t**0.6
        curve[:40] = 0.0  # zero regret early on
        traces = [synthetic_trace(curve) for _ in range(5)]
        res = fit_regret_exponent(traces, 32, 512)
        assert 32 in res.excluded
        assert res.slope == pytest.approx(0.6, abs=1e-6)

    def test_preconditions(self):
        t = np.arange(1, 513, dtype=float)
        traces = [synthetic_trace(t**0.5) for _ in range(5)]
        with pytest.raises(ValueError):
            fit_regret_exponent(traces[:3], 32, 512)
        with pytest.raises(ValueError):
            fit_regret_exponent(traces, 200, 512)
        with pytest.raises(ValueError):
            fit_regret_exponent(traces, 32, 4096)


class TestUniformBoundAudit:
    def test_prior_state_ratio_is_sup_f(self):
        box = Box((0.0,), (1.0,))
        f = sample_random_rkhs(SE, m=10, B=2.0, domain=box, seed=1)
        grid = np.linspace(0, 1, 200)[:, None]
        empty = fit(SE, 1.0, np.empty((0, 1)), [])
        audit = uniform_bound_audit(f, [empty], grid)
        sup = float(np.max(np.abs(f.on_points(grid))))
        assert audit.t == (0,)
        assert (audit.ratio, audit.bias_ratio, audit.random_ratio) == ((sup,), (sup,), (0.0,))
        assert audit.ratio[0] <= f.norm + 1e-9

    def test_noiseless_bias_ratio_bounded_by_norm(self):
        config = make_config(horizon=64, noise_sigma=0.0, seeds=(2,))
        f = config.objective_for_seed(2)
        trace = run_gp_ucb(config, f, 2)
        states = states_at_checkpoints(trace, config.rho, [8, 16, 32, 64])
        grid = config.evaluation_points()
        audit = uniform_bound_audit(f, states, grid)
        assert audit.t == (8, 16, 32, 64)
        assert all(r <= f.norm * (1 + 1e-6) for r in audit.bias_ratio)
        # noiseless run: recorded and replayed observations coincide
        assert all(r <= 1e-9 for r in audit.random_ratio)

    def test_components_decompose(self):
        config = make_config(horizon=32, noise_sigma=0.2, seeds=(3,))
        f = config.objective_for_seed(3)
        trace = run_gp_ucb(config, f, 3)
        states = states_at_checkpoints(trace, config.rho, [32])
        audit = uniform_bound_audit(f, states, config.evaluation_points())
        # triangle inequality between the pieces
        assert audit.ratio[0] <= audit.bias_ratio[0] + audit.random_ratio[0] + 1e-12

    @staticmethod
    def assert_prefix_audit_matches_refits(config, checkpoints):
        f = config.objective_for_seed(5)
        trace = run_gp_ucb(config, f, 5)
        grid = config.evaluation_points()
        slow = uniform_bound_audit(f, states_at_checkpoints(trace, config.rho, checkpoints), grid)
        fast = prefix_bound_audit(*audit_inputs(config, f), trace, config.rho, grid, checkpoints)
        assert fast.t == slow.t
        assert np.allclose(fast.ratio, slow.ratio, rtol=1e-8)
        assert np.allclose(fast.bias_ratio, slow.bias_ratio, rtol=1e-8)
        assert np.allclose(fast.random_ratio, slow.random_ratio, rtol=1e-6, atol=1e-10)

    def test_prefix_audit_matches_refits(self):
        config = make_config(horizon=96, noise_sigma=0.15, seeds=(5,))
        self.assert_prefix_audit_matches_refits(config, [8, 24, 96])

    def test_prefix_audit_matches_refits_with_repeated_points(self):
        # a 16-point grid and 64 steps: every checkpoint's design repeats
        # points (6 distinct at t = 8, 14 from t = 32), and the run's own
        # posterior refactors after steps 29, 44 and 59
        config = make_config(horizon=64, noise_sigma=0.15, candidates_count=16, eval_grid_count=16, seeds=(5,))
        assert config.evaluation_points().shape[0] == 16
        self.assert_prefix_audit_matches_refits(config, [8, 24, 32, 33, 40, 64])

    def test_prefix_audit_matches_refits_under_heavy_replication(self):
        # 4 grid points and 200 steps: the distinct design is complete by
        # t = 8, after which each checkpoint fits 4 points standing for
        # dozens of observations each
        config = make_config(horizon=200, noise_sigma=0.15, candidates_count=4, eval_grid_count=4, seeds=(5,))
        f = config.objective_for_seed(5)
        trace = run_gp_ucb(config, f, 5)
        grid = config.evaluation_points()
        checkpoints = [8, 50, 100, 200]
        cols = grid_columns(grid, trace.X)
        assert all(np.unique(cols[:t]).size == 4 for t in checkpoints)
        assert np.bincount(cols).min() >= 24
        slow = uniform_bound_audit(f, states_at_checkpoints(trace, config.rho, checkpoints), grid)
        fast = prefix_bound_audit(*audit_inputs(config, f), trace, config.rho, grid, checkpoints)
        assert fast.t == slow.t
        for a, b in [(fast.ratio, slow.ratio), (fast.bias_ratio, slow.bias_ratio),
                     (fast.random_ratio, slow.random_ratio)]:
            assert np.allclose(a, b, rtol=1e-9, atol=0), (a, b)

    def test_reference_matches_textbook_formulas(self, monkeypatch):
        # a 16-point grid and 48 steps, so each state's design repeats points
        config = make_config(horizon=48, noise_sigma=0.15, candidates_count=16, eval_grid_count=16, seeds=(5,))
        f = config.objective_for_seed(5)
        trace = run_gp_ucb(config, f, 5)
        grid = config.evaluation_points()
        states = states_at_checkpoints(trace, config.rho, [8, 24, 48])
        assert all(np.unique(s.X, axis=0).shape[0] < s.t for s in states)
        f_grid = f.on_points(grid)
        expected = []
        for s in states:
            A = kernel_matrix(config.kernel, s.X) + config.rho * np.eye(s.t)
            k = kernel_cross(config.kernel, s.X, grid)
            mean = k.T @ np.linalg.solve(A, s.y)
            mean_exact = k.T @ np.linalg.solve(A, f.on_points(s.X))
            sd = np.sqrt(1.0 - np.diag(k.T @ np.linalg.solve(A, k)))
            expected.append([np.max(np.abs(d) / sd) for d in (f_grid - mean, f_grid - mean_exact, mean - mean_exact)])

        def unreachable(*args, **kwargs):
            raise AssertionError("the reference shares a step with the distinct-design fit")

        import gpucb.analysis
        import gpucb.posterior

        monkeypatch.setattr(gpucb.posterior, "_design_fit", unreachable)
        monkeypatch.setattr(gpucb.analysis, "_design_fit", unreachable)
        monkeypatch.setattr(gpucb.posterior, "_lower_product", unreachable)
        audit = uniform_bound_audit(f, states, grid)
        assert audit.t == (8, 24, 48)
        np.testing.assert_allclose(
            np.array([audit.ratio, audit.bias_ratio, audit.random_ratio]), np.array(expected).T, rtol=1e-9, atol=0
        )

    def test_ratio_at_a_zero_sd(self):
        # at rho = 1e-20, 1 + rho rounds to 1, so the variance at the design
        # point is exactly 0: its ratio is 0 where the error is 0, infinite
        # elsewhere, with no numpy warning (filterwarnings = error)
        f = make_rkhs_function(SE, [[0.5]], [1.0])
        on_f, off_f = (fit(SE, 1e-20, [[0.5]], [y]) for y in (1.0, 1.5))
        audit = uniform_bound_audit(f, [on_f, off_f], [[0.5]])
        assert audit.ratio == (0.0, math.inf)
        assert audit.bias_ratio == (0.0, 0.0)
        assert audit.random_ratio == (0.0, math.inf)

    def test_broken_factor_raises_instead_of_clamping(self):
        # a halved factor doubles L^-1 k, so 1 - |L^-1 k|^2 goes well below 0
        config = make_config(horizon=32, seeds=(3,))
        f = config.objective_for_seed(3)
        trace = run_gp_ucb(config, f, 3)
        state = states_at_checkpoints(trace, config.rho, [32])[0]
        broken = dataclasses.replace(state, chol=0.5 * state.chol)
        with pytest.raises(NumericError, match="negative posterior variance"):
            uniform_bound_audit(f, [broken], config.evaluation_points())

    def test_grid_columns(self):
        grid = np.array([[0.0, 0.5], [0.5, 0.5], [1.0, 0.0]])
        X = np.array([[1.0, 0.0], [0.0, 0.5], [1.0, 0.0]])
        assert grid_columns(grid, X).tolist() == [2, 0, 2]
        with pytest.raises(ValueError, match=r"design point \[0.5, 0.0\] is not on the grid"):
            grid_columns(grid, np.array([[0.0, 0.5], [0.5, 0.0]]), "on the grid")

    def test_prefix_audit_rejects_design_off_grid(self):
        config = make_config(horizon=16, seeds=(1,))
        f = config.objective_for_seed(1)
        trace = run_gp_ucb(config, f, 1)
        grid = config.evaluation_points()
        off_grid = trace.X.copy()
        off_grid[3] += 1e-3
        moved = RegretTrace(**{**trace.__dict__, "X": off_grid})
        with pytest.raises(ValueError, match="not in the audit grid"):
            prefix_bound_audit(*audit_inputs(config, f), moved, config.rho, grid, [8, 16])


class TestRegretBoundCheck:
    def test_single_step_scalar_arithmetic(self):
        config = make_config(horizon=1, c0=3.0, B=1.0, seeds=(4,))
        f = config.objective_for_seed(4)
        trace = run_gp_ucb(config, f, 4)
        res = regret_bound_check(trace, config.rho)
        c2 = math.sqrt(8.0 / math.log(2.0))
        info = 0.5 * math.log(2.0)
        assert res.rhs == pytest.approx(c2 * math.sqrt(trace.beta[0] * info), rel=1e-12)
        if res.applicable:
            assert res.lhs <= 2.0 * math.sqrt(trace.beta[0]) + 1e-12
            assert res.holds

    def test_rhs_matches_refit_information(self):
        config = make_config(horizon=96, c0=2.0, seeds=(2,))
        f = config.objective_for_seed(2)
        trace = run_gp_ucb(config, f, 2)
        info = logdet_information(fit(trace.spec, config.rho, trace.X, trace.y))
        c2 = math.sqrt(8.0 / math.log1p(1.0 / config.rho))
        expected = c2 * math.sqrt(trace.horizon * trace.beta[-1] * info)
        assert regret_bound_check(trace, config.rho).rhs == pytest.approx(expected, rel=1e-10)

    def test_unflagged_trace_not_applicable(self):
        cum = np.linspace(1.0, 10.0, 8)
        trace = synthetic_trace(cum)
        trace = RegretTrace(
            **{**trace.__dict__, "flag": np.zeros(8, dtype=bool)}
        )
        res = regret_bound_check(trace, 1.0)
        assert not res.applicable
        assert res.holds

    def test_flagged_suite_mostly_holds(self):
        held = total = 0
        for seed in range(6):
            config = make_config(horizon=128, c0=2.0, seeds=(seed,))
            f = config.objective_for_seed(seed)
            trace = run_gp_ucb(config, f, seed)
            res = regret_bound_check(trace, config.rho)
            if res.applicable:
                total += 1
                held += int(res.holds)
        if total:
            assert held == total

    def test_grid_gap_relaxes_bound(self):
        trace = synthetic_trace(np.linspace(1.0, 10.0, 8), spec=SE)
        tight = regret_bound_check(trace, 1.0, grid_gap=0.0)
        loose = regret_bound_check(trace, 1.0, grid_gap=5.0)
        assert loose.rhs == pytest.approx(tight.rhs + 8 * 5.0, rel=1e-12)


class TestCalibrateC0:
    def test_quantile_of_normalized_ratios(self):
        config = make_config(horizon=64, seeds=(0, 1, 2))
        audits = []
        for seed in (0, 1, 2):
            f = config.objective_for_seed(seed)
            trace = run_gp_ucb(config, f, seed)
            states = states_at_checkpoints(trace, config.rho, [8, 16, 32, 64])
            audits.append(uniform_bound_audit(f, states, config.evaluation_points()))
        c0 = calibrate_c0(audits, rho=config.rho, delta=0.1)
        assert c0 > 0.0
        # at the calibrated c0 most normalized ratios sit below c0
        normalized = []
        for audit in audits:
            for t, r in zip(audit.t, audit.ratio):
                scale = math.sqrt(
                    math.log(1 + config.rho * t)
                    * math.log(math.e + (6 / math.pi**2) * t**2 / 0.1)
                )
                normalized.append(r / scale)
        assert sum(1 for v in normalized if v <= c0 + 1e-12) >= 0.9 * len(normalized)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_c0([], rho=1.0, delta=0.1)
