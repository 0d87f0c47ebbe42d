"""Information gain, error audits, regret-bound checks, and rate fits."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from gpucb.analysis import (
    AuditSeries,
    ExponentFit,
    _bias_row,
    _conditional_row,
    _exponent_row,
    _flagged_from,
    _growth_row,
    calibrate_c0,
    fit_regret_exponent,
    greedy_info_gain,
    grid_columns,
    information_gain_row,
    loglog_slope,
    prefix_bound_audit,
    rate_reference,
    regret_bound_check,
    states_at_checkpoints,
    uniform_bound_audit,
)
from gpucb.config import Box, KernelFamily, KernelSpec, NumericError
from gpucb.kernels import KernelRows, kernel_cross, kernel_matrix
from gpucb.posterior import fit, logdet_information
from gpucb.rkhs import make_rkhs_function, sample_random_rkhs
from gpucb.ucb import RegretTrace, run_gp_ucb
from conftest import grade_traces, make_config

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


def audit_inputs(config, f, trace):
    """The objective's values over the evaluation grid, the candidates'
    kernel rows against it, the grid rows the trace played and its
    observations, as ``prefix_bound_audit`` takes them."""
    grid = config.evaluation_points()
    K = kernel_cross(config.kernel, config.candidate_points(), grid)
    return f.on_points(grid), K, grid_columns(grid, trace.X), trace.y


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
            series = greedy_info_gain(kernel_matrix(SE, cands), rho, T=1)
            assert series[0] == pytest.approx(0.5 * math.log1p(1.0 / rho), rel=1e-12)

    def test_nondecreasing_and_floor(self):
        cands = np.linspace(0, 1, 32)[:, None]
        series = greedy_info_gain(kernel_matrix(MATERN_32, cands), 1.0, T=32)
        assert np.all(np.diff(series) >= -1e-15)
        assert np.all(series >= 0.5 * math.log1p(1.0) - 1e-12)

    def test_bounded_by_exhaustive_maximum(self):
        # 6 well-separated candidates, T = 3: enumerate all 20 subsets
        cands = np.linspace(0, 1, 6)[:, None]
        rho = 1.0
        series = greedy_info_gain(kernel_matrix(MATERN_32, cands), rho, T=3)
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
        series = greedy_info_gain(kernel_matrix(SE, cands), rho, T=T)
        # replay the greedy selection to recover the chosen subset
        from gpucb.posterior import posterior_var_at
        from reference import update

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

    @pytest.mark.parametrize("nu", [1.2, 1.5, 2.5])
    def test_report_block_gives_the_series_of_a_fresh_build_bit_for_bit(self, monkeypatch, nu):
        # the 48 Halton candidates are the first rows of a grid that adds a
        # lattice: the series over the report's candidates x grid block,
        # which picks among its first 48 columns alone, is the series of the
        # candidates' own kernel matrix; nu = 1.2 takes the general-order
        # K_nu path, whose store is built whole, so the gain builds no kernel
        import gpucb.kernels
        import gpucb.posterior
        from gpucb.config import halton_points, lattice_points

        spec = KernelSpec(KernelFamily.MATERN, nu=nu, lengthscale=0.5)
        box = Box((0.0, 0.0), (1.0, 1.0))
        cands = halton_points(box, 48)
        grid = np.vstack([cands, lattice_points(box, 36)])
        fresh = greedy_info_gain(kernel_matrix(spec, cands), 0.5, T=40)
        block = kernel_cross(spec, cands, grid)
        store = KernelRows(spec, cands, grid)

        def unreachable(*args):
            raise AssertionError("the information gain built a kernel")

        if nu == 1.2:
            for name in ("kernel_matrix", "kernel_cross"):
                monkeypatch.setattr(gpucb.posterior, name, unreachable)
                monkeypatch.setattr(gpucb.kernels, name, unreachable)
        assert block.shape == (48, 84)
        assert greedy_info_gain(block[:, :48], 0.5, T=40).tobytes() == fresh.tobytes()
        assert greedy_info_gain(block, 0.5, T=40).tobytes() == fresh.tobytes()
        assert greedy_info_gain(store, 0.5, T=40).tobytes() == fresh.tobytes()
        # the candidates' own columns are their kernel matrix bit for bit
        assert block[:, :48].tobytes() == kernel_matrix(spec, cands).tobytes()

    def test_se_polylog_ratio_bounded(self):
        cands = np.linspace(0, 1, 160)[:, None]
        series = greedy_info_gain(kernel_matrix(SE, cands), 1.0, T=128)
        r64 = series[63] / math.log1p(64.0) ** 2
        r128 = series[127] / math.log1p(128.0) ** 2
        assert r128 <= 1.1 * r64

    def test_requires_enough_candidates(self):
        with pytest.raises(ValueError):
            greedy_info_gain(kernel_matrix(SE, np.zeros((3, 1))), 1.0, T=4)


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
        assert res.checkpoints == (64, 128, 256, 512)  # 32 is left out
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
        assert (audit.ratio, audit.bias_ratio) == ((sup,), (sup,))
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

    @staticmethod
    def assert_prefix_audit_matches_refits(config, checkpoints):
        f = config.objective_for_seed(5)
        trace = run_gp_ucb(config, f, 5)
        grid = config.evaluation_points()
        slow = uniform_bound_audit(f, states_at_checkpoints(trace, config.rho, checkpoints), grid)
        fast = prefix_bound_audit(*audit_inputs(config, f, trace), config.rho, checkpoints)
        assert fast.t == slow.t
        assert np.allclose(fast.ratio, slow.ratio, rtol=1e-8)
        assert np.allclose(fast.bias_ratio, slow.bias_ratio, rtol=1e-8)

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
        fast = prefix_bound_audit(*audit_inputs(config, f, trace), config.rho, checkpoints)
        assert fast.t == slow.t
        for a, b in [(fast.ratio, slow.ratio), (fast.bias_ratio, slow.bias_ratio)]:
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
            expected.append([np.max(np.abs(d) / sd) for d in (f_grid - mean, f_grid - mean_exact)])

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
            np.array([audit.ratio, audit.bias_ratio]), np.array(expected).T, rtol=1e-9, atol=0
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
        with pytest.raises(ValueError, match=r"design point \[0.5, 0.0\] is not on the evaluation grid"):
            grid_columns(grid, np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_prefix_audit_rejects_a_row_off_the_candidates(self):
        # 16 candidates on a 31-point grid: a grid row past them, or a
        # negative one, would be clipped by the fit's gather
        config = make_config(horizon=16, candidates_count=16, eval_grid_count=31, seeds=(1,))
        f = config.objective_for_seed(1)
        trace = run_gp_ucb(config, f, 1)
        f_grid, K, rows, y = audit_inputs(config, f, trace)
        assert K.shape == (16, 31)
        for bad in (16, -1):
            moved = rows.copy()
            moved[3] = bad
            with pytest.raises(ValueError, match=f"row {bad} at t=4 is not one of the 16 candidates"):
                prefix_bound_audit(f_grid, K, moved, y, config.rho, [8, 16])


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


def graded_suite(config):
    return grade_traces(config, [run_gp_ucb(config, config.objective_for_seed(s), s) for s in config.seeds])


def audit_series(ratio, bias_ratio=(0.0, 0.0), t=(16, 256)):
    return AuditSeries(tuple(t), tuple(ratio), tuple(bias_ratio))


def flagged_traces(lhs, n):
    """``n`` fully flagged 4-step traces of unit sd and beta at rho = 1, whose
    bound is 8; the first ``lhs`` of them end at regret 1, the rest at 50."""
    return [synthetic_trace(np.full(4, 1.0 if k < lhs else 50.0)) for k in range(n)]


class TestGradeSuite:
    def test_rows_in_report_order(self):
        config = make_config(horizon=64, seeds=(0, 1, 2, 3, 4, 5))
        rows = graded_suite(config)
        assert [row.name for row in rows] == [
            "cumulative-regret exponent",
            "noiseless bias bound",
            "error-ratio growth",
            "conditional regret bound",
            "information-gain growth",
        ]
        assert all(row.verdict in ("PASS", "FAIL", "SKIP") for row in rows)
        # every trace is audited
        assert rows[1].detail == "max ratio <= norm on 6 trace(s)"
        assert len(rows[2].detail.split("; ")) == 6
        # the exponent row alone carries report.csv fields
        assert list(rows[0].fields) == ["config_digest", "slope", "stderr", "reference_exponent", "passed"]
        assert rows[0].fields["config_digest"] == config.digest()
        assert not any(row.fields for row in rows[1:])
        # 64 candidates are enough for a 64-step information gain
        assert rows[4].verdict != "SKIP"
        assert str(rows[1]) == f"{rows[1].verdict}  noiseless bias bound: {rows[1].detail}"

    def test_information_gain_skipped_below_64_candidates(self):
        config = make_config(horizon=64, candidates_count=32, eval_grid_count=32, seeds=range(5))
        assert str(graded_suite(config)[-1]) == "SKIP  information-gain growth: candidate set too small"

    def test_too_few_traces_raise(self):
        with pytest.raises(ValueError, match="need >= 5 traces, got 4"):
            graded_suite(make_config(horizon=64, seeds=range(4)))


class TestGradeRows:
    MATERN = rate_reference(KernelFamily.MATERN, 1.5, 1)

    @pytest.mark.parametrize("family, slope, verdict", [
        (KernelFamily.MATERN, 0.50, "PASS"),
        (KernelFamily.MATERN, 0.81, "FAIL"),
        (KernelFamily.SQUARED_EXPONENTIAL, 0.75, "PASS"),
        (KernelFamily.SQUARED_EXPONENTIAL, 0.44, "FAIL"),
    ])
    def test_exponent_row(self, family, slope, verdict):
        ref = rate_reference(family, 1.5, 1)
        row = _exponent_row(ExponentFit(slope, 0.01, (16, 32, 64)), ref, "abc")
        assert row.verdict == verdict
        assert row.fields == {
            "config_digest": "abc",
            "slope": format(slope, ".17g"),
            "stderr": "0.01",
            "reference_exponent": format(ref.cum_exponent, ".17g"),
            "passed": str(int(verdict == "PASS")),
        }

    # the ratio may pass the norm by round-off, a relative 1e-6
    @pytest.mark.parametrize("norm, verdict", [(2.0, "PASS"), (2.0 / (1 + 0.5e-6), "PASS"), (2.0 / (1 + 2e-6), "FAIL")])
    def test_bias_row(self, norm, verdict):
        audits = {0: audit_series((1.0, 1.0), (0.5, 2.0)), 1: audit_series((1.0, 1.0), (0.1, 0.1))}
        row = _bias_row(audits, {0: norm, 1: 1.0})
        assert str(row) == f"{verdict}  noiseless bias bound: max ratio <= norm on 2 trace(s)"

    def test_growth_row(self):
        allowed = 1.5 * math.sqrt(math.log1p(256.0) / math.log1p(16.0))
        within = audit_series((1.0, allowed))
        row = _growth_row({0: within, 1: audit_series((2.0, 1.0))}, 1.0)
        assert str(row) == f"PASS  error-ratio growth: {allowed:.3f}<={allowed:.3f}; 0.500<={allowed:.3f}"
        row = _growth_row({0: within, 1: audit_series((1.0, 1.01 * allowed))}, 1.0)
        assert row.verdict == "FAIL"
        # the allowance follows rho: log1p(rho t) at the first and last checkpoints
        assert _growth_row({0: audit_series((1.0, 1.0))}, 0.5).detail.endswith(
            f"<={1.5 * math.sqrt(math.log1p(128.0) / math.log1p(8.0)):.3f}"
        )

    def test_growth_row_names_a_zero_sd(self):
        allowed = 1.5 * math.sqrt(math.log1p(256.0) / math.log1p(16.0))
        row = _growth_row({0: audit_series((1.0, 1.0)), 3: audit_series((0.5, math.inf))}, 1.0)
        assert row.verdict == "FAIL"
        assert row.detail.split("; ")[1] == f"inf<={allowed:.3f} (seed 3: sd 0 at t=256)"

    @pytest.mark.parametrize("held, verdict", [(10, "PASS"), (9, "PASS"), (8, "FAIL")])
    def test_conditional_row_share_of_flagged_traces(self, held, verdict):
        traces = flagged_traces(held, 10)
        assert str(_conditional_row(traces, 1.0)) == (
            f"{verdict}  conditional regret bound: {held}/10 flagged traces satisfied the bound"
        )

    def test_conditional_row_counts_flagged_traces_only(self):
        unflagged = synthetic_trace(np.full(4, 50.0))
        unflagged = RegretTrace(**{**unflagged.__dict__, "flag": np.array([False, True, True, True])})
        row = _conditional_row(flagged_traces(1, 2) + [unflagged], 1.0)
        assert row.detail == "1/2 flagged traces satisfied the bound" and row.verdict == "FAIL"

    def test_conditional_row_skips_without_flagged_traces(self):
        flags = ([True, False, True, True], [False, True, True, False])
        traces = [
            RegretTrace(**{**synthetic_trace(np.ones(4)).__dict__, "flag": np.array(f)}) for f in flags
        ]
        assert str(_conditional_row(traces, 1.0)) == (
            "SKIP  conditional regret bound: no fully flagged traces; flag rate 0.6250 over 8 steps; "
            "every later flag held from step 3, never"
        )

    def test_flagged_from(self):
        assert [_flagged_from(np.array(f)) for f in ([True, False], [False, True, True], [True])] == [
            "never", "2", "1",
        ]

    @pytest.mark.parametrize("exponent, verdict", [(0.25, "PASS"), (0.16, "PASS"), (0.39, "PASS"), (0.5, "FAIL"), (0.1, "FAIL")])
    def test_matern_information_gain_row(self, exponent, verdict):
        series = np.arange(1, 513, dtype=float) ** exponent
        row = information_gain_row(series, self.MATERN)
        assert str(row) == f"{verdict}  information-gain growth: fitted exponent {exponent:.4f} reference 0.2500"

    @pytest.mark.parametrize("d, power, verdict", [(1, 2, "PASS"), (2, 3, "PASS"), (1, 3, "FAIL")])
    def test_se_information_gain_row_polylog(self, d, power, verdict):
        # the ratio to ln(1 + t)^(d + 1) may grow at most 10% from T/2 to T
        series = np.log1p(np.arange(1, 513, dtype=float)) ** power
        row = information_gain_row(series, rate_reference(KernelFamily.SQUARED_EXPONENTIAL, None, d))
        assert row.verdict == verdict
        if verdict == "PASS":
            assert row.detail == "polylog ratio 1.0000 vs 1.0000"

    def test_se_information_gain_row_fails_a_power_law(self):
        series = np.log1p(np.arange(1, 513, dtype=float)) ** 2 * np.arange(1, 513) ** 0.2
        row = information_gain_row(series, rate_reference(KernelFamily.SQUARED_EXPONENTIAL, None, 1))
        assert row.verdict == "FAIL"
