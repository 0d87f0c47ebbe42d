"""Information-gain surrogates, error-bound audits, and regret-rate fits.

These operations grade completed runs:

* ``greedy_info_gain`` builds a computable surrogate for the maximal
  information gain by greedily growing the design that maximizes the
  marginal log-determinant increase.
* ``prefix_bound_audit`` replays a trace's selections and measures the sup
  ratio |f - mean| / sd over a grid at checkpoints, split into its
  noiseless-bias and random-error components; ``uniform_bound_audit``
  grades given posterior states the same way (the replay's test reference).
* ``regret_bound_check`` tests the conditional cumulative-regret
  inequality R_T <= sqrt(8/ln(1+1/rho)) * sqrt(T * beta_{T-1} * I_T)
  on traces whose per-step error-bound flags all held.
* ``fit_regret_exponent`` fits the log-log slope of mean cumulative regret
  at geometric checkpoints, for comparison against the reference rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .kernels import KernelFamily, KernelSpec, kernel_cross, kernel_matrix
from .posterior import GrowingPosterior, PosteriorState, fit
from .rkhs import RkhsFunction
from .ucb import RegretTrace

__all__ = [
    "RateReference",
    "ExponentFit",
    "AuditSeries",
    "BoundCheck",
    "rate_reference",
    "greedy_info_gain",
    "loglog_slope",
    "fit_regret_exponent",
    "states_at_checkpoints",
    "uniform_bound_audit",
    "prefix_bound_audit",
    "trace_information_gain",
    "regret_bound_check",
    "calibrate_c0",
]


@dataclass(frozen=True)
class RateReference:
    """Reference regret/information exponents for one kernel family."""

    family: KernelFamily
    nu: float | None
    d: int
    cum_exponent: float
    simple_exponent: float
    gamma_exponent: float


def rate_reference(family: KernelFamily, nu: float | None, d: int) -> RateReference:
    """Closed-form reference exponents.

    Matern: cumulative regret T^{(nu+d)/(2nu+d)}, information gain
    T^{d/(2nu+d)}, simple regret T^{-nu/(2nu+d)} (all modulo polylog
    factors).  Squared exponential: T^{1/2} cumulative with polylog, and
    purely polylogarithmic information gain, recorded as exponent 0.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if family is KernelFamily.MATERN:
        if nu is None or nu <= 0.0:
            raise ValueError(f"Matern requires nu > 0, got {nu}")
        denom = 2.0 * nu + d
        return RateReference(family, nu, d, (nu + d) / denom, -nu / denom, d / denom)
    return RateReference(family, None, d, 0.5, -0.5, 0.0)


def greedy_info_gain(spec: KernelSpec, rho: float, candidates, T: int) -> np.ndarray:
    """Greedy information-gain series over a fixed candidate set.

    Step t adds the candidate with the largest current variance (largest
    marginal ln(1 + var/rho)); the running half-sum of those increments is
    returned for t = 1..T.  It lower-bounds the true maximal gain and is
    non-decreasing.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    m = candidates.shape[0]
    if T < 1 or m < T:
        raise ValueError(f"need 1 <= T <= |candidates| = {m}, got T = {T}")
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    M = kernel_matrix(spec, candidates)
    post = GrowingPosterior(rho, m, T, n_targets=0)
    series = np.empty(T)
    total = 0.0
    for t in range(T):
        var = post.variance()
        c = int(np.argmax(var))
        total += 0.5 * math.log1p(var[c] / rho)
        series[t] = total
        post.observe(c, M[c])
    return series


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    stderr: float
    checkpoints: tuple[int, ...]
    excluded: tuple[int, ...]


def loglog_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope of y on x, both already logged, and its standard error (0
    with fewer than three points)."""
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    resid = (y - y.mean()) - slope * xc
    dof = len(x) - 2
    stderr = float(math.sqrt((resid @ resid) / dof / (xc @ xc))) if dof > 0 else 0.0
    return slope, stderr


def fit_regret_exponent(traces: Sequence[RegretTrace], t_min: int, t_max: int) -> ExponentFit:
    """OLS slope of ln(mean cumulative regret) on ln t at geometric checkpoints.

    Checkpoints are t_min, 2*t_min, ... up to t_max.  Checkpoints whose
    mean regret is non-positive are excluded and reported.
    """
    if len(traces) < 5:
        raise ValueError(f"need >= 5 traces, got {len(traces)}")
    if t_max < 4 * t_min:
        raise ValueError(f"need t_max >= 4*t_min, got [{t_min}, {t_max}]")
    horizon = min(tr.horizon for tr in traces)
    if t_max > horizon:
        raise ValueError(f"t_max = {t_max} exceeds shortest trace horizon {horizon}")
    checkpoints = []
    t = t_min
    while t <= t_max:
        checkpoints.append(t)
        t *= 2
    used, excluded, logs = [], [], []
    for t in checkpoints:
        mean_reg = float(np.mean([tr.cum_regret[t - 1] for tr in traces]))
        if mean_reg <= 0.0:
            excluded.append(t)
        else:
            used.append(t)
            logs.append(math.log(mean_reg))
    if len(used) < 3:
        raise ValueError(f"only {len(used)} usable checkpoints after exclusions")
    slope, stderr = loglog_slope(np.log(np.array(used, dtype=float)), np.array(logs))
    return ExponentFit(slope, stderr, tuple(used), tuple(excluded))


def states_at_checkpoints(trace: RegretTrace, rho: float, checkpoints: Sequence[int]) -> list[PosteriorState]:
    """Posterior states refit from the trace's design/observation prefixes.

    Checkpoint 0 yields the prior state."""
    out = []
    for t in sorted(checkpoints):
        if not 0 <= t <= trace.horizon:
            raise ValueError(f"checkpoint {t} outside trace horizon {trace.horizon}")
        out.append(fit(trace.spec, rho, trace.X[:t], trace.y[:t]))
    return out


@dataclass(frozen=True)
class AuditSeries:
    """Sup ratios |f - mean| / sd over a grid, at each audited state.

    ``ratio`` uses the recorded (noisy) observations; ``bias_ratio``
    replays the same designs with exact function values; ``random_ratio``
    covers the remaining noise-driven part (mean minus noiseless mean)."""

    t: tuple[int, ...]
    ratio: tuple[float, ...]
    bias_ratio: tuple[float, ...]
    random_ratio: tuple[float, ...]


def uniform_bound_audit(f: RkhsFunction, states: Sequence[PosteriorState], grid) -> AuditSeries:
    """Measure the sup error ratios of each posterior state over a grid.

    rho > 0 keeps sd positive everywhere, so the ratios are well defined;
    the prior state (mean 0, sd 1) reduces them to the sup of |f|.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    f_grid = f.on_points(grid)
    ts, ratios, biases, randoms = [], [], [], []
    for state in states:
        if state.t == 0:
            sup = float(np.max(np.abs(f_grid)))
            ts.append(0)
            ratios.append(sup)
            biases.append(sup)
            randoms.append(0.0)
            continue
        # one triangular solve serves every column; sd is shared between the
        # noisy fit and its noiseless replay (same design, same factor)
        C = kernel_cross(state.spec, state.X, grid)
        W = solve_triangular(state.chol, C, lower=True, check_finite=False)
        sd = np.sqrt(np.maximum(1.0 - np.sum(W * W, axis=0), 0.0))
        mean = C.T @ state.alpha
        alpha_exact = cho_solve((state.chol, True), f.on_points(state.X), check_finite=False)
        mean_exact = C.T @ alpha_exact
        ts.append(state.t)
        ratios.append(float(np.max(np.abs(f_grid - mean) / sd)))
        biases.append(float(np.max(np.abs(f_grid - mean_exact) / sd)))
        randoms.append(float(np.max(np.abs(mean - mean_exact) / sd)))
    return AuditSeries(tuple(ts), tuple(ratios), tuple(biases), tuple(randoms))


def prefix_bound_audit(
    f: RkhsFunction, trace: RegretTrace, rho: float, grid, checkpoints: Sequence[int]
) -> AuditSeries:
    """Same ratios as ``uniform_bound_audit`` over trace prefixes, in one replay.

    The trace's selections are replayed through a posterior over the grid
    that tracks the recorded observations and the exact f values side by
    side, with one kernel row per distinct design point.  Agrees with
    refitting each prefix to well below the audit tolerances.  Raises
    ValueError if a design point is not a grid point.
    """
    checkpoints = sorted(checkpoints)
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > trace.horizon:
        raise ValueError(f"checkpoints must lie in [1, {trace.horizon}], got {checkpoints}")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    T = checkpoints[-1]
    X = trace.X[:T]
    index = {tuple(p): i for i, p in enumerate(grid.tolist())}
    try:
        cols = [index[tuple(p)] for p in X.tolist()]
    except KeyError as exc:
        raise ValueError(f"design point {list(exc.args[0])} is not in the audit grid") from None
    rows, which = np.unique(cols, return_inverse=True)
    K = kernel_cross(trace.spec, grid[rows], grid)
    y_exact = f.on_points(X)
    f_grid = f.on_points(grid)
    post = GrowingPosterior(rho, grid.shape[0], T, n_targets=2)
    ts, ratios, biases, randoms = [], [], [], []
    for cp in checkpoints:
        for t in range(post.t, cp):
            post.observe(cols[t], K[which[t]], trace.y[t], y_exact[t])
        sd = np.sqrt(post.variance())
        mean, mean_exact = post.mean
        ts.append(cp)
        ratios.append(float(np.max(np.abs(f_grid - mean) / sd)))
        biases.append(float(np.max(np.abs(f_grid - mean_exact) / sd)))
        randoms.append(float(np.max(np.abs(mean - mean_exact) / sd)))
    return AuditSeries(tuple(ts), tuple(ratios), tuple(biases), tuple(randoms))


def trace_information_gain(trace: RegretTrace, rho: float) -> float:
    """Half log-determinant of I + rho^{-1} K for the trace's own design, read
    off its sd column by the chain identity 0.5 * sum_t ln(1 + sigma_t^2/rho)."""
    return 0.5 * float(np.sum(np.log1p(trace.sigma * trace.sigma / rho)))


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    applicable: bool


def regret_bound_check(trace: RegretTrace, rho: float, grid_gap: float = 0.0) -> BoundCheck:
    """Conditional cumulative-regret inequality for one trace.

    rhs = sqrt(8 / ln(1 + 1/rho)) * sqrt(T * beta_{T-1} * I_T), with I_T the
    half log-determinant of the trace's own design (``trace_information_gain``,
    a certified lower bracket of the maximal information gain).  The check
    applies only when the per-step error-bound flags all held; otherwise it
    is vacuous and reported as not applicable.
    """
    T = trace.horizon
    info = trace_information_gain(trace, rho)
    c2 = math.sqrt(8.0 / math.log1p(1.0 / rho))
    lhs = float(trace.cum_regret[-1])
    rhs = c2 * math.sqrt(T * float(trace.beta[-1]) * info) + T * grid_gap
    applicable = bool(np.all(trace.flag))
    holds = (lhs <= rhs) if applicable else True
    return BoundCheck(lhs=lhs, rhs=rhs, holds=holds, applicable=applicable)


def calibrate_c0(
    audits: Sequence[AuditSeries],
    rho: float,
    delta: float,
    c_subg: float = 1.0,
    quantile: float = 0.95,
) -> float:
    """Scale constant for the log-product schedule from pilot audit ratios.

    Takes the given quantile of r_t / sqrt(ln(1+rho*t) * ln(e + 6/pi^2 *
    c_subg * t^2 / delta)) over all pilot (trace, checkpoint) pairs, so the
    resulting schedule makes the empirical error bound hold at roughly that
    rate without changing its t-dependence.
    """
    normalized = []
    for series in audits:
        for t, r in zip(series.t, series.ratio):
            if t == 0:
                continue  # the prior state has no schedule normalizer
            scale = math.sqrt(
                math.log(1.0 + rho * t)
                * math.log(math.e + (6.0 / math.pi**2) * c_subg * t**2 / delta)
            )
            normalized.append(r / scale)
    if not normalized:
        raise ValueError("no audit ratios to calibrate from")
    return float(np.quantile(np.array(normalized), quantile))
