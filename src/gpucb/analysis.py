"""Information-gain surrogates, error-bound audits, and regret-rate fits.

These operations grade completed runs:

* ``greedy_info_gain`` builds a computable surrogate for the maximal
  information gain by greedily growing the design that maximizes the
  marginal log-determinant increase.
* ``prefix_bound_audit`` fits a trace's checkpoints from their distinct
  designs with the posterior refactor's own fit and measures the sup ratio
  |f - mean| / sd over a grid, split into noiseless-bias and random-error
  components; ``uniform_bound_audit``, its reference, grades given states
  through the refit reference alone, sharing no step with that fit.  A
  ratio where a variance is clamped at 0 is 0 for a zero error and
  infinite otherwise.  The
  prefix audit evaluates no kernel and no objective: it reads its design
  rows from the candidates' kernel rows against the grid and takes the
  objective's grid values, both computed once per report and shared by its
  audits and, for the candidates' own columns, by ``greedy_info_gain``.
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

from .kernels import KernelFamily, KernelSpec
from .posterior import GrowingPosterior, PosteriorState, _clamped_var, _design_fit, fit
from .posterior import posterior_mean_at, posterior_var_at
from .rkhs import RkhsFunction
from .ucb import BetaKind, BetaSchedule, RegretTrace, beta_value

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
    "grid_columns",
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
    gamma_exponent: float


def rate_reference(family: KernelFamily, nu: float | None, d: int) -> RateReference:
    """Closed-form reference exponents.

    Matern: cumulative regret T^{(nu+d)/(2nu+d)} and information gain
    T^{d/(2nu+d)} (both modulo polylog factors).  Squared exponential:
    T^{1/2} cumulative with polylog, and purely polylogarithmic information
    gain, recorded as exponent 0.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if family is KernelFamily.MATERN:
        if nu is None or nu <= 0.0:
            raise ValueError(f"Matern requires nu > 0, got {nu}")
        denom = 2.0 * nu + d
        return RateReference(family, nu, d, (nu + d) / denom, d / denom)
    return RateReference(family, None, d, 0.5, 0.0)


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
    post = GrowingPosterior(spec, rho, candidates, T)
    series = np.empty(T)
    total = 0.0
    for t in range(T):
        var = post.variance()
        c = int(var.argmax())
        total += 0.5 * math.log1p(var[c] / rho)
        series[t] = total
        post.observe(c, 0.0)
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


def _sup_ratio(err: np.ndarray, sd: np.ndarray) -> float:
    """max |err| / sd; where sd is 0 (a variance clamped at 0) the ratio is 0
    for a zero error and infinite otherwise."""
    ratio = np.where(err == 0.0, 0.0, math.inf)
    np.divide(np.abs(err), sd, out=ratio, where=sd > 0.0)
    return float(np.max(ratio))


def _audit(f_grid: np.ndarray, ts: Sequence[int], fits) -> AuditSeries:
    """Sup ratios over a grid (f values ``f_grid``) at times ``ts`` of the
    posteriors in ``fits``, each (means over the grid from the observations
    and from the exact values, as two rows; variance over the grid)."""
    ratios = []
    for (mean, mean_exact), var in fits:
        sd = np.sqrt(var)
        ratios.append([_sup_ratio(d, sd) for d in (f_grid - mean, f_grid - mean_exact, mean - mean_exact)])
    return AuditSeries(tuple(ts), *(tuple(r[i] for r in ratios) for i in range(3)))


def uniform_bound_audit(f: RkhsFunction, states: Sequence[PosteriorState], grid) -> AuditSeries:
    """Measure the sup error ratios of each posterior state over a grid.

    ``prefix_bound_audit``'s reference: ``posterior_mean_at`` and
    ``posterior_var_at`` of each state and of its refit on the exact values.
    The prior state (mean 0, sd 1) reduces the ratios to the sup of |f|.  At
    tiny rho, 1 - ||L^{-1} k||^2 can cancel to a variance clamped at 0, where
    a ratio is infinite; below -1e-12 (a broken factor) it raises NumericError.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))

    def fits():
        for s in states:
            exact = fit(s.spec, s.rho, s.X, f.on_points(s.X))
            yield (posterior_mean_at(s, grid), posterior_mean_at(exact, grid)), posterior_var_at(s, grid)

    return _audit(f.on_points(grid), [s.t for s in states], fits())


def grid_columns(grid: np.ndarray, X: np.ndarray, where: str = "in the audit grid") -> np.ndarray:
    """Grid row of each point of ``X``; the first point off the grid raises
    ValueError("design point [...] is not <where>")."""
    index = {tuple(p): i for i, p in enumerate(grid.tolist())}
    try:
        return np.array([index[tuple(p)] for p in X.tolist()], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"design point {list(exc.args[0])} is not {where}") from None


def prefix_bound_audit(
    f_grid: np.ndarray, K: np.ndarray, trace: RegretTrace, rho: float, grid, checkpoints: Sequence[int]
) -> AuditSeries:
    """Same ratios as ``uniform_bound_audit`` over trace prefixes, for an
    objective with values ``f_grid`` over the grid and the kernel rows ``K``
    of the grid's first m points, the candidates, against the whole grid.
    A prefix is fit from its d distinct points, k plays at each standing as
    one play of their mean (``_design_fit``): O(d^3 + d^2 n) on an n-point
    grid.  ValueError for a point off the candidates.
    """
    checkpoints = sorted(checkpoints)
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > trace.horizon:
        raise ValueError(f"checkpoints must lie in [1, {trace.horizon}], got {checkpoints}")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    m = K.shape[0]
    cols = grid_columns(grid[:m], trace.X[: checkpoints[-1]], f"in the audit grid's first {m} rows")

    def fits():
        for cp in checkpoints:
            rows, which, count = np.unique(cols[:cp], return_inverse=True, return_counts=True)
            ybar = np.bincount(which, weights=trace.y[:cp]) / count
            # inv(L) is dropped here: held across the yield, it stays
            # resident into the next checkpoint
            means, sumsq = _design_fit(K, rows, rho, count, np.column_stack([ybar, f_grid[rows]]), None)[1:]
            yield means, _clamped_var(1.0 - sumsq)

    return _audit(f_grid, checkpoints, fits())


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

    Takes the given quantile of r_t / sqrt(beta_t) over all pilot (trace,
    checkpoint) pairs, with beta_t the log-product schedule of ``delta`` and
    ``c_subg`` at c0 = 1 (``ucb.beta_value``), so the resulting schedule
    makes the empirical error bound hold at roughly that rate without
    changing its t-dependence.
    """
    unit = BetaSchedule(BetaKind.LOG_PRODUCT, delta, c0=1.0, c_subg=c_subg)
    normalized = []
    for series in audits:
        for t, r in zip(series.t, series.ratio):
            if t == 0:
                continue  # the prior state has no schedule normalizer
            normalized.append(r / math.sqrt(beta_value(unit, t, rho)))
    if not normalized:
        raise ValueError("no audit ratios to calibrate from")
    return float(np.quantile(np.array(normalized), quantile))
