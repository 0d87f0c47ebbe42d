"""Information-gain surrogates, error-bound audits, and regret-rate fits.

These operations grade completed runs:

* ``greedy_info_gain`` builds a computable surrogate for the maximal
  information gain by greedily growing the design that maximizes the
  marginal log-determinant increase.
* ``prefix_bound_audit`` fits a trace's checkpoints from their distinct
  designs with the posterior refactor's own fit and measures the sup ratio
  |f - mean| / sd over a grid, and its noiseless-bias part from the exact
  values; ``uniform_bound_audit``, its reference, grades given states
  through the refit reference alone, sharing no step with that fit.  A
  ratio where a variance is clamped at 0 is 0 for a zero error and
  infinite otherwise.  The prefix audit evaluates no kernel and no
  objective and maps no point: it takes its design's grid rows, the
  candidates' kernel rows against the grid and the objective's grid
  values, each built once per report and shared by its audits.  A report
  holds those kernel rows in one ``kernels.KernelRows`` store, which builds
  a row when it is first read, and ``greedy_info_gain`` reads the same
  store, picking among the candidates' own columns alone, so no row is
  built twice.
* ``regret_bound_check`` tests the conditional cumulative-regret
  inequality R_T <= sqrt(8/ln(1+1/rho)) * sqrt(T * beta_{T-1} * I_T)
  on traces whose per-step error-bound flags all held.
* ``fit_regret_exponent`` fits the log-log slope of mean cumulative regret
  at geometric checkpoints, for comparison against the reference rates.
* ``grade_suite`` grades a loaded suite with all of the above: one row per
  check, each with its verdict and why.  It is the one grading path; the
  ``report`` command writes its rows, and the acceptance criteria assert on
  them.  Every band and threshold of a row is written here once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

import numpy as np

from .config import BetaKind, BetaSchedule, ExperimentConfig, KernelFamily, _fmt
from .kernels import KernelRows
from .posterior import GrowingPosterior, PosteriorState, _clamped_var, _design_fit, fit
from .posterior import posterior_mean_at, posterior_var_at
from .rkhs import RkhsFunction
from .ucb import RegretTrace, beta_value

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
    "GradeRow",
    "information_gain_row",
    "grade_suite",
]

# acceptance bands for the fitted cumulative-regret exponent at desk scale;
# the polylog factors in the reference rates inflate finite-T slopes, hence
# the width
_SLOPE_BANDS = {
    KernelFamily.MATERN: (0.50, 0.80),
    KernelFamily.SQUARED_EXPONENTIAL: (0.45, 0.75),
}


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


def greedy_info_gain(K: np.ndarray | KernelRows, rho: float, T: int) -> np.ndarray:
    """Greedy information-gain series over a fixed candidate set, from the
    kernel rows ``K`` of its m candidates against n >= m points, the first
    m of them the candidates (an array or a ``KernelRows``, as
    ``GrowingPosterior`` reads them).

    Step t adds the candidate with the largest current variance (largest
    marginal ln(1 + var/rho)); the running half-sum of those increments is
    returned for t = 1..T.  It lower-bounds the true maximal gain and is
    non-decreasing.  The points past the candidates are tracked, never
    picked, and leave every candidate's variance, bit for bit, as the
    candidates' own kernel matrix gives it.
    """
    m, n = K.shape
    if T < 1 or m < T:
        raise ValueError(f"need 1 <= T <= |candidates| = {m}, got T = {T}")
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    post = GrowingPosterior(K, rho)
    series = np.empty(T)
    var = np.empty(n)
    var_cand = var[:m]
    total = 0.0
    for t in range(T):
        post.variance(out=var)
        c = int(var_cand.argmax())
        total += 0.5 * math.log1p(var.item(c) / rho)
        series[t] = total
        post.observe(c, 0.0)
    return series


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    stderr: float
    checkpoints: tuple[int, ...]


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
    mean regret is not positive are left out of the fit and of
    ``checkpoints``.
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
    used, logs = [], []
    for t in checkpoints:
        mean_reg = float(np.mean([tr.cum_regret[t - 1] for tr in traces]))
        if mean_reg > 0.0:
            used.append(t)
            logs.append(math.log(mean_reg))
    if len(used) < 3:
        raise ValueError(f"only {len(used)} usable checkpoints after exclusions")
    slope, stderr = loglog_slope(np.log(np.array(used, dtype=float)), np.array(logs))
    return ExponentFit(slope, stderr, tuple(used))


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
    replays the same designs with exact function values."""

    t: tuple[int, ...]
    ratio: tuple[float, ...]
    bias_ratio: tuple[float, ...]


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
        ratios.append([_sup_ratio(d, sd) for d in (f_grid - mean, f_grid - mean_exact)])
    return AuditSeries(tuple(ts), *(tuple(r[i] for r in ratios) for i in range(2)))


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


def grid_columns(grid: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Grid row of each point of ``X``; the first point off the grid raises
    ValueError("design point [...] is not on the evaluation grid")."""
    index = {tuple(p): i for i, p in enumerate(grid.tolist())}
    try:
        return np.array([index[tuple(p)] for p in X.tolist()], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"design point {list(exc.args[0])} is not on the evaluation grid") from None


def prefix_bound_audit(
    f_grid: np.ndarray,
    K: np.ndarray | KernelRows,
    rows: np.ndarray,
    y: np.ndarray,
    rho: float,
    checkpoints: Sequence[int],
) -> AuditSeries:
    """Same ratios as ``uniform_bound_audit`` over the prefixes of a trace
    that played the grid rows ``rows`` and observed ``y``, for an objective
    with values ``f_grid`` over the grid and the kernel rows ``K`` (an
    array or a ``KernelRows``) of the grid's first m points, the
    candidates, against the whole grid.  A prefix is fit from its d distinct points, k plays at each standing as
    one play of their mean (``_design_fit``): O(d^3 + d^2 n) on an n-point
    grid.  ValueError for a row off the candidates.
    """
    checkpoints = sorted(checkpoints)
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > rows.size:
        raise ValueError(f"checkpoints must lie in [1, {rows.size}], got {checkpoints}")
    # _design_fit's gather clips an index past the candidates' rows
    off = np.flatnonzero((rows < 0) | (rows >= K.shape[0]))
    if off.size:
        raise ValueError(f"row {rows[off[0]]} at t={off[0] + 1} is not one of the {K.shape[0]} candidates")

    def fits():
        for cp in checkpoints:
            design, which, count = np.unique(rows[:cp], return_inverse=True, return_counts=True)
            ybar = np.bincount(which, weights=y[:cp]) / count
            means, sumsq = _design_fit(K, design, rho, count, np.column_stack([ybar, f_grid[design]]), None)[1:]
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


def regret_bound_check(trace: RegretTrace, rho: float) -> BoundCheck:
    """Conditional cumulative-regret inequality for one trace.

    rhs = sqrt(8 / ln(1 + 1/rho)) * sqrt(T * beta_{T-1} * I_T), with I_T the
    half log-determinant of the trace's own design (``trace_information_gain``,
    a certified lower bracket of the maximal information gain), against the
    trace's regret to the evaluation grid's optimum, with no slack.  The
    check applies only when the per-step error-bound flags all held;
    otherwise it is vacuous and reported as not applicable.
    """
    T = trace.horizon
    info = trace_information_gain(trace, rho)
    c2 = math.sqrt(8.0 / math.log1p(1.0 / rho))
    lhs = float(trace.cum_regret[-1])
    rhs = c2 * math.sqrt(T * float(trace.beta[-1]) * info)
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


@dataclass(frozen=True)
class GradeRow:
    """One graded check: its name, its verdict (PASS, FAIL or SKIP), why,
    and the ``report.csv`` fields it contributes, header to value."""

    name: str
    verdict: str
    detail: str
    fields: dict[str, str] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.verdict}  {self.name}: {self.detail}"


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _exponent_row(fit_res: ExponentFit, ref: RateReference, digest: str) -> GradeRow:
    """The fitted cumulative-regret exponent against its family's band."""
    lo, hi = _SLOPE_BANDS[ref.family]
    passed = lo <= fit_res.slope <= hi
    return GradeRow(
        "cumulative-regret exponent",
        _verdict(passed),
        f"slope={fit_res.slope:.4f} stderr={fit_res.stderr:.4f} reference={ref.cum_exponent:.4f} band=[{lo}, {hi}]",
        {
            "config_digest": digest,
            "slope": _fmt(fit_res.slope),
            "stderr": _fmt(fit_res.stderr),
            "reference_exponent": _fmt(ref.cum_exponent),
            "passed": str(int(passed)),
        },
    )


def _bias_row(audits: Mapping[int, AuditSeries], norms: Mapping[int, float]) -> GradeRow:
    """Every trace's noiseless bias ratio within its objective's norm, up to
    a relative 1e-6 of round-off."""
    passed = all(max(a.bias_ratio) <= norms[seed] * (1.0 + 1e-6) for seed, a in audits.items())
    return GradeRow("noiseless bias bound", _verdict(passed), f"max ratio <= norm on {len(audits)} trace(s)")


def _growth_row(audits: Mapping[int, AuditSeries], rho: float) -> GradeRow:
    """Each trace's sup ratio at its last audit over its first, within 1.5
    times the sqrt(log) growth of beta_t between them; a trace with an
    infinite ratio (a variance clamped at 0 under an error) fails, named
    with its first such checkpoint."""
    ts = next(iter(audits.values())).t
    allowed = 1.5 * math.sqrt(math.log1p(rho * ts[-1]) / math.log1p(rho * ts[0]))
    passed, parts = True, []
    for seed, audit in audits.items():
        zero_sd = [t for t, r in zip(audit.t, audit.ratio) if r == math.inf]
        if zero_sd:
            passed = False
            parts.append(f"inf<={allowed:.3f} (seed {seed}: sd 0 at t={zero_sd[0]})")
            continue
        growth = audit.ratio[-1] / audit.ratio[0]
        passed &= growth <= allowed
        parts.append(f"{growth:.3f}<={allowed:.3f}")
    return GradeRow("error-ratio growth", _verdict(passed), "; ".join(parts))


def _flagged_from(flag: np.ndarray) -> str:
    """The first step from which every later flag held, or ``never`` when
    the last one failed."""
    misses = np.flatnonzero(~flag)
    step = int(misses[-1]) + 2 if misses.size else 1
    return str(step) if step <= flag.size else "never"


def _conditional_row(traces: Sequence[RegretTrace], rho: float) -> GradeRow:
    """The conditional regret bound on at least 9 in 10 of the fully flagged
    traces; SKIP, naming the flag rate and each trace's flagged tail, when
    none is."""
    flagged = [c for c in (regret_bound_check(tr, rho) for tr in traces) if c.applicable]
    if flagged:
        holds = sum(c.holds for c in flagged)
        return GradeRow(
            "conditional regret bound",
            _verdict(holds >= 0.9 * len(flagged)),
            f"{holds}/{len(flagged)} flagged traces satisfied the bound",
        )
    steps = sum(tr.horizon for tr in traces)
    rate = sum(int(np.sum(tr.flag)) for tr in traces) / steps
    return GradeRow(
        "conditional regret bound",
        "SKIP",
        f"no fully flagged traces; flag rate {rate:.4f} over {steps} steps; every later flag held from step "
        + ", ".join(_flagged_from(tr.flag) for tr in traces),
    )


def information_gain_row(series: np.ndarray, ref: RateReference) -> GradeRow:
    """The growth of a greedy information-gain series over T >= 8 steps
    (T/8 and the like round down): for an SE kernel its ratio to
    ln(1 + t)^(d+1) may grow at most 10% from T/2 to T; for a Matern kernel
    its log-log slope over T/8, T/4, T/2 and T must lie in [0.15, 0.40]."""
    T = series.size
    if ref.family is KernelFamily.SQUARED_EXPONENTIAL:
        power = ref.d + 1
        r_half = series[T // 2 - 1] / math.log1p(T // 2) ** power
        r_full = series[T - 1] / math.log1p(T) ** power
        return GradeRow(
            "information-gain growth",
            _verdict(r_full <= 1.1 * r_half),
            f"polylog ratio {r_full:.4f} vs {r_half:.4f}",
        )
    ts = [T // 8, T // 4, T // 2, T]
    slope, _ = loglog_slope(np.log(np.array(ts, dtype=float)), np.log(np.array([series[t - 1] for t in ts])))
    return GradeRow(
        "information-gain growth",
        _verdict(0.15 <= slope <= 0.40),
        f"fitted exponent {slope:.4f} reference {ref.gamma_exponent:.4f}",
    )


def grade_suite(
    config: ExperimentConfig,
    traces: Sequence[RegretTrace],
    f_grids: Mapping[int, np.ndarray],
    norms: Mapping[int, float],
    rows: Mapping[int, np.ndarray],
    K: KernelRows,
    horizons: Collection[int],
) -> list[GradeRow]:
    """Grade a loaded suite: one row per check, in report order.

    Takes the suite's config and traces, each seed's objective values over
    the evaluation grid, objective norm and played grid rows, the store of
    the candidates' kernel rows ``K`` against the grid (the candidates are
    the grid's first rows), which the audits and the information gain
    share, and the horizons of the graded cells, the suite's
    own T the longest.  The regret exponent is fit up to T from the
    shortest cell's horizon, or from max(T/16, 4) when every cell runs to
    T; every trace is audited at the fit's checkpoints, and the greedy
    information gain runs min(512, m) steps over the m candidates, skipped
    below 64.  Does no I/O.  ValueError when the fit has too few traces or
    usable checkpoints; NumericError or ArithmeticError from a fit while
    auditing.
    """
    ref = rate_reference(config.kernel.family, config.kernel.nu, config.domain.dim)
    T = config.horizon
    t_min = min(horizons) if min(horizons) < T else max(T // 16, 4)
    fit_res = fit_regret_exponent(traces, t_min, T)
    # the information gain goes before the audits: its posterior's row
    # buffer, mapped afresh, is unmapped before the audits grow the heap
    # and the store, where after them its pages came on top of both
    # (se_wide_sweep's report peaked 5.4 MiB higher that way round)
    m = K.shape[0]
    T_gain = min(512, m)
    if T_gain >= 64:
        gain = information_gain_row(greedy_info_gain(K, config.rho, T_gain), ref)
    else:
        gain = GradeRow("information-gain growth", "SKIP", "candidate set too small")
    audits = {
        tr.seed: prefix_bound_audit(f_grids[tr.seed], K, rows[tr.seed], tr.y, config.rho, fit_res.checkpoints)
        for tr in traces
    }
    return [
        _exponent_row(fit_res, ref, config.digest()),
        _bias_row(audits, norms),
        _growth_row(audits, config.rho),
        _conditional_row(traces, config.rho),
        gain,
    ]
