"""Upper-confidence-bound sampling loop over a fixed candidate grid.

``run_gp_ucb`` runs one seed.  Each step selects the candidate maximizing
mean + sqrt(beta) * sd under the current posterior, observes the objective
plus sub-Gaussian noise, and updates a ``posterior.GrowingPosterior``,
whose rule, refactor and O(T d n) cost ``posterior``'s module docstring
derives.  The posterior tracks the m candidates, which hold the optimum
when it lies on them, or m + 1 points with the optimum as a shadow column
when it lies off them.  The candidates' kernel rows come from one
``kernels.KernelRows`` store that ``posterior._held`` keeps for every seed
and sweep cell; a seed with a shadow column makes a store of its own,
which no other seed reads, so it builds the rows it plays again.  The two
safety minima of a step, the variance's and the scores', are index reads
``a.item(a.argmin())``, cheaper than ``np.minimum.reduce`` on arrays of
this size (CHANGES.md, "README's Benchmark history, moved", times both).

Per step the loop records its choice, the exploration weight, the
posterior mean and sd at the chosen point, and a flag marking whether
|f - mean| <= sqrt(beta) * sd held at both the optimum and the chosen
point.  Points, observations and regret follow from the choices, the
objective on the grid and the seed's noise draws.  The exploration
weights (``beta_column``) are one read-only column per schedule, horizon
and rho, held like the kernel rows.

A step depends on the steps before it alone, never on the horizon, so the
run at a shorter horizon is the first rows of a longer one
(``RegretTrace.prefix``).  A caller that runs one seed at several
horizons, as a horizon sweep does, asks for the longest first and hands
each finished trace to the next call as ``longer``, which cuts it instead
of running.  The loop keeps nothing between calls.  ``trace_to_csv`` and
``trace_from_csv`` write and read the trace file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .config import BetaKind, BetaSchedule, KernelSpec, NumericError
from .kernels import KernelRows
from .posterior import GrowingPosterior, _held
from .rkhs import RkhsFunction, _objective_values

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "RegretTrace",
    "beta_value",
    "beta_column",
    "run_gp_ucb",
    "trace_to_csv",
    "trace_from_csv",
]


def beta_value(schedule: BetaSchedule, t: int, rho: float) -> float:
    """Exploration weight before step t+1 (t observations so far).

    t = 0 returns the t = 1 value: the first selection needs a weight, and
    with a constant prior surface its value only affects tie-breaking.
    ValueError for t < 0; NumericError, naming the schedule and the step,
    when the weight overflows double precision or is not finite.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    t_eff = max(t, 1)
    if schedule.kind is BetaKind.CONSTANT:
        value = schedule.constant_value
    elif schedule.kind is BetaKind.LOG_PRODUCT:
        grow = math.log(1.0 + rho * t_eff)
        tail = math.log(math.e + (6.0 / math.pi**2) * schedule.c_subg * t_eff**2 / schedule.delta)
        # c0**2 raises OverflowError where a product gives inf
        try:
            value = schedule.c0**2 * grow * tail
        except OverflowError:
            value = math.inf
    else:  # SRINIVAS
        value = 2.0 * math.log(t_eff**2 * 2.0 * math.pi**2 / (3.0 * schedule.delta)) + schedule.c0
    if not math.isfinite(value):
        raise NumericError(
            f"exploration weight overflows double precision: the {schedule.kind.value} schedule gives {value}"
            f" at step {t + 1}"
        )
    return value


def beta_column(schedule: BetaSchedule, T: int, rho: float) -> np.ndarray:
    """Read-only ``beta_value(schedule, t, rho)`` for t = 0..T-1, the weight
    of each of T steps; held once per process and shared by the runs and
    reports of one schedule, horizon and rho."""
    return _held("beta", (schedule, T, rho), lambda: np.array([beta_value(schedule, t, rho) for t in range(T)]))


def _select(mean: np.ndarray, sd: np.ndarray, beta: float, step: int, out=None) -> int:
    """Index maximizing mean + sqrt(beta) * sd at selection step ``step``,
    ties to the lowest index, the scores written into ``out`` when given;
    NumericError on a non-finite score, naming the first such candidate and
    the step."""
    score = np.multiply(sd, math.sqrt(beta), out=out)
    score += mean
    c = int(score.argmax())
    # argmax stops at the first NaN and reaches any +inf; argmin reaches -inf
    if not (math.isfinite(score.item(c)) and math.isfinite(score.item(score.argmin()))):
        bad = int(np.flatnonzero(~np.isfinite(score))[0])
        raise NumericError(f"non-finite acquisition value at candidate {bad}, step {step}", index=bad, step=step)
    return c


@dataclass(frozen=True)
class RegretTrace:
    """Per-step record of one run: the columns of its trace file plus the
    kernel, ``f_star`` and seed; arrays are indexed by step-1."""

    X: np.ndarray            # (T, d) chosen points
    y: np.ndarray            # (T,) observations
    beta: np.ndarray         # (T,) exploration weight used at selection
    sigma: np.ndarray        # (T,) posterior sd at the chosen point, pre-update
    mu: np.ndarray           # (T,) posterior mean at the chosen point, pre-update
    inst_regret: np.ndarray  # (T,) f_star - f(x_t)
    cum_regret: np.ndarray   # (T,) running sum, fixed left-to-right order
    flag: np.ndarray         # (T,) bool, error bound held at x_star and x_t
    f_star: float
    seed: int
    spec: KernelSpec

    @property
    def horizon(self) -> int:
        return self.X.shape[0]

    def prefix(self, T: int) -> RegretTrace:
        """The first T rows of every array, views of this trace's: of a run,
        the same run at horizon T."""
        return replace(self, **{k: v[:T] for k, v in vars(self).items() if isinstance(v, np.ndarray)})


def _noise(kind: str, sigma: float, rng: np.random.Generator, T: int) -> np.ndarray:
    """T draws, equal to T single draws in turn; both kinds have variance
    sigma^2 and are sub-Gaussian (uniform exercises non-Gaussian noise)."""
    if kind == "normal":
        return rng.normal(0.0, sigma, T)
    if kind == "uniform":
        half_width = sigma * math.sqrt(3.0)
        return rng.uniform(-half_width, half_width, T)
    raise ValueError(f"unknown noise kind: {kind!r}")


def _seed_noise(config: "ExperimentConfig", seed: int) -> np.ndarray:
    """The observation noise of a seed's run, one draw per step, from the
    seed's noise stream ``default_rng([seed, 1])``: extending the horizon
    replays the same prefix."""
    return _noise(config.noise_kind, config.noise_sigma, np.random.default_rng([seed, 1]), config.horizon)


def run_gp_ucb(
    config: "ExperimentConfig", f: RkhsFunction, seed: int, longer: RegretTrace | None = None
) -> RegretTrace:
    """Execute one seeded run of the sampling loop.

    The fixed candidates are the first rows of the evaluation grid, whose
    maximum is the reference optimum, so instantaneous regret is
    non-negative.  ``longer``, when given, is this run, same config but the
    horizon, objective and seed, at a horizon no shorter: it is cut at this
    one, bit for bit the run from scratch.  A ``longer`` shorter than the
    horizon is ignored, and the call runs.
    """
    T = config.horizon
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    if longer is not None and T <= longer.horizon:
        return longer.prefix(T)
    spec = config.kernel
    rho = config.rho
    cand = config.candidate_points()
    grid = config.evaluation_points()
    m = cand.shape[0]
    f_grid = _objective_values(f, grid)
    best = int(np.argmax(f_grid))
    f_star = float(f_grid[best])
    f_cand = f_grid[:m]
    noise = _seed_noise(config, seed)
    beta = beta_column(config.beta, T, rho)

    # track the optimum through its own candidate column, from the store of
    # the candidates' kernel rows that every seed shares, or through a shadow
    # column when it lies off the candidates: it is never played, so it is
    # one more column of a store of this seed's own
    if best < m:
        opt = best
        K = _held("kernel", (spec, cand), lambda: KernelRows(spec, cand, cand))
    else:
        opt = m
        K = KernelRows(spec, cand, np.vstack([cand, grid[best:best + 1]]))
    post = GrowingPosterior(K, rho)

    choice = np.empty(T, dtype=np.intp)
    sigma_out, mu_out = np.empty((2, T))
    flag_out = np.empty(T, dtype=bool)
    # post.mean and sd are updated in place, so their views hold every step
    mean = post.mean
    sd = np.empty(mean.shape[0])
    mean_cand, sd_cand = mean[:m], sd[:m]
    score = np.empty(m)
    f_values, y_noise = f_cand.tolist(), noise.tolist()
    for t, beta_t in enumerate(beta.tolist()):
        np.sqrt(post.variance(out=sd), out=sd)
        c = _select(mean_cand, sd_cand, beta_t, step=t + 1, out=score)
        root_beta = math.sqrt(beta_t)
        mean_c, sd_c, f_c = mean.item(c), sd.item(c), f_values[c]
        flag_out[t] = (
            abs(f_star - mean.item(opt)) <= root_beta * sd.item(opt)
            and abs(f_c - mean_c) <= root_beta * sd_c
        )
        choice[t] = c
        sigma_out[t] = sd_c
        mu_out[t] = mean_c
        post.observe(c, f_c + y_noise[t])

    X, y, inst = cand[choice], f_cand[choice] + noise, f_star - f_cand[choice]
    cum = np.cumsum(inst)  # left to right, as report checks it
    for arr in (X, y, sigma_out, mu_out, inst, cum, flag_out):
        arr.setflags(write=False)
    return RegretTrace(
        X=X, y=y, beta=beta, sigma=sigma_out, mu=mu_out,
        inst_regret=inst, cum_regret=cum, flag=flag_out,
        f_star=f_star, seed=seed, spec=spec,
    )


# ---------------------------------------------------------------------------
# Trace serialization (17 significant digits round-trips doubles exactly)
# ---------------------------------------------------------------------------


_COLUMNS = ("y", "beta", "sigma", "mu", "inst_regret", "cum_regret", "flag")


def _header(d: int) -> str:
    """The header line of a trace with d-dimensional points."""
    return ",".join(["t", *(f"x_{j + 1}" for j in range(d)), *_COLUMNS])


# rows the writer formats at a time, so one block's floats and row strings
# are alive at once rather than the whole trace's
_WRITE_ROWS = 512


def trace_to_csv(trace: RegretTrace) -> str:
    # t and flag are small integers, which %.17g prints without a fraction
    block = np.column_stack([
        np.arange(1, trace.horizon + 1), trace.X, trace.y, trace.beta, trace.sigma,
        trace.mu, trace.inst_regret, trace.cum_regret, trace.flag,
    ])
    # one joined string: np.savetxt into a growing io buffer raised the peak
    # RSS of a 2025-point horizon sweep (CHANGES.md, "One grid index from run
    # to report")
    row = ",".join(["%.17g"] * block.shape[1])
    parts = [_header(trace.X.shape[1])]
    for start in range(0, trace.horizon, _WRITE_ROWS):
        parts.append("\n".join([row % tuple(r) for r in block[start:start + _WRITE_ROWS].tolist()]))
    return "\n".join(parts) + "\n"


def _reads(line: str, usecols: int | None = None) -> bool:
    """Whether ``np.loadtxt`` reads line, or its field ``usecols``, as numbers."""
    try:
        np.loadtxt([line], delimiter=",", comments=None, usecols=usecols)
    except ValueError:
        return False
    return True


def trace_from_csv(text: str, spec: KernelSpec, f_star: float, seed: int) -> RegretTrace:
    """Inverse of ``trace_to_csv``, reading its columns by position;
    ValueError on an empty trace, a header other than the writer's, a ragged
    row (a blank one included), a skipped t, a flag other than 0 or 1 or a
    field that is not a number, naming the first defective line by its line
    number in the file.  The rows' text is checked first, line by line, then
    the body is read as numbers in one ``np.loadtxt`` call; only a body that
    fails that call is walked, line by line, to the first field it cannot
    read."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty trace")
    width = lines[0].count(",") + 1
    d = width - 1 - len(_COLUMNS)
    if lines[0] != _header(d):
        raise ValueError(f"trace header {lines[0]!r} is not t, x_1..x_d, {', '.join(_COLUMNS)}")
    body = lines[1:]
    for step, ln in enumerate(body, start=1):
        if ln.count(",") != width - 1:
            raise ValueError(f"ragged row at line {step + 1}: {ln.count(',') + 1} fields, header has {width}")
        if not ln.startswith(f"{step},"):
            raise ValueError(f"non-consecutive t at line {step + 1}: {ln.split(',', 1)[0]!r} where {step} was expected")
        if not ln.endswith((",0", ",1")):
            raise ValueError(f"flag at line {step + 1} is {ln.rsplit(',', 1)[1]!r}, not 0 or 1")
    if not body:
        # np.loadtxt warns on input with no rows
        block = np.empty((0, width))
    else:
        # comments=None: a '#' inside a field is a fault, not the start of a comment
        try:
            block = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            for step, ln in enumerate(body, start=1):
                if not _reads(ln):
                    j = next(j for j in range(width) if not _reads(ln, j))
                    name = lines[0].split(",")[j]
                    raise ValueError(f"{name} at line {step + 1} is {ln.split(',')[j]!r}, not a number") from None
            raise
    # contiguous copies of the columns, as the writer's arrays are
    y, beta, sigma, mu, inst, cum = (block[:, j].copy() for j in range(1 + d, width - 1))
    return RegretTrace(
        X=np.ascontiguousarray(block[:, 1:1 + d]),
        y=y, beta=beta, sigma=sigma, mu=mu, inst_regret=inst, cum_regret=cum, flag=block[:, -1] == 1.0,
        f_star=f_star, seed=seed, spec=spec,
    )
