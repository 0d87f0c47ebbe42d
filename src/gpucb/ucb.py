"""Upper-confidence-bound sampling loop over a fixed candidate grid.

Each step selects the candidate maximizing mean + sqrt(beta) * sd under the
current posterior, observes the objective plus sub-Gaussian noise, and
updates the posterior incrementally through a
``posterior.GrowingPosterior`` over the tracked points: the m candidates,
which hold the incumbent optimum when it lies on them, or m + 1 points
with the optimum as a shadow column when it lies off them.  One rank-one
rule per observation: O(a n) per step for the a rows since the observed
point's own latest row (at most r <= 2d + 1 rows for the d distinct points
played so far), plus O(d^3 + d^2 n) whenever the posterior refactors its
rows from those d points.  Refactors come more than d steps apart, so a
run is O(T d n) in all, with d <= min(T, m), instead of O(T^3 m).  The
candidates' kernel matrix is built once per process and shared by every
seed and sweep cell; a seed with a shadow column appends that column's
kernel entries to a copy of it.
It is algebraically the same recursion as ``posterior.update`` restricted
to the tracked points, and the tests pin the two against each other.

Beyond that arithmetic, a step costs about fifteen NumPy calls on arrays of
n values: the variance and its clamp check, the scores and their argmax and
finiteness check, and the update.  The exploration weights are one column
per schedule, horizon and rho, computed before the loop, and the loop reads
the objective, the noise and the posterior's scalars as Python floats.

Per step the loop records its choice, the exploration weight, the
posterior mean/sd at the chosen point, and a flag marking whether the
empirical error bound |f - mean| <= sqrt(beta) * sd held at both the
incumbent optimum and the selected point.  Points, observations and regret
follow from the choices, the objective on the grid and one noise draw.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .kernels import KernelSpec
from .posterior import GrowingPosterior, NumericError, PosteriorState, _freeze, posterior_mean_at, posterior_var_at
from .rkhs import RkhsFunction, _objective_values

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "BetaKind",
    "BetaSchedule",
    "RegretTrace",
    "beta_value",
    "beta_column",
    "acquire",
    "run_gp_ucb",
    "edp_recommend",
    "trace_to_csv",
    "trace_from_csv",
]


class BetaKind(Enum):
    # product of the two logarithmic factors ln(1+rho*t) and ln(e + c*t^2/delta)
    LOG_PRODUCT = "log_product"
    # classic 2*ln(t^2 * 2*pi^2 / (3*delta)) baseline, plus c0 as an additive offset
    SRINIVAS = "srinivas"
    CONSTANT = "constant"


@dataclass(frozen=True)
class BetaSchedule:
    """Exploration-weight schedule beta_t."""

    kind: BetaKind
    delta: float = 0.1
    c0: float = 1.0
    c_subg: float = 1.0
    constant_value: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        for name in ("c0", "c_subg", "constant_value"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def beta_value(schedule: BetaSchedule, t: int, rho: float) -> float:
    """Exploration weight before step t+1 (t observations so far).

    t = 0 returns the t = 1 value: the first selection needs a weight, and
    with a constant prior surface its value only affects tie-breaking.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if schedule.kind is BetaKind.CONSTANT:
        return schedule.constant_value
    t_eff = max(t, 1)
    if schedule.kind is BetaKind.LOG_PRODUCT:
        grow = math.log(1.0 + rho * t_eff)
        tail = math.log(math.e + (6.0 / math.pi**2) * schedule.c_subg * t_eff**2 / schedule.delta)
        return schedule.c0**2 * grow * tail
    # SRINIVAS
    return 2.0 * math.log(t_eff**2 * 2.0 * math.pi**2 / (3.0 * schedule.delta)) + schedule.c0


@functools.lru_cache(maxsize=1)
def beta_column(schedule: BetaSchedule, T: int, rho: float) -> np.ndarray:
    """Read-only ``beta_value(schedule, t, rho)`` for t = 0..T-1, the weight
    of each of T steps; computed once and shared by the runs and reports of
    one schedule, horizon and rho."""
    return _freeze(np.array([beta_value(schedule, t, rho) for t in range(T)]))


def _select(mean: np.ndarray, sd: np.ndarray, beta: float, step: int | None = None, out=None) -> int:
    """Index maximizing mean + sqrt(beta) * sd, ties to the lowest index, the
    scores written into ``out`` when given; NumericError on a non-finite
    score, naming the first such candidate and the step when given."""
    score = np.multiply(sd, math.sqrt(beta), out=out)
    score += mean
    c = int(score.argmax())
    # argmax stops at the first NaN and reaches any +inf; min reaches -inf
    if not (math.isfinite(score[c]) and math.isfinite(np.minimum.reduce(score))):
        bad = int(np.flatnonzero(~np.isfinite(score))[0])
        where = "" if step is None else f", step {step}"
        raise NumericError(f"non-finite acquisition value at candidate {bad}{where}", index=bad, step=step)
    return c


def acquire(state: PosteriorState, beta: float, candidates) -> int:
    """Index of the candidate maximizing mean + sqrt(beta) * sd; ties go to
    the lowest index."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if candidates.shape[0] == 0:
        raise ValueError("candidate set must be non-empty")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    sd = np.sqrt(posterior_var_at(state, candidates))
    return _select(posterior_mean_at(state, candidates), sd, beta)


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
    """The observation noise of a seed's run, one draw per step, from its own
    stream at seed + 1: extending the horizon replays the same prefix."""
    return _noise(config.noise_kind, config.noise_sigma, np.random.default_rng(seed + 1), config.horizon)


def run_gp_ucb(config: "ExperimentConfig", f: RkhsFunction, seed: int) -> RegretTrace:
    """Execute one seeded run of the sampling loop.

    The fixed candidates are the first rows of the evaluation grid, whose
    maximum is the reference optimum, so instantaneous regret is
    non-negative.
    """
    T = config.horizon
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
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

    # track the optimum through its own candidate column, or through a
    # shadow column when it lies off the candidates: it is never played, so
    # the posterior appends its kernel column to a copy of the candidates'
    # kernel matrix, which every seed shares
    if best < m:
        opt, shadow = best, None
    else:
        opt, shadow = m, grid[best:best + 1]
    post = GrowingPosterior(spec, rho, cand, T, shadow=shadow)

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

    post.release()
    X, y, inst = cand[choice], f_cand[choice] + noise, f_star - f_cand[choice]
    cum = np.cumsum(inst)  # left to right, as report checks it
    for arr in (X, y, sigma_out, mu_out, inst, cum, flag_out):
        arr.setflags(write=False)
    return RegretTrace(
        X=X, y=y, beta=beta, sigma=sigma_out, mu=mu_out,
        inst_regret=inst, cum_regret=cum, flag=flag_out,
        f_star=f_star, seed=seed, spec=spec,
    )


def edp_recommend(trace: RegretTrace, seed: int) -> np.ndarray:
    """Recommend a uniformly random past sample point (seeded draw)."""
    if trace.horizon < 1:
        raise ValueError("trace is empty")
    rng = np.random.default_rng(seed)
    i = int(rng.integers(trace.horizon))
    return trace.X[i].copy()


# ---------------------------------------------------------------------------
# Trace serialization (17 significant digits round-trips doubles exactly)
# ---------------------------------------------------------------------------


_COLUMNS = ("y", "beta", "sigma", "mu", "inst_regret", "cum_regret", "flag")


def trace_to_csv(trace: RegretTrace) -> str:
    d = trace.X.shape[1]
    header = ["t"] + [f"x_{j + 1}" for j in range(d)] + list(_COLUMNS)
    # t and flag are small integers, which %.17g prints without a fraction
    block = np.column_stack([
        np.arange(1, trace.horizon + 1), trace.X, trace.y, trace.beta, trace.sigma,
        trace.mu, trace.inst_regret, trace.cum_regret, trace.flag,
    ])
    # one joined string: np.savetxt into a growing io buffer raised the peak
    # RSS of a 2025-point horizon sweep from 187 to 200 MiB
    row = ",".join(["%.17g"] * block.shape[1])
    return "\n".join([",".join(header)] + [row % tuple(r) for r in block.tolist()]) + "\n"


def _row_line(text: str, row: int) -> int:
    """The line number in the file ``text`` of body row ``row`` of its trace,
    the (row + 1)-th non-blank line from 0: blank lines count in the file."""
    lines = (number for number, line in enumerate(text.splitlines(), start=1) if line.strip())
    return next(itertools.islice(lines, row + 1, None))


def trace_from_csv(text: str, spec: KernelSpec, f_star: float, seed: int = -1) -> RegretTrace:
    """Inverse of ``trace_to_csv``; ValueError on an empty trace, a missing
    column, a ragged row, a skipped t or a flag other than 0 or 1, naming the
    first defective line by its line number in the file, blank lines counted."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = lines[0].split(",")
    missing = [name for name in _COLUMNS if name not in header]
    if missing:
        raise ValueError(f"trace header has no {', '.join(missing)} column")
    d = sum(1 for h in header if h.startswith("x_"))
    cols = {name: i for i, name in enumerate(header)}
    width = len(header)
    body = lines[1:]
    T = len(body)
    # the rows before the first ragged one split at once into whole columns,
    # checked at once; a check that fails then finds its first bad row
    commas = [ln.count(",") for ln in body]
    whole = next((i for i, n in enumerate(commas) if n != width - 1), T)
    fields = ",".join(body[:whole]).split(",") if whole else []
    columns = [fields[j::width] for j in range(width)]
    faults = []
    if whole < T:
        line = _row_line(text, whole)
        faults.append((whole, f"ragged row at line {line}: {commas[whole] + 1} fields, header has {width}"))
    steps = list(map(str, range(1, whole + 1)))
    if columns[0] != steps:
        i = next(i for i, (got, want) in enumerate(zip(columns[0], steps)) if got != want)
        faults.append((i, f"non-consecutive t at line {_row_line(text, i)}: {columns[0][i]!r} where {i + 1} was expected"))
    flags = columns[cols["flag"]]
    if not set(flags) <= {"0", "1"}:
        i = next(i for i, f in enumerate(flags) if f not in ("0", "1"))
        faults.append((i, f"flag at line {_row_line(text, i)} is {flags[i]!r}, not 0 or 1"))
    if faults:
        raise ValueError(min(faults, key=lambda fault: fault[0])[1])

    def col(name):
        return np.array(columns[cols[name]], dtype=float)

    return RegretTrace(
        X=np.ascontiguousarray(np.array(columns[1:1 + d], dtype=float).T).reshape(T, d),
        y=col("y"), beta=col("beta"), sigma=col("sigma"), mu=col("mu"),
        inst_regret=col("inst_regret"), cum_regret=col("cum_regret"),
        flag=col("flag") == 1.0,
        f_star=f_star, seed=seed, spec=spec,
    )
