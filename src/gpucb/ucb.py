"""Upper-confidence-bound sampling loop over a fixed candidate grid.

Each step selects the candidate maximizing mean + sqrt(beta) * sd under the
current posterior, observes the objective plus sub-Gaussian noise, and
updates the posterior incrementally.  A ``posterior.GrowingPosterior``
over the candidates extends its triangular solve one row per step, so a
full run is O(T^2 m) instead of O(T^3 m); it is algebraically the same
recursion as ``posterior.update`` restricted to the candidate set, and the
tests pin the two against each other.

Per-step records land in a ``RegretTrace``: chosen point, observation,
exploration weight, posterior mean/sd at the chosen point, instantaneous
and cumulative regret, and a flag marking whether the empirical error
bound |f - mean| <= sqrt(beta) * sd held at both the incumbent optimum and
the selected point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .kernels import KernelSpec, kernel_matrix
from .posterior import GrowingPosterior, NumericError, PosteriorState, posterior_mean_at, posterior_var_at
from .rkhs import RkhsFunction, _fmt, grid_maximum

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "BetaKind",
    "BetaSchedule",
    "RegretTrace",
    "beta_value",
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


def acquire(state: PosteriorState, beta: float, candidates) -> int:
    """Index of the candidate maximizing mean + sqrt(beta) * sd; ties go to
    the lowest index."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if candidates.shape[0] == 0:
        raise ValueError("candidate set must be non-empty")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    score = posterior_mean_at(state, candidates) + math.sqrt(beta) * np.sqrt(
        posterior_var_at(state, candidates)
    )
    bad = np.flatnonzero(~np.isfinite(score))
    if bad.size:
        raise NumericError(f"non-finite acquisition value at candidate {bad[0]}", index=int(bad[0]))
    return int(np.argmax(score))


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


def _noise_stream(kind: str, sigma: float, rng: np.random.Generator):
    """Per-step noise draws; both kinds have variance sigma^2 and are
    sub-Gaussian.  The uniform option exercises non-Gaussian noise."""
    if sigma == 0.0:
        return lambda: 0.0
    if kind == "normal":
        return lambda: rng.normal(0.0, sigma)
    if kind == "uniform":
        half_width = sigma * math.sqrt(3.0)
        return lambda: rng.uniform(-half_width, half_width)
    raise ValueError(f"unknown noise kind: {kind!r}")


def run_gp_ucb(config: "ExperimentConfig", f: RkhsFunction, seed: int) -> RegretTrace:
    """Execute one seeded run of the sampling loop.

    The candidate grid is fixed; the reference optimum comes from the finer
    evaluation grid (a superset of the candidates, so instantaneous regret
    is non-negative).  Noise draws come from a dedicated stream at
    seed + 1, so extending the horizon replays the same prefix.
    """
    T = config.horizon
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    spec = config.kernel
    rho = config.rho
    cand = config.candidate_points()
    grid = config.evaluation_points()
    m = cand.shape[0]
    x_star, f_star = grid_maximum(f, grid)
    f_cand = f.on_points(cand)

    # track the incumbent optimum as a shadow column next to the candidates
    pts = np.vstack([cand, x_star[None, :]])
    M = kernel_matrix(spec, pts)
    draw_noise = _noise_stream(config.noise_kind, config.noise_sigma, np.random.default_rng(seed + 1))

    post = GrowingPosterior(rho, m + 1, T)

    X_out = np.empty((T, cand.shape[1]))
    y_out = np.empty(T)
    beta_out = np.empty(T)
    sigma_out = np.empty(T)
    mu_out = np.empty(T)
    inst_out = np.empty(T)
    cum_out = np.empty(T)
    flag_out = np.empty(T, dtype=bool)

    cum = 0.0
    for t in range(T):
        beta = beta_value(config.beta, t, rho)
        mean = post.mean[0]
        sd = np.sqrt(post.variance())
        root_beta = math.sqrt(beta)
        score = mean[:m] + root_beta * sd[:m]
        bad = np.flatnonzero(~np.isfinite(score))
        if bad.size:
            raise NumericError(
                f"non-finite acquisition value at candidate {bad[0]}, step {t + 1}",
                index=int(bad[0]), step=t + 1,
            )
        c = int(np.argmax(score))
        y_obs = f_cand[c] + draw_noise()

        flag_out[t] = (
            abs(f_star - mean[m]) <= root_beta * sd[m]
            and abs(f_cand[c] - mean[c]) <= root_beta * sd[c]
        )
        inst = f_star - f_cand[c]
        cum = cum + inst
        X_out[t] = cand[c]
        y_out[t] = y_obs
        beta_out[t] = beta
        sigma_out[t] = sd[c]
        mu_out[t] = mean[c]
        inst_out[t] = inst
        cum_out[t] = cum
        post.observe(c, M[c], y_obs)

    for arr in (X_out, y_out, beta_out, sigma_out, mu_out, inst_out, cum_out, flag_out):
        arr.setflags(write=False)
    return RegretTrace(
        X=X_out, y=y_out, beta=beta_out, sigma=sigma_out, mu=mu_out,
        inst_regret=inst_out, cum_regret=cum_out, flag=flag_out,
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


def trace_to_csv(trace: RegretTrace) -> str:
    d = trace.X.shape[1]
    header = (
        ["t"] + [f"x_{j + 1}" for j in range(d)]
        + ["y", "beta", "sigma", "mu", "inst_regret", "cum_regret", "flag"]
    )
    lines = [",".join(header)]
    for i in range(trace.horizon):
        row = [str(i + 1)]
        row += [_fmt(c) for c in trace.X[i]]
        row += [
            _fmt(trace.y[i]), _fmt(trace.beta[i]), _fmt(trace.sigma[i]), _fmt(trace.mu[i]),
            _fmt(trace.inst_regret[i]), _fmt(trace.cum_regret[i]), str(int(trace.flag[i])),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str, spec: KernelSpec, f_star: float, seed: int = -1) -> RegretTrace:
    """Inverse of ``trace_to_csv``; ValueError on an empty trace, a ragged row or a skipped t."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = lines[0].split(",")
    d = sum(1 for h in header if h.startswith("x_"))
    rows = [ln.split(",") for ln in lines[1:]]
    for step, r in enumerate(rows, start=1):
        if len(r) != len(header):
            raise ValueError(f"ragged row at line {step + 1}: {len(r)} fields, header has {len(header)}")
        if r[0] != str(step):
            raise ValueError(f"non-consecutive t at line {step + 1}: {r[0]!r} where {step} was expected")
    T = len(rows)
    X = np.array([[float(r[1 + j]) for j in range(d)] for r in rows])
    cols = {name: i for i, name in enumerate(header)}

    def col(name, cast=float):
        return np.array([cast(r[cols[name]]) for r in rows])

    return RegretTrace(
        X=X.reshape(T, d),
        y=col("y"), beta=col("beta"), sigma=col("sigma"), mu=col("mu"),
        inst_regret=col("inst_regret"), cum_regret=col("cum_regret"),
        flag=col("flag", cast=lambda s: bool(int(s))),
        f_star=f_star, seed=seed, spec=spec,
    )
