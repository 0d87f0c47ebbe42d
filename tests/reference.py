"""Checks that only the tests call: the refit reference's one-point
extension and its acquisition rule, and three checks of the paper's claims
that the acceptance criteria grade.

No ``gpucb-bench`` command enters any of these, so they live beside the
tests that read them, not in the package, and they read the package's
private helpers as they did inside it:

* ``update`` extends a refit ``posterior.PosteriorState`` by one point
  through a rank-one extension of its Cholesky factor.  The tests pin it
  against ``posterior.fit`` from scratch, and the UCB loop's
  ``GrowingPosterior`` against the states it steps through.
* ``acquire`` is the loop's acquisition rule on a refit state: the
  reference loop of the tests steps it with ``update`` and must choose
  every point the UCB loop chooses.
* ``norm_chain_check`` and ``NormChainReport`` confirm the interpolation
  norm chain h2^2 <= h1^2 <= 4 |h| behind the uniform error bound
  (acceptance criterion c03).
* ``holder_validate`` and ``HolderReport`` confirm the kernel's Holder
  continuity psi(0) - psi(r) <= A0 r^theta (c04).
* ``edp_recommend`` draws the recommendation whose simple regret the
  acceptance criteria compare with the average cumulative regret (c10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gpucb.config import KernelFamily, KernelSpec, NumericError
from gpucb.kernels import _matern_radial, kernel_cross, kernel_matrix
from gpucb.posterior import PosteriorState, _cho_solve, _freeze, _inv_lower, posterior_mean_at, posterior_var_at
from gpucb.ucb import RegretTrace, _select

__all__ = [
    "HolderReport",
    "NormChainReport",
    "acquire",
    "edp_recommend",
    "holder_validate",
    "norm_chain_check",
    "update",
]


def update(state: PosteriorState, x_new, y_new: float) -> PosteriorState:
    """Posterior for t+1 points via rank-one extension of the Cholesky factor."""
    x_new = np.asarray(x_new, dtype=float).reshape(-1)
    if x_new.shape[0] != state.X.shape[1]:
        raise ValueError(f"point dimension {x_new.shape[0]} != design dimension {state.X.shape[1]}")
    t = state.t
    k_vec = kernel_cross(state.spec, state.X, x_new[None, :])[:, 0]
    r = _inv_lower(state.chol) @ k_vec
    diag_sq = 1.0 + state.rho - r @ r
    if diag_sq <= 0.0 or not math.isfinite(diag_sq):
        raise NumericError(f"non-positive pivot {diag_sq} extending to t={t + 1}", index=t)
    d_new = math.sqrt(diag_sq)
    L = np.zeros((t + 1, t + 1))
    L[:t, :t] = state.chol
    L[t, :t] = r
    L[t, t] = d_new
    X = np.vstack([state.X, x_new[None, :]])
    y = np.append(state.y, y_new)
    alpha = _cho_solve(L, y)
    return PosteriorState(state.spec, state.rho, _freeze(X), _freeze(y), _freeze(L), _freeze(alpha))



def acquire(state: PosteriorState, beta: float, candidates) -> int:
    """Index of the candidate maximizing mean + sqrt(beta) * sd; ties go to
    the lowest index."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if candidates.shape[0] == 0:
        raise ValueError("candidate set must be non-empty")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    sd = np.sqrt(posterior_var_at(state, candidates))
    return _select(posterior_mean_at(state, candidates), sd, beta, state.t + 1)



def edp_recommend(trace: RegretTrace, seed: int) -> np.ndarray:
    """Recommend a uniformly random past sample point, drawn from the seed's
    recommendation stream ``default_rng([seed, 2])``."""
    if trace.horizon < 1:
        raise ValueError("trace is empty")
    rng = np.random.default_rng([seed, 2])
    i = int(rng.integers(trace.horizon))
    return trace.X[i].copy()


@dataclass(frozen=True)
class NormChainReport:
    """Norms of the kernel-difference functionals h, h1, h2 at a point pair.

    With delta = k_t(x) - k_t(x2):
      h_norm_sq  = 2 (1 - psi(x - x2))        (raw difference function)
      h1_norm_sq = delta' K^{-1} delta        (plain interpolant; None when
                                               K is numerically singular)
      h2_norm_sq = delta' (K+rho I)^{-1} K (K+rho I)^{-1} delta
    ``holds`` checks h2^2 <= h1^2 <= 4*|h| with 1e-9 slack.
    """

    h_norm_sq: float
    h1_norm_sq: float | None
    h2_norm_sq: float
    holds: bool


def norm_chain_check(state: PosteriorState, x, x2, *, eig_threshold: float = 1e-10) -> NormChainReport:
    """Verify the interpolation-norm chain for a pair of probe points.

    The h1 term needs K itself inverted; it is computed through an
    eigendecomposition and skipped (reported None) when the smallest
    eigenvalue is at or below ``eig_threshold``.
    """
    if state.t < 1:
        raise ValueError("norm_chain_check needs at least one design point")
    x = np.asarray(x, dtype=float).reshape(1, -1)
    x2 = np.asarray(x2, dtype=float).reshape(1, -1)
    kx = kernel_cross(state.spec, state.X, x)[:, 0]
    kx2 = kernel_cross(state.spec, state.X, x2)[:, 0]
    delta = kx - kx2
    h_sq = max(2.0 * (1.0 - float(kernel_cross(state.spec, x, x2)[0, 0])), 0.0)
    K = kernel_matrix(state.spec, state.X)
    w = _cho_solve(state.chol, delta)
    h2_sq = float(w @ K @ w)
    evals, evecs = np.linalg.eigh(K)
    if float(evals[0]) > eig_threshold:
        proj = evecs.T @ delta
        h1_sq = float(np.sum(proj * proj / evals))
    else:
        h1_sq = None
    bound = 4.0 * math.sqrt(h_sq) + 1e-9
    if h1_sq is None:
        holds = h2_sq <= bound
    else:
        holds = (h2_sq <= h1_sq + 1e-9) and (h1_sq <= bound)
    return NormChainReport(h_norm_sq=h_sq, h1_norm_sq=h1_sq, h2_norm_sq=h2_sq, holds=holds)


@dataclass(frozen=True)
class HolderReport:
    theta: float
    fitted_A0: float


def holder_validate(spec: KernelSpec, n_samples: int, max_radius: float, seed: int) -> HolderReport:
    """Numerically confirm psi(0) - psi(r) <= A0 * r**theta on sampled radii.

    theta is min(nu, 1) for Matern and 1 for the squared exponential.  Radii
    are drawn log-uniformly from (1e-6, max_radius] so the r -> 0 regime is
    probed; the fitted A0 is the largest observed ratio
    (psi(0) - psi(r)) / r**theta, which must be finite.
    """
    if n_samples < 100:
        raise ValueError(f"n_samples must be >= 100, got {n_samples}")
    if not max_radius > 1e-5:
        raise ValueError(f"max_radius too small: {max_radius}")
    if spec.family is KernelFamily.MATERN:
        theta = min(spec.nu, 1.0)
    else:
        theta = 1.0
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(math.log(1e-6), math.log(max_radius), size=n_samples))
    if spec.family is KernelFamily.SQUARED_EXPONENTIAL:
        u = r / spec.lengthscale
        gap = -np.expm1(-0.5 * u * u)
    else:
        gap = 1.0 - _matern_radial(spec, r.copy())
    ratios = gap / r**theta
    if not np.all(np.isfinite(ratios)):
        raise ArithmeticError("Holder ratio diverged on sampled radii")
    return HolderReport(theta=theta, fitted_A0=float(np.max(ratios)))
