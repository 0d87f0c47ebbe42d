"""Regularized Gaussian-process posterior with O(t^2) sequential updates.

The state holds the design matrix, observations, and the lower Cholesky
factor L of K + rho*I.  Predictions follow the standard ridge form

    mean(x) = k_t(x)' (K + rho I)^{-1} y
    var(x)  = 1 - || L^{-1} k_t(x) ||^2

States are immutable; ``update`` extends the factor by one row and returns
a new state, which matches a from-scratch refit to within round-off.
``GrowingPosterior`` is the same recursion over a fixed set of n points at
O(t n) per step; the UCB loop, the greedy information gain and the prefix
audits all grow their posteriors through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

from .kernels import KernelSpec, kernel_cross, kernel_eval, kernel_matrix

__all__ = [
    "NumericError",
    "PosteriorState",
    "GrowingPosterior",
    "NormChainReport",
    "fit",
    "update",
    "posterior_mean_at",
    "posterior_var_at",
    "logdet_information",
    "norm_chain_check",
]

# round-off in var(x) may produce values in (-VAR_CLAMP, 0); anything below
# signals a broken factorization and is an error, not a clamp
_VAR_CLAMP = 1e-12


class NumericError(RuntimeError):
    """Numeric failure (non-SPD pivot, negative variance, non-finite value)."""

    def __init__(self, message: str, *, index: int | None = None, step: int | None = None):
        super().__init__(message)
        self.index = index
        self.step = step


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PosteriorState:
    """Immutable posterior over t observations (t = 0 is the prior)."""

    spec: KernelSpec
    rho: float
    X: np.ndarray      # (t, d) design points
    y: np.ndarray      # (t,) observations
    chol: np.ndarray   # (t, t) lower factor of K + rho*I
    alpha: np.ndarray  # (t,) solution of (K + rho*I) alpha = y

    @property
    def t(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def fit(spec: KernelSpec, rho: float, X, y) -> PosteriorState:
    """Factorize K + rho*I for the given design and observations.

    t = 0 yields the empty prior state with mean 0 and variance 1 everywhere.
    """
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive, got {rho}")
    X = np.array(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.array(y, dtype=float).reshape(-1)
    t = X.shape[0]
    if t != y.shape[0]:
        raise ValueError(f"design/observation length mismatch: {t} vs {y.shape[0]}")
    if t == 0:
        d = X.shape[1] if X.ndim == 2 else 1
        return PosteriorState(
            spec, rho, _freeze(X.reshape(0, d)), _freeze(y),
            _freeze(np.empty((0, 0))), _freeze(np.empty(0)),
        )
    A = kernel_matrix(spec, X)
    A[np.diag_indices(t)] += rho
    # A.T is A in the Fortran order LAPACK factors in place; info > 0 is the
    # 1-based order of the first non-positive (or non-finite) leading minor
    L, info = dpotrf(A.T, lower=True, clean=True, overwrite_a=True)
    if info > 0:
        idx = info - 1
        raise NumericError(f"Cholesky factorization of K + rho*I failed at pivot {idx}", index=idx)
    alpha = cho_solve((L, True), y, check_finite=False)
    return PosteriorState(spec, rho, _freeze(X), _freeze(y), _freeze(L), _freeze(alpha))


def update(state: PosteriorState, x_new, y_new: float) -> PosteriorState:
    """Posterior for t+1 points via rank-one extension of the Cholesky factor."""
    x_new = np.asarray(x_new, dtype=float).reshape(-1)
    if x_new.shape[0] != state.dim:
        raise ValueError(f"point dimension {x_new.shape[0]} != design dimension {state.dim}")
    t = state.t
    if t == 0:
        return fit(state.spec, state.rho, x_new[None, :], [y_new])
    k_vec = kernel_cross(state.spec, state.X, x_new[None, :])[:, 0]
    r = solve_triangular(state.chol, k_vec, lower=True, check_finite=False)
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
    u = solve_triangular(L, y, lower=True, check_finite=False)
    alpha = solve_triangular(L.T, u, lower=False, check_finite=False)
    return PosteriorState(state.spec, state.rho, _freeze(X), _freeze(y), _freeze(L), _freeze(alpha))


def _clamped_var(raw: np.ndarray, step: int | None = None) -> np.ndarray:
    low = float(np.min(raw)) if raw.size else 0.0
    if low < -_VAR_CLAMP:
        raise NumericError(f"negative posterior variance {low} signals a broken factorization", step=step)
    return np.maximum(raw, 0.0)


def posterior_mean_at(state: PosteriorState, X) -> np.ndarray:
    """Predictive mean over a set of points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if state.t == 0:
        return np.zeros(X.shape[0])
    C = kernel_cross(state.spec, state.X, X)
    return C.T @ state.alpha


def posterior_var_at(state: PosteriorState, X) -> np.ndarray:
    """Predictive variance over a set of points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if state.t == 0:
        return np.ones(X.shape[0])
    C = kernel_cross(state.spec, state.X, X)
    W = solve_triangular(state.chol, C, lower=True, check_finite=False)
    return _clamped_var(1.0 - np.sum(W * W, axis=0))


class GrowingPosterior:
    """Posterior over a fixed set of n points, grown one observation at a time.

    It keeps W = L^{-1} K(design, points), one row per observation, and
    u_j = L^{-1} y_j for each tracked observation vector (target), so
    ``mean[j]`` = W' u_j and the variance is 1 - colsum(W^2).  Design points
    must be among the n points: a point's column of W feeds its new row.
    """

    def __init__(self, rho: float, n_points: int, horizon: int, n_targets: int = 1):
        self.rho = rho
        self.t = 0
        self.mean = np.zeros((n_targets, n_points))
        self._W = np.empty((horizon, n_points))
        self._u = np.empty((n_targets, horizon))
        self._sumsq = np.zeros(n_points)

    def variance(self) -> np.ndarray:
        """Predictive variance at every point before step t+1."""
        return _clamped_var(1.0 - self._sumsq, step=self.t + 1)

    def observe(self, c: int, k_row: np.ndarray, *ys: float) -> None:
        """Add point ``c``, given its kernel row over the points and one observation per target."""
        t = self.t
        r = self._W[:t, c]
        d_new = math.sqrt(self.rho + max(1.0 - self._sumsq[c], 0.0))
        w_row = (k_row - r @ self._W[:t]) / d_new
        self._W[t] = w_row
        for j, y in enumerate(ys):
            u_new = (y - r @ self._u[j, :t]) / d_new
            self._u[j, t] = u_new
            self.mean[j] += w_row * u_new
        self._sumsq += w_row * w_row
        self.t = t + 1


def logdet_information(state: PosteriorState) -> float:
    """Half log-determinant of I + rho^{-1} K for the state's own design.

    Uses det(K + rho I) = rho^t det(I + rho^{-1} K), so the value reads off
    the factor diagonal.  The empty state yields 0.
    """
    t = state.t
    if t == 0:
        return 0.0
    return float(np.sum(np.log(np.diag(state.chol))) - 0.5 * t * math.log(state.rho))


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
    h_sq = max(2.0 * (1.0 - kernel_eval(state.spec, x[0], x2[0])), 0.0)
    K = kernel_matrix(state.spec, state.X)
    w = cho_solve((state.chol, True), delta, check_finite=False)
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
