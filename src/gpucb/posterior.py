"""Regularized Gaussian-process posterior: a refit reference and a
fixed-point-set posterior grown one observation at a time.

The state holds the design matrix, observations, and the lower Cholesky
factor L of K + rho*I.  Predictions follow the standard ridge form

    mean(x) = k_t(x)' (K + rho I)^{-1} y
    var(x)  = 1 - || L^{-1} k_t(x) ||^2

States are immutable, each refit from its whole design at an O(t^3)
inverse factor: the reference the fast posterior below is tested against,
read by the tests and the audits' reference, never by the UCB loop.  This
module is the package's only linear algebra: numpy's Cholesky factor and
an explicit inverse factor for every triangular solve.  The inverse factor
is built by halves, from LAPACK inverses of diagonal blocks of at most
``_BLOCK`` rows and matrix products for the blocks below them, so it takes
no Python step per row.  The fit from a design of distinct points exists
once, in ``_design_fit``, for ``GrowingPosterior``'s refactor and the prefix
audits; it whitens the design's kernel rows in place and writes their
design columns from the factor, so it holds one d x n array and no d x d
inverse outlives it.  The refit states share no step with it: the audits'
reference.  ``GrowingPosterior`` is the same recursion over a fixed set of n
points, one update rule per observation, for the UCB loop and the greedy
information gain: O(a n) per step for the a rows after the observed point's
latest row (every row for a point never played), plus O(d^3 + d^2 n) each
time it refactors its rows from the d distinct points played.  A
step is one matrix-vector product and a few elementwise passes over the n
points, with its scalars read as Python floats.
A posterior takes the kernel rows it computes on and builds none: its
caller owns the point sets.  It reads them by ``K.take`` along axis 0
alone, so ``K`` is an array or a ``kernels.KernelRows`` store, which builds
a row when it is first read.  What the seeds and sweep cells of one command
share, such as the store of the candidates' kernel rows, the objective, its
values over the grid and the ``beta_t`` column, is built once per process
by ``_held``: one value per name, rebuilt only when its key changes.  A
posterior's row buffer is sized by its points alone, (2m + 1) x n for m
observable of n tracked points, whatever the horizon: mapped lazily, so a
run touches only the rows it writes, and handed to no other posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import KernelSpec, NumericError
from .kernels import KernelRows, kernel_cross, kernel_matrix

__all__ = [
    "PosteriorState",
    "GrowingPosterior",
    "fit",
    "posterior_mean_at",
    "posterior_var_at",
    "logdet_information",
]

# round-off in var(x) may produce values in (-VAR_CLAMP, 0); anything below
# signals a broken factorization and is an error, not a clamp
_VAR_CLAMP = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# name -> (key, value): the one value held under each name
_HELD: dict = {}


def _held(name: str, key: tuple, build):
    """``build()``, held under ``name`` while the same ``key`` is asked for,
    and frozen when it is an array; any other value is held as it is, such
    as a ``kernels.KernelRows`` store, which is append-only: it adds the
    rows its readers ask for and hands out copies.  Keys compare exactly:
    an array in ``key`` counts by its shape and bytes.  The old value under
    ``name`` is dropped before ``build()`` runs, so at most one value per
    name is held."""
    key = tuple((k.shape, k.tobytes()) if isinstance(k, np.ndarray) else k for k in key)
    entry = _HELD.get(name)
    if entry is not None and entry[0] == key:
        return entry[1]
    _HELD.pop(name, None)
    value = build()
    _HELD[name] = key, value
    return _freeze(value) if isinstance(value, np.ndarray) else value


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
    L = _cholesky(kernel_matrix(spec, X), rho)
    alpha = _cho_solve(L, y)
    return PosteriorState(spec, rho, _freeze(X), _freeze(y), _freeze(L), _freeze(alpha))


def _cholesky(K: np.ndarray, noise) -> np.ndarray:
    """Lower Cholesky factor of K + diag(noise); the noise is added to K's
    diagonal in place.

    When K + diag(noise) is not positive definite, NumericError names the
    pivot of the first leading block that does not factor (its order - 1),
    found by bisecting the leading blocks.  K must be finite: a NaN entry
    gives a NaN factor, not an error (``kernel_cross`` rejects non-finite
    points, so no kernel matrix holds one).
    """
    K[np.diag_indices(K.shape[0])] += noise
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        pass
    # the leading block of order lo factors, the one of order hi does not
    lo, hi = 0, K.shape[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(K[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    raise NumericError(f"Cholesky factorization of K + rho*I failed at pivot {hi - 1}", index=hi - 1)


# rows of the largest diagonal block that _inv_lower hands to LAPACK
_BLOCK = 64

# the lower triangle of a diagonal block of _inv_lower, the diagonal included
_LOWER = _freeze(np.tri(_BLOCK, dtype=bool))


def _inv_lower(L: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """inv(L) for lower-triangular L, exactly zero above the diagonal, into
    ``out`` (zeros of L's shape) when given.  By halves:
    inv([[P, 0], [Q, R]]) = [[inv(P), 0], [-inv(R) Q inv(P), inv(R)]], with
    LAPACK inverting the diagonal blocks of at most ``_BLOCK`` rows, so the
    O(d^3) work is matrix products, where substitution takes d Python steps."""
    d = L.shape[0]
    if out is None:
        out = np.zeros((d, d))
    if d <= _BLOCK:
        np.copyto(out, np.linalg.inv(L), where=_LOWER[:d, :d])
        return out
    h = d // 2
    p_inv = _inv_lower(L[:h, :h], out[:h, :h])
    r_inv = _inv_lower(L[h:, h:], out[h:, h:])
    q = np.matmul(r_inv, L[h:, :h] @ p_inv, out=out[h:, :h])
    np.negative(q, out=q)
    return out


def _cho_solve(L: np.ndarray, b) -> np.ndarray:
    """(L L')^{-1} b."""
    Linv = _inv_lower(L)
    return Linv.T @ (Linv @ b)


def _lower_product(T: np.ndarray, C: np.ndarray) -> np.ndarray:
    """C = T C in place, for lower-triangular T.  In blocks of at most
    ``_BLOCK`` rows from the bottom up, a block's rows become T's rows up to
    the block's last column times C's rows up to there, which no block has
    written yet: the product reads T's lower triangle alone, about d^2 n / 2
    multiplies for d x n C, and holds one block of rows besides C."""
    d = T.shape[0]
    part = np.empty((min(d, _BLOCK), C.shape[1]))
    for lo in range((d - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        hi = min(lo + _BLOCK, d)
        C[lo:hi] = np.matmul(T[lo:hi, :hi], C[:hi], out=part[: hi - lo])
    return C


def _design_fit(
    K: np.ndarray | KernelRows, D: np.ndarray, rho: float, k: np.ndarray, ybar: np.ndarray, out: np.ndarray | None
):
    """Fit from the distinct points ``D`` (rows of the kernel rows ``K``),
    played k times each with mean observations ``ybar``: k plays act as one
    play of their mean with noise nu = rho / k (Ankenman, Nelson & Staum,
    Oper. Res. 2010), A = K[D, D] + diag(nu) = L L'.  K[D] is whitened in
    ``out`` (a new array when None) to W = inv(L) K[D], whose design columns
    inv(L) K[D, D] = L' - inv(L) diag(nu) are written from the factor, where
    the product cancels.  Returns the pivots diag(L), the means
    (inv(L) ybar)' W, a row per column of a 2-d ``ybar``, and W's column sums
    of squares."""
    # mode="clip" (the indices are valid): the default buffers ``out`` in a temporary
    W = K.take(D, axis=0, out=out, mode="clip")
    nu = rho / k
    L = _cholesky(W[:, D], nu)
    Linv = _inv_lower(L)
    _lower_product(Linv, W)
    W[:, D] = L.T - Linv * nu
    return L.diagonal().copy(), (Linv @ ybar).T @ W, np.einsum("ij,ij->j", W, W)


def _clamped_var(raw: np.ndarray, step: int | None = None) -> np.ndarray:
    """``raw`` clamped at 0 in place; untouched when nothing is negative.
    A NaN passes through, for the score check to name."""
    # argmin lands on -inf, or stops at the first NaN, past which only the
    # other entries' minimum tells whether any is negative
    low = raw.item(raw.argmin()) if raw.size else 0.0
    if low != low:
        low = float(np.fmin.reduce(raw))
    if low < 0.0:
        if low < -_VAR_CLAMP:
            raise NumericError(f"negative posterior variance {low} signals a broken factorization", step=step)
        np.maximum(raw, 0.0, out=raw)
    return raw


def posterior_mean_at(state: PosteriorState, X) -> np.ndarray:
    """Predictive mean over a set of points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = kernel_cross(state.spec, state.X, X)
    return C.T @ state.alpha


def posterior_var_at(state: PosteriorState, X) -> np.ndarray:
    """Predictive variance over a set of points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = kernel_cross(state.spec, state.X, X)
    W = _inv_lower(state.chol) @ C
    W *= W
    return _clamped_var(1.0 - np.sum(W, axis=0))


class GrowingPosterior:
    """Posterior over a fixed set of n points, grown one observation at a time.

    Observing y at point c applies one rule (Rasmussen & Williams, GPML,
    2006, ch. 2): with s the posterior covariance of c with every point and
    d2 = rho + var[c], the mean moves by s (y - mean[c]) / d2, and the
    covariance drops by s s' / d2.  The drops are kept as rows s / sqrt(d2)
    of W, so s = K[c] - W[:, c]' W: O(r n) for r rows.  Once the rows exceed
    twice the d distinct points played, W is refit in its own rows by
    ``_design_fit``, the one fit from a distinct design (the prefix audits
    call it too; their refit reference shares none of it): k plays at a
    point act as one play of their mean with noise nu = rho / k, so W =
    L^{-1} K[D] with L L' = K[D, D] + diag(nu), O(d^3 + d^2 n).  These are
    the rows the rule writes when it observes D in order, once per point
    with noise nu: row p is D[p]'s covariance column given D[:p] over its
    pivot L[p, p].  So every row of W is some point's own row, written with
    a noise (rho, or nu) over a pivot sqrt(noise + v), v the point's
    variance then, and holding v / pivot at the point itself.  For c's
    latest row p the covariance column is therefore s = w W[p] -
    W[p+1:, c]' W[p+1:] with w = noise / pivot, kept per point so that the
    entry at c never cancels; a point never played reads K[c] with w = 1
    less every row.  A step is O(a n) for the a rows after that base row.
    The refactor orders D by last play, most recent last, so a point played
    lately finds its design row near the end.  Rows stay at most 2d + 1, and
    the refactor steps and the rows read depend on the prefix alone, so a
    shorter run stays a prefix of a longer one.
    The posterior computes on the kernel rows ``K`` of its m observable
    points against its n >= m tracked points, whose first m are those same
    points: a tracked point past them has a mean and a variance but is
    never observed, so it needs its kernel column alone.  The posterior
    only reads ``K``, by ``K.take`` along axis 0: a point's row at its
    first play, and the design's rows at a refactor.  Its row buffer W is
    (2m + 1) x n whatever the horizon, since the rows stay at most 2d + 1:
    left unset by ``np.empty``, as every row is written before it is read,
    so its pages are mapped only as rows are written, and handed to no
    other posterior.
    """

    def __init__(self, K: np.ndarray | KernelRows, rho: float):
        self._K = K
        m, n = K.shape
        self.rho = rho
        self.t = 0
        self.mean = np.zeros(n)
        self._W = np.empty((2 * m + 1, n))
        self._rows = 0
        self._sumsq = np.zeros(n)
        self._count = np.zeros(n)
        self._ysum = np.zeros(n)
        self._distinct = 0
        # each point's latest W row, -1 for none, and the weight on that row,
        # or on K[c] for none: its noise over its pivot, 1 for K[c]
        self._pos = np.full(n, -1)
        self._weight = np.ones(n)
        self._s = np.empty(n)

    def variance(self, out: np.ndarray | None = None) -> np.ndarray:
        """Predictive variance at every point before step t+1, into ``out``
        when given."""
        return _clamped_var(np.subtract(1.0, self._sumsq, out=out), step=self.t + 1)

    def observe(self, c: int, y: float) -> None:
        """Add the observation ``y`` at point ``c``."""
        r = self._rows
        W = self._W
        s = self._s
        # W[r] is free until this step's row is written into it
        w_row = W[r]
        # c's covariance column: its latest row weighted, or K[c], whose
        # weight is 1, when it has none, less the rows after it
        p = self._pos.item(c)
        np.dot(W[p + 1:r, c], W[p + 1:r], out=s)
        if p >= 0:
            np.multiply(W[p], self._weight.item(c), out=w_row)
        else:
            self._K.take(c, axis=0, out=w_row, mode="clip")
        np.subtract(w_row, s, out=s)
        sumsq = self._sumsq
        d2 = self.rho + max(1.0 - sumsq.item(c), 0.0)
        gain = (y - self.mean.item(c)) / d2
        root = math.sqrt(d2)
        np.divide(s, root, out=w_row)
        self.mean += np.multiply(s, gain, out=s)
        sumsq += np.multiply(w_row, w_row, out=s)
        self._pos[c] = r
        self._weight[c] = self.rho / root
        self._rows = r + 1
        count = self._count
        if not count.item(c):
            self._distinct += 1
        count[c] += 1.0
        self._ysum[c] += y
        self.t += 1
        if self._rows > 2 * self._distinct:
            self._refactor()

    def _refactor(self) -> None:
        """W, the mean and the sums of squares refit from the distinct
        design D, ordered by last play (``_design_fit``)."""
        D = np.flatnonzero(self._count)
        # the latest rows order the played points by last play: a row since
        # the last refactor is newer than every design row, and the design
        # rows keep that refactor's order
        D = D[np.argsort(self._pos[D])]
        k = self._count[D]
        try:
            pivots, mean, sumsq = _design_fit(self._K, D, self.rho, k, self._ysum[D] / k, self._W[: D.size])
        except NumericError as exc:
            exc.step = self.t
            raise
        # the loop holds views of both arrays
        self.mean[:] = mean
        self._sumsq[:] = sumsq
        self._rows = D.size
        self._pos[D] = np.arange(D.size)
        self._weight[D] = self.rho / k / pivots


def logdet_information(state: PosteriorState) -> float:
    """Half log-determinant of I + rho^{-1} K for the state's own design.

    Uses det(K + rho I) = rho^t det(I + rho^{-1} K), so the value reads off
    the factor diagonal.  The empty state yields 0.
    """
    return float(np.sum(np.log(np.diag(state.chol))) - 0.5 * state.t * math.log(state.rho))
