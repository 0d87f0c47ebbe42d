"""Stationary correlation kernels and the modified Bessel function of the second kind.

Families.  Both are normalized so the zero-lag value is exactly 1:

* Matern, with smoothness ``nu`` and lengthscale ``l``::

      psi(r) = z**nu * K_nu(z) / (gamma(nu) * 2**(nu - 1)),   z = 2*sqrt(nu)*r/l

  A half-integer order has a closed-form profile; any other evaluates K_nu.

* Squared exponential, with lengthscale ``l``::

      psi(r) = exp(-r**2 / (2 * l**2))

Builds.  ``kernel_cross`` gives the correlations between two point sets
and ``kernel_matrix`` the same values for one set with itself; a kernel is
evaluated in no other way.  They give exactly 1 at zero lag, and exactly 0,
with no numpy warning, where a tiny lengthscale or a far point makes the
profile underflow.  Both run one build loop over blocks of at most
``_ROW_BLOCK`` entries: each block's distances are written into its rows
of the output and turned into correlations there, in place.  Every entry
takes the same elementwise steps whatever the blocks, so the blocks never
change a bit of the result, and a row built alone is the whole build's
row.  When the second set starts with the first, a block evaluates only
its columns from its first row on and copies the rest from the rows
above, its transpose.  ``KernelRows`` holds the rows of one block for
readers that need only some, and builds each when it is first read.

K_nu.  It is evaluated in-house, one way for every order and argument.  K
is even in its order, so with n = int(nu + 1/2) and mu = nu - n in
[-1/2, 1/2) the base pair (K_mu, K_{mu+1}) feeds the upward recurrence

    K_{mu+j+1}(z) = K_{mu+j-1}(z) + (2 (mu + j) / z) K_{mu+j}(z),   j = 1..n.

The base pair is the trapezoid rule, at step 0.2 / max(1, sqrt(z)), on

    K_nu(z) = exp(-z) * int_0^inf exp(-2 z sinh(t/2)**2) cosh(nu t) dt.

The integrand is positive, analytic and decays doubly exponentially, so
the rule converges geometrically in the step (Trefethen and Weideman,
SIAM Review 56(3), 2014); the step shrinks with the integrand's width,
1/sqrt(z), for large z.  The nodes run over an array of arguments,
updating working arrays in place, and an argument leaves at the first node
where each of its two terms is below eps times its sum, so every value is
what it would be alone, whatever arguments share the call.  At tiny z the
K_{mu+1} sum can overflow while the K_mu sum still grows (its test then
holds at every node), so neither test decides alone; both hold long
before exp(-2 z sinh(t/2)**2) underflows, so a cosh that overflows is
never multiplied by 0.  Target accuracy is 1e-12 relative, verified
against an arbitrary-precision reference table.  A general-order Matern
build makes one ``bessel_k`` call per block of rows, on the distinct
distances that block evaluates.
"""

from __future__ import annotations

import math

import numpy as np

from .config import KernelFamily, KernelSpec

__all__ = [
    "bessel_k",
    "kernel_matrix",
    "kernel_cross",
    "KernelRows",
]


# ---------------------------------------------------------------------------
# Modified Bessel function K_nu
# ---------------------------------------------------------------------------

_EPS = 2.220446049250313e-16
# Trapezoid nodes per argument, past which ArithmeticError.  An argument's
# integrand reaches out to about t = log(2 / z) + 4: at step 0.2, z = 1e-300
# takes 3,476 nodes, and the cap covers z down to about 1e-302 while keeping
# t <= 700, where sinh(t/2)**2 stays finite.
_MAX_ITER = 3500
# Arguments evaluated per vectorized pass; bounds the working arrays of a call.
_BLOCK = 4096


def _k_base_pair(mu: float, z: np.ndarray):
    """(K_mu(z), K_{mu+1}(z)) for |mu| <= 1/2 and a 1-D array z of positive
    arguments, by the trapezoid rule (module docstring, "K_nu"); each value
    is what it would be alone.  ArithmeticError when an argument needs more
    than ``_MAX_ITER`` nodes."""
    k_mu, k_mu1 = np.empty_like(z), np.empty_like(z)
    half_step = 0.1 / np.sqrt(np.maximum(z, 1.0))
    m2z = -2.0 * z
    # the node at t = 0, where the integrand is 1, has half weight
    sum0, sum1 = np.full_like(z, 0.5), np.full_like(z, 0.5)
    pos = np.arange(z.size)
    half_t, decay, term0, term1 = (np.empty_like(z) for _ in range(4))
    k = 0
    while z.size:
        k += 1
        if k > _MAX_ITER:
            raise ArithmeticError(f"K_nu quadrature failed to converge at mu={mu}, z={z[0]}")
        np.multiply(half_step, k, out=half_t)  # t / 2 at node k
        # decay = exp(-2 z sinh(t/2)**2), term_j = decay * cosh((mu + j) t)
        np.sinh(half_t, out=decay)
        decay *= decay
        decay *= m2z
        np.exp(decay, out=decay)
        np.multiply(half_t, 2.0 * mu, out=term0)
        np.cosh(term0, out=term0)
        term0 *= decay
        np.multiply(half_t, 2.0 * mu + 2.0, out=term1)
        np.cosh(term1, out=term1)
        term1 *= decay
        sum0 += term0
        sum1 += term1
        done = (term0 <= _EPS * sum0) & (term1 <= _EPS * sum1)
        if done.any():
            scale = np.exp(-z[done]) * (2.0 * half_step[done])
            k_mu[pos[done]] = scale * sum0[done]
            k_mu1[pos[done]] = scale * sum1[done]
            left = ~done
            pos, z, half_step, m2z, sum0, sum1 = (v[left] for v in (pos, z, half_step, m2z, sum0, sum1))
            half_t, decay, term0, term1 = (v[: z.size] for v in (half_t, decay, term0, term1))
    return k_mu, k_mu1


def _is_half_integer(nu: float) -> bool:
    two_nu = 2.0 * nu
    return two_nu == math.floor(two_nu) and int(two_nu) % 2 == 1


def _bessel_k_general(nu: float, z) -> np.ndarray:
    """K_nu(z) elementwise for any real nu > 0: the base pair, then the
    upward recurrence (module docstring, "K_nu").  An array of z's shape;
    no argument or overflow checks, which belong to ``bessel_k``."""
    # base order mu in [-1/2, 1/2); K is even in its order, so the shifted
    # base pair feeds the usual three-term upward recurrence
    z = np.asarray(z, dtype=float)
    n = int(nu + 0.5)
    mu = nu - n
    k_mu, k_mu1 = _k_base_pair(mu, z.reshape(-1))
    k_mu, k_mu1 = k_mu.reshape(z.shape), k_mu1.reshape(z.shape)
    for j in range(1, n + 1):
        k_mu, k_mu1 = k_mu1, k_mu + (2.0 * (mu + j) / z) * k_mu1
    return k_mu


def bessel_k(nu: float, z):
    """Modified Bessel function of the second kind, K_nu(z), for nu > 0, z > 0
    (module docstring, "K_nu").

    ``z`` is a float or an array; a float gives a float, an array gives an
    array of its shape, each element exactly as it would be alone.
    Arguments go through in blocks of ``_BLOCK``.  A value is exactly 0
    where exp(-z) underflows.

    Raises ValueError for any z <= 0 or for nu <= 0, OverflowError if a
    value, or at orders in [1/2, 3/2) a quadrature term, exceeds the double
    range (tiny z at large order), and ArithmeticError if the quadrature
    needs more than ``_MAX_ITER`` nodes (z below about 1e-302).
    """
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError(f"order nu must be positive and finite, got {nu}")
    za = np.asarray(z, dtype=float)
    flat = za.reshape(-1)
    bad = np.flatnonzero(~((flat > 0.0) & np.isfinite(flat)))
    if bad.size:
        raise ValueError(f"argument z must be positive and finite, got {flat[bad[0]]}")
    out = np.empty_like(flat)
    with np.errstate(over="ignore"):
        for start in range(0, flat.size, _BLOCK):
            out[start:start + _BLOCK] = _bessel_k_general(nu, flat[start:start + _BLOCK])
    huge = np.flatnonzero(np.isinf(out))
    if huge.size:
        raise OverflowError(f"K_nu overflows double precision at nu={nu}, z={flat[huge[0]]}")
    return float(out[0]) if za.ndim == 0 else out.reshape(za.shape)


# ---------------------------------------------------------------------------
# Radial profiles (vectorized over distances)
# ---------------------------------------------------------------------------


def _matern_half_integer_radial(nu: float, z: np.ndarray) -> np.ndarray:
    # psi(z) = e^{-z} * (n! 2^n / (2n)!) * sum_k (n+k)!/(k!(n-k)!) 2^{-k} z^{n-k}
    n = int(round(nu - 0.5))
    prefactor = math.exp(math.lgamma(n + 1) + n * math.log(2.0) - math.lgamma(2 * n + 1))
    coeffs = np.empty(n + 1)
    coeffs[0] = prefactor
    for k in range(1, n + 1):
        coeffs[k] = coeffs[k - 1] * (n + k) * (n - k + 1) / (2.0 * k)
    decay = np.exp(-z)
    # where exp(-z) underflows the profile is 0: evaluating the polynomial at
    # 0 there keeps a huge z from overflowing it into inf * 0
    z = np.where(decay > 0.0, z, 0.0)
    poly = np.full_like(z, coeffs[0])
    for k in range(1, n + 1):
        poly *= z
        poly += coeffs[k]
    poly *= decay
    return poly


def _matern_radial(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """The Matern profile at distances r, in place on r as ``_se_radial``;
    it is evaluated on a copy of the positive finite scaled distances."""
    nu = spec.nu
    # a tiny lengthscale can make the scale, and so z, infinite (NaN at zero
    # lag): the profile is 1 at zero lag and 0 at an infinite distance
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.multiply(r, 2.0 * math.sqrt(nu) / spec.lengthscale, out=r)
    pos = (z > 0.0) & (z < math.inf)
    zp = z[pos]
    np.not_equal(z, math.inf, out=z)  # 1 at 0 and NaN, 0 at inf
    if _is_half_integer(nu):
        z[pos] = _matern_half_integer_radial(nu, zp)
        return z
    # general order: log-space normalization dodges overflow of z^nu * K_nu;
    # lattice designs repeat distances, so evaluate unique values only, all
    # in one bessel_k call; where K_nu underflows to 0 the profile is 0
    log_norm = math.lgamma(nu) + (nu - 1.0) * math.log(2.0)
    uniq, inverse = np.unique(zp, return_inverse=True)
    k_val = bessel_k(nu, uniq)
    live = k_val > 0.0
    log_psi = np.log(uniq[live])
    log_psi *= nu
    log_psi += np.log(k_val[live])
    log_psi -= log_norm
    vals = np.zeros_like(uniq)
    vals[live] = np.exp(log_psi)
    z[pos] = vals[inverse]
    return z


def _se_radial(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    # in place on r (no temporaries); a tiny lengthscale overflows u or u * u, and exp(-inf) is 0
    with np.errstate(over="ignore"):
        u = np.divide(r, spec.lengthscale, out=r)
        u *= u
        u *= -0.5  # exact, so the bits of exp(-0.5 * u * u)
        return np.exp(u, out=u)


# ---------------------------------------------------------------------------
# Kernel operations
# ---------------------------------------------------------------------------


def _as_points(X, name: str) -> np.ndarray:
    """X as a float array of points, one per row; ValueError on a point with
    a non-finite coordinate."""
    P = np.atleast_2d(np.asarray(X, dtype=float))
    finite = np.isfinite(P)
    if not finite.all():
        raise ValueError(f"{name} has a point with non-finite coordinates: {P[~finite.all(axis=1)][0]}")
    return P


# Entries per block of rows in a kernel build.  A block's distances go
# straight into its rows of the output, through one scratch block reused
# across coordinates and blocks, and its profile works there in place, so a
# build holds the output plus the scratch block and a few blocks of profile
# temporaries (more at a general order, where np.unique sorts a copy).
# 2**16 entries (512 KiB) build as fast as larger blocks with a lower peak,
# and split bessel_halton2d's 256 x 512 block in two.  Each block evaluates
# K_nu on its own distinct distances, so a lattice whose blocks repeat them
# pays for them once per block (CHANGES.md: "One kernel build path" and "One
# path for K_nu" measured both).
_ROW_BLOCK = 1 << 16


def _squared_distances(X: np.ndarray, Y: np.ndarray, out: np.ndarray, diff: np.ndarray | None) -> None:
    # one coordinate at a time, so no (n, m, d) temporary is built; the first
    # goes straight into out (0 + a == a), the others through diff
    for k in range(X.shape[1]):
        term = out if k == 0 else diff[: out.shape[0], : out.shape[1]]
        np.subtract.outer(X[:, k], Y[:, k], out=term)
        term *= term
        if k:
            out += term


_RADIAL = {KernelFamily.MATERN: _matern_radial, KernelFamily.SQUARED_EXPONENTIAL: _se_radial}


def _kernel(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The (len(X), len(Y)) correlations between the points of X and Y, of
    one dimension and finite, built in blocks of rows (module docstring,
    "Builds"); the square part of a Y that starts with X equals its
    transpose bit for bit."""
    n, m = X.shape[0], Y.shape[0]
    shared = np.array_equal(Y[:n], X)
    rows = max(1, min(n, _ROW_BLOCK // m if m else n))
    # without coordinates every distance is 0
    out = np.empty((n, m)) if X.shape[1] else np.zeros((n, m))
    diff = np.empty((rows, m)) if X.shape[1] > 1 else None
    radial = _RADIAL[spec.family]
    # far points square to inf, which every profile maps to exactly 0
    with np.errstate(over="ignore"):
        for start in range(0, n, rows):
            stop, left = min(start + rows, n), start if shared else 0
            block = out[start:stop, left:]
            _squared_distances(X[start:stop], Y[left:], block, diff)
            radial(spec, np.sqrt(block, out=block))
            if left:
                out[start:stop, :left] = out[:left, start:stop].T
    return out


def _point_sets(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as points (``_as_points``); ValueError on mixed dimensions."""
    X = _as_points(X, "X")
    Y = _as_points(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]}-d points against {Y.shape[1]}-d points")
    return X, Y


def kernel_cross(spec: KernelSpec, X, Y) -> np.ndarray:
    """(len(X), len(Y)) matrix of correlations between two point sets;
    ValueError on a non-finite coordinate or mixed dimensions."""
    return _kernel(spec, *_point_sets(X, Y))


def kernel_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric correlation matrix of one point set: ``kernel_cross(spec,
    X, X)``, the same build, so its diagonal is exactly 1.

    K equals its transpose bit-exactly: the distance from x_i to x_j squares
    the exact negation of the difference from x_j to x_i.  Duplicate points
    are allowed; the result may then be singular (downstream code always
    regularizes with rho*I).  No points give the 0 x 0 matrix.
    """
    P = _as_points(X, "X")
    return _kernel(spec, P, P)


class KernelRows:
    """The rows of the block ``kernel_cross(spec, X, Y)``, each built when it
    is first read and then kept: an append-only store for readers that need
    only some rows, as a run needs the rows of the points it plays.

    ``take`` reads rows as ``ndarray.take`` reads them from the whole block
    along axis 0, so a store and an array read alike, and hands out copies;
    a row built alone equals the whole build's row bit for bit.  A store is
    its block and no other: a reader that needs further columns makes a
    store of the wider block, whose rows agree with this one's wherever both
    have an entry.  Rows are packed in first-use order into a
    buffer of the block's size, so only the rows written are mapped: NumPy
    asks for huge pages on large arrays, which rows written where they lie
    would map whole.

    A general-order Matern block is built whole by the constructor, since
    each ``bessel_k`` call has a fixed cost that one row at a time would pay
    per row.  So every kernel failure (``K_nu`` overflows, or its quadrature
    does not converge) raises from the constructor, and the rows built on
    first read evaluate closed forms, which raise nothing.  ValueError, as
    ``kernel_cross``, on a non-finite coordinate or mixed dimensions.
    """

    def __init__(self, spec: KernelSpec, X, Y):
        X, Y = _point_sets(X, Y)
        self._spec, self._X, self._Y = spec, X, Y
        m, n = X.shape[0], Y.shape[0]
        self.shape = (m, n)
        # each row's place in the packed buffer, -1 until it is built
        self._slot = np.full(m, -1, dtype=np.intp)
        if spec.family is KernelFamily.MATERN and not _is_half_integer(spec.nu):
            self._packed = kernel_cross(spec, X, Y)
            self._slot[:] = np.arange(m)
        else:
            self._packed = np.empty((m, n))

    def take(self, rows, axis=0, out=None, mode="clip") -> np.ndarray:
        """Rows ``rows`` of the block (an index, or an array of them, giving
        an array of its shape plus a row's), into ``out`` when given, as
        ``block.take(rows, axis=0, out=out, mode=mode)`` gives them; rows
        are the only axis taken."""
        if axis != 0:
            raise ValueError(f"a KernelRows is taken along axis 0, not {axis}")
        rows = np.asarray(rows, dtype=np.intp)
        slots = self._slot[rows]
        new = rows[slots < 0]
        if new.size:
            # a row asked for twice is built once; np.unique would import
            # numpy.ma, which a report otherwise never loads (CHANGES.md,
            # "Peaks per command", measured its cost)
            new = np.flatnonzero(np.bincount(new, minlength=self.shape[0])) if new.size > 1 else new
            start = np.count_nonzero(self._slot >= 0)
            self._packed[start:start + new.size] = kernel_cross(self._spec, self._X[new], self._Y)
            self._slot[new] = np.arange(start, start + new.size)
            slots = self._slot[rows]
        return self._packed.take(slots, axis=0, out=out, mode=mode)
