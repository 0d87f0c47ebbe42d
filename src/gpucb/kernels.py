"""Stationary correlation kernels and the modified Bessel function of the second kind.

Two kernel families are provided, both normalized so the zero-lag value is
exactly 1:

* Matern, with smoothness ``nu`` and lengthscale ``l``::

      psi(r) = z**nu * K_nu(z) / (gamma(nu) * 2**(nu - 1)),   z = 2*sqrt(nu)*r/l

* Squared exponential, with lengthscale ``l``::

      psi(r) = exp(-r**2 / (2 * l**2))

``K_nu`` is evaluated in-house: closed forms at half-integer orders, a
small-argument series plus a large-argument continued fraction otherwise,
joined by the standard upward recurrence in the order.  Target accuracy is
1e-10 relative, verified against an arbitrary-precision reference table.
It is evaluated over whole arrays: a general-order Matern kernel call makes
one ``bessel_k`` call on the array of its distinct distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "HolderReport",
    "bessel_k",
    "kernel_eval",
    "kernel_matrix",
    "kernel_cross",
    "holder_validate",
]


class KernelFamily(Enum):
    MATERN = "matern"
    SQUARED_EXPONENTIAL = "se"


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one stationary correlation kernel.

    ``nu`` is the Matern smoothness and must be positive for that family;
    it is ignored for the squared exponential.  ``lengthscale`` must be
    positive for both.
    """

    family: KernelFamily
    nu: float | None = None
    lengthscale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, KernelFamily):
            raise ValueError(f"unknown kernel family: {self.family!r}")
        if not (self.lengthscale > 0.0 and math.isfinite(self.lengthscale)):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if self.family is KernelFamily.MATERN:
            if self.nu is None or not (self.nu > 0.0 and math.isfinite(self.nu)):
                raise ValueError(f"Matern smoothness nu must be positive, got {self.nu}")


# ---------------------------------------------------------------------------
# Modified Bessel function K_nu
# ---------------------------------------------------------------------------

_EPS = 2.220446049250313e-16
_MAX_ITER = 500
# Arguments evaluated per vectorized pass; bounds the working arrays of a call.
_BLOCK = 4096

# Taylor coefficients of 1/gamma(1+x) = 1 + G1*x + ... (odd-order terms only;
# they drive the small-mu expansion of the gamma-difference term below).
_G1 = 0.5772156649015329
_G3 = -0.0420026350340952
_G5 = -0.0421977345555443
_G7 = 0.0072189432466630


def _gamma_terms(mu: float):
    """Auxiliary gamma combinations for the small-z series, |mu| <= 1/2.

    Returns (gam1, gam2, gampl, gammi) with
    gampl = 1/gamma(1+mu), gammi = 1/gamma(1-mu),
    gam1 = (gammi - gampl)/(2*mu) extended continuously through mu = 0,
    gam2 = (gammi + gampl)/2.
    """
    if abs(mu) < 1e-2:
        # direct evaluation loses digits to cancellation; Taylor is exact here
        mu2 = mu * mu
        gam1 = -(_G1 + mu2 * (_G3 + mu2 * (_G5 + mu2 * _G7)))
    else:
        gam1 = (1.0 / math.gamma(1.0 - mu) - 1.0 / math.gamma(1.0 + mu)) / (2.0 * mu)
    gampl = 1.0 / math.gamma(1.0 + mu)
    gammi = 1.0 / math.gamma(1.0 - mu)
    return gam1, 0.5 * (gammi + gampl), gampl, gammi


# Both base-pair solvers iterate over a 1-D array of arguments.  An element
# leaves the active set at the step where its own stopping test holds, so
# every value is what a scalar loop would return, whatever else is in the
# batch.


def _k_series_small(mu: float, z: np.ndarray):
    """(K_mu(z), K_{mu+1}(z)) by power series, for z <= 2 and |mu| <= 1/2."""
    k_mu, k_mu1 = np.empty_like(z), np.empty_like(z)
    half_z = 0.5 * z
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu != 0.0 else 1.0
    d = -np.log(half_z)
    e = mu * d
    fact2 = np.ones_like(e)
    nonzero = e != 0.0
    fact2[nonzero] = np.sinh(e[nonzero]) / e[nonzero]
    gam1, gam2, gampl, gammi = _gamma_terms(mu)
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    total = ff
    e = np.exp(e)
    p = 0.5 * e / gampl
    q = 0.5 / (e * gammi)
    c = np.ones_like(z)
    z2 = half_z * half_z
    total1 = p
    mu2 = mu * mu
    active = np.arange(z.size)
    i = 0
    while active.size:
        i += 1
        if i > _MAX_ITER:
            raise ArithmeticError(f"K_nu series failed to converge at mu={mu}, z={z[0]}")
        ff = (i * ff + p + q) / (i * i - mu2)
        c = c * (z2 / i)
        p = p / (i - mu)
        q = q / (i + mu)
        delta = c * ff
        total = total + delta
        total1 = total1 + c * (p - i * ff)
        done = np.abs(delta) < np.abs(total) * _EPS
        if done.any():
            k_mu[active[done]] = total[done]
            k_mu1[active[done]] = total1[done] * (2.0 / z[done])
            left = ~done
            active, z, z2, ff, c, p, q, total, total1 = (
                v[left] for v in (active, z, z2, ff, c, p, q, total, total1)
            )
    return k_mu, k_mu1


def _k_continued_fraction(mu: float, z: np.ndarray):
    """(K_mu(z), K_{mu+1}(z)) by Steed's continued fraction, for z > 2."""
    k_mu, k_mu1 = np.empty_like(z), np.empty_like(z)
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = delh = d
    q1, q2 = np.zeros_like(z), np.ones_like(z)
    a1 = 0.25 - mu * mu
    q = np.full_like(z, a1)
    c = a1  # c and a follow the same sequence for every element
    a = -a1
    s = 1.0 + q * delh
    active = np.arange(z.size)
    i = 1
    while active.size:
        i += 1
        if i > _MAX_ITER:
            raise ArithmeticError(
                f"K_nu continued fraction failed to converge at mu={mu}, z={z[0]}"
            )
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        done = np.abs(dels / s) < _EPS
        if done.any():
            zd = z[done]
            k = np.sqrt(math.pi / (2.0 * zd)) * np.exp(-zd) / s[done]
            k_mu[active[done]] = k
            k_mu1[active[done]] = k * (mu + zd + 0.5 - a1 * h[done]) / zd
            left = ~done
            active, z, b, d, delh, h, q1, q2, q, s = (
                v[left] for v in (active, z, b, d, delh, h, q1, q2, q, s)
            )
    return k_mu, k_mu1


def _is_half_integer(nu: float) -> bool:
    two_nu = 2.0 * nu
    return two_nu == math.floor(two_nu) and int(two_nu) % 2 == 1


def _bessel_k_half_integer(nu: float, z: np.ndarray) -> np.ndarray:
    # K_{n+1/2}(z) = sqrt(pi/(2z)) e^{-z} sum_{k=0}^{n} (n+k)!/(k!(n-k)!) (2z)^{-k}
    n = int(round(nu - 0.5))
    coef = 1.0
    acc = 1.0
    for k in range(1, n + 1):
        coef = coef * ((n + k) * (n - k + 1) / (2.0 * k * z))
        acc = acc + coef
    return np.sqrt(math.pi / (2.0 * z)) * np.exp(-z) * acc


def _bessel_k_general(nu: float, z) -> np.ndarray:
    """K_nu(z) elementwise by the series / continued-fraction path, any real nu.

    Returns an array of z's shape.  No argument or overflow checks: those
    belong to ``bessel_k``.
    """
    # base order mu in [-1/2, 1/2]; K is even in its order, so the shifted
    # base pair feeds the usual three-term upward recurrence
    z = np.asarray(z, dtype=float)
    n = int(nu + 0.5)
    mu = nu - n
    k_mu, k_mu1 = np.empty_like(z), np.empty_like(z)
    small = z <= 2.0
    k_mu[small], k_mu1[small] = _k_series_small(mu, z[small])
    k_mu[~small], k_mu1[~small] = _k_continued_fraction(mu, z[~small])
    for j in range(1, n + 1):
        k_mu, k_mu1 = k_mu1, k_mu + (2.0 * (mu + j) / z) * k_mu1
    return k_mu


def bessel_k(nu: float, z):
    """Modified Bessel function of the second kind, K_nu(z), for nu > 0, z > 0.

    ``z`` is a float or an array; a float gives a float, an array gives an
    array of its shape.  Half-integer orders use the finite exponential sum;
    other orders use a small-z series or large-z continued fraction for the
    base pair (K_mu, K_{mu+1}) and recur upward in the order.  Arguments are
    evaluated in blocks of ``_BLOCK``, each element exactly as it would be
    alone.

    Raises ValueError for any z <= 0 or for nu <= 0, and OverflowError if a
    value exceeds the double range (tiny z at large order).
    """
    if not (nu > 0.0 and math.isfinite(nu)):
        raise ValueError(f"order nu must be positive and finite, got {nu}")
    za = np.asarray(z, dtype=float)
    flat = za.reshape(-1)
    bad = np.flatnonzero(~((flat > 0.0) & np.isfinite(flat)))
    if bad.size:
        raise ValueError(f"argument z must be positive and finite, got {flat[bad[0]]}")
    evaluate = _bessel_k_half_integer if _is_half_integer(nu) else _bessel_k_general
    out = np.empty_like(flat)
    with np.errstate(over="ignore"):
        for start in range(0, flat.size, _BLOCK):
            out[start:start + _BLOCK] = evaluate(nu, flat[start:start + _BLOCK])
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
    poly = np.zeros_like(z)
    for k in range(n + 1):
        poly = poly * z + coeffs[k]
    return poly * np.exp(-z)


def _matern_radial(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    nu = spec.nu
    z = (2.0 * math.sqrt(nu) / spec.lengthscale) * r
    out = np.ones_like(z)
    pos = z > 0.0
    if not np.any(pos):
        return out
    zp = z[pos]
    if _is_half_integer(nu):
        out[pos] = _matern_half_integer_radial(nu, zp)
        return out
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
    out[pos] = vals[inverse]
    return out


def _se_radial(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    u = r / spec.lengthscale
    return np.exp(-0.5 * u * u)


def _radial(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    if spec.family is KernelFamily.MATERN:
        return _matern_radial(spec, r)
    return _se_radial(spec, r)


# ---------------------------------------------------------------------------
# Kernel operations
# ---------------------------------------------------------------------------


def _as_point(x, name: str) -> np.ndarray:
    p = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name} has non-finite coordinates: {p}")
    return p


def kernel_eval(spec: KernelSpec, x, x2) -> float:
    """Correlation between two points, psi(x - x2); exactly 1 at zero lag."""
    p = _as_point(x, "x")
    q = _as_point(x2, "x2")
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    r = float(np.linalg.norm(p - q))
    if r == 0.0:
        return 1.0
    return float(_radial(spec, np.array([r]))[0])


def _pairwise_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # one coordinate at a time, so no (n, m, d) temporary is built
    sq = np.zeros((X.shape[0], Y.shape[0]))
    for k in range(X.shape[1]):
        diff = np.subtract.outer(X[:, k], Y[:, k])
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


def kernel_cross(spec: KernelSpec, X, Y) -> np.ndarray:
    """(len(X), len(Y)) matrix of correlations between two point sets."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]}-d points against {Y.shape[1]}-d points")
    return _radial(spec, _pairwise_distances(X, Y))


def kernel_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric correlation matrix of one point set, unit diagonal.

    K equals its transpose bit-exactly: the distance from x_i to x_j squares
    the exact negation of the difference from x_j to x_i.  Duplicate points
    are allowed; the result may then be singular (downstream code always
    regularizes with rho*I).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("kernel_matrix needs at least one point")
    K = _radial(spec, _pairwise_distances(X, X))
    np.fill_diagonal(K, 1.0)
    return K


# ---------------------------------------------------------------------------
# Holder-continuity validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderReport:
    theta: float
    fitted_A0: float
    max_ratio: float


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
        gap = 1.0 - _radial(spec, r)
    ratios = gap / r**theta
    if not np.all(np.isfinite(ratios)):
        raise ArithmeticError("Holder ratio diverged on sampled radii")
    a0 = float(np.max(ratios))
    return HolderReport(theta=theta, fitted_A0=a0, max_ratio=a0)
