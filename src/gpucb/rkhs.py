"""Synthetic objectives as finite kernel expansions with exactly known norm.

A function f(x) = sum_j c_j psi(x - x_j) has squared native-space norm
c' K c with K the kernel matrix of the centers, so test objectives can be
scaled to any target norm B exactly.  Their sup-norm never exceeds the
native norm, which every test of the error bounds relies on.  Through
``posterior._held``, the seeds of a suite share one build of an explicit
objective and of its values over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Box, KernelSpec, NumericError
from .kernels import kernel_cross, kernel_matrix
from .posterior import _held

__all__ = [
    "RkhsFunction",
    "make_rkhs_function",
    "scale_to_norm",
    "sample_random_rkhs",
    "grid_maximum",
]


@dataclass(frozen=True)
class RkhsFunction:
    """Finite kernel expansion with cached exact native-space norm."""

    spec: KernelSpec
    centers: np.ndarray  # (m, d)
    coeffs: np.ndarray   # (m,)
    norm: float

    def on_points(self, X) -> np.ndarray:
        """Values at an (n, d) array of points, one per row (a single point
        may be given as a 1-d sequence); ValueError on a non-finite coordinate."""
        return kernel_cross(self.spec, self.centers, X).T @ self.coeffs


def make_rkhs_function(spec: KernelSpec, centers, coeffs) -> RkhsFunction:
    """Build the expansion and cache its norm sqrt(c' K c).

    Duplicate centers are allowed; K is positive semidefinite so the
    quadratic form cannot be meaningfully negative.  NumericError when the
    form overflows double precision or comes out negative.
    """
    centers = np.atleast_2d(np.array(centers, dtype=float))
    coeffs = np.array(coeffs, dtype=float).reshape(-1)
    if centers.shape[0] != coeffs.shape[0]:
        raise ValueError(f"{centers.shape[0]} centers but {coeffs.shape[0]} coefficients")
    if centers.shape[0] < 1:
        raise ValueError("need at least one center")
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(coeffs))):
        raise ValueError("centers and coefficients must be finite")
    K = kernel_matrix(spec, centers)
    # huge coefficients overflow the form to inf, or to NaN where infs cancel
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = float(coeffs @ K @ coeffs)
    if not math.isfinite(norm_sq):
        raise NumericError(f"squared norm overflows double precision: the quadratic form gives {norm_sq}")
    if norm_sq < -1e-10:
        raise NumericError(f"negative squared norm {norm_sq} from a PSD quadratic form")
    centers.setflags(write=False)
    coeffs.setflags(write=False)
    return RkhsFunction(spec, centers, coeffs, math.sqrt(max(norm_sq, 0.0)))


def _shared_objective(spec: KernelSpec, centers, coeffs) -> RkhsFunction:
    """``make_rkhs_function(spec, centers, coeffs)``, held once per process:
    the same kernel, centers and coefficients, bit for bit, give the same
    function until another objective is asked for."""
    centers = np.atleast_2d(np.array(centers, dtype=float))
    coeffs = np.array(coeffs, dtype=float).reshape(-1)
    return _held("objective", (spec, centers, coeffs), lambda: make_rkhs_function(spec, centers, coeffs))


def _objective_values(f: RkhsFunction, grid: np.ndarray) -> np.ndarray:
    """Read-only ``f.on_points(grid)``, held once per process for the
    objective's kernel, centers and coefficients and the grid, until
    another objective or grid is asked for."""
    return _held("values", (f.spec, f.centers, f.coeffs, grid), lambda: f.on_points(grid))


def scale_to_norm(f: RkhsFunction, B: float) -> RkhsFunction:
    """``f`` with its coefficients rescaled so the norm is B (> 0), which the
    result holds as its norm: scaling multiplies c' K c by (B / norm)^2, so
    no kernel matrix is built.  ValueError for B <= 0 or the zero function;
    NumericError when B * B, the squared norm, overflows double precision."""
    if not B > 0.0:
        raise ValueError(f"target norm must be positive, got {B}")
    if f.norm == 0.0:
        raise ValueError("cannot rescale the zero function")
    if not math.isfinite(B * B):
        raise NumericError(f"squared norm overflows double precision: B = {B} squares to {B * B}")
    coeffs = f.coeffs * (B / f.norm)
    coeffs.setflags(write=False)
    return RkhsFunction(f.spec, f.centers, coeffs, float(B))


def sample_random_rkhs(spec: KernelSpec, m: int, B: float, domain: Box, seed: int) -> RkhsFunction:
    """Random objective: m centers uniform in the box, normal coefficients,
    rescaled to norm B.  Deterministic given the seed: the seed's objective
    stream, ``default_rng([seed, 0])``, draws it, and draws again after a
    degenerate draw of norm 0."""
    if m < 1:
        raise ValueError(f"need m >= 1 centers, got {m}")
    if not B > 0.0:
        raise ValueError(f"target norm must be positive, got {B}")
    rng = np.random.default_rng([seed, 0])
    lo = np.asarray(domain.lower)
    hi = np.asarray(domain.upper)
    while True:
        centers = rng.uniform(lo, hi, size=(m, domain.dim))
        coeffs = rng.standard_normal(m)
        f = make_rkhs_function(spec, centers, coeffs)
        # a norm of 0 is a probability-zero degenerate draw
        if f.norm != 0.0:
            return scale_to_norm(f, B)


def grid_maximum(f: RkhsFunction, grid) -> tuple[np.ndarray, float]:
    """Exhaustive argmax over a finite grid; ties go to the lowest index."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("grid must be non-empty")
    values = f.on_points(grid)
    i = int(np.argmax(values))
    return grid[i].copy(), float(values[i])
