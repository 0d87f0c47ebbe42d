"""Synthetic objectives as finite kernel expansions with exactly known norm.

A function f(x) = sum_j c_j psi(x - x_j) has squared native-space norm
c' K c with K the kernel matrix of the centers, so test objectives can be
scaled to any target norm B exactly.  Their sup-norm never exceeds the
native norm, which every test of the error bounds relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelFamily, KernelSpec, kernel_cross, kernel_matrix
from .posterior import NumericError, _freeze

__all__ = [
    "Box",
    "RkhsFunction",
    "make_rkhs_function",
    "scale_to_norm",
    "sample_random_rkhs",
    "grid_maximum",
    "objective_record",
    "parse_objective_record",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box domain [lower_i, upper_i] per coordinate."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or len(self.lower) == 0:
            raise ValueError("box bounds must be non-empty and equal length")
        for lo, hi in zip(self.lower, self.upper):
            # a finite width also rules out infinite and NaN bounds
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValueError(f"box requires lower < upper and a finite upper - lower, got [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, X) -> bool:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return bool(np.all(X >= lo) and np.all(X <= hi))


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
    quadratic form cannot be meaningfully negative.
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
    norm_sq = float(coeffs @ K @ coeffs)
    if norm_sq < -1e-10:
        raise NumericError(f"negative squared norm {norm_sq} from a PSD quadratic form")
    centers.setflags(write=False)
    coeffs.setflags(write=False)
    return RkhsFunction(spec, centers, coeffs, math.sqrt(max(norm_sq, 0.0)))


# One entry: the objective that every seed of an explicit-objective suite
# names, and every record of its report, with its values over the grid the
# suite is evaluated on.
_SHARED: dict = {}


def _shared_objective(spec: KernelSpec, centers, coeffs) -> RkhsFunction:
    """``make_rkhs_function(spec, centers, coeffs)``, built once per process
    for one objective: the same kernel, centers and coefficients, bit for
    bit, give the same function until another objective is asked for."""
    centers = np.atleast_2d(np.array(centers, dtype=float))
    coeffs = np.array(coeffs, dtype=float).reshape(-1)
    key = (spec, centers.shape, centers.tobytes(), coeffs.tobytes())
    if key not in _SHARED:
        f = make_rkhs_function(spec, centers, coeffs)
        _SHARED.clear()
        _SHARED[key] = f, {}
    return _SHARED[key][0]


def _objective_values(f: RkhsFunction, grid: np.ndarray) -> np.ndarray:
    """``f.on_points(grid)``; for the shared objective read-only, and
    evaluated once per grid until another grid is asked for."""
    for shared, values in _SHARED.values():
        if shared is f:
            key = (grid.shape, grid.tobytes())
            if key not in values:
                values.clear()
                values[key] = _freeze(f.on_points(grid))
            return values[key]
    return f.on_points(grid)


def scale_to_norm(f: RkhsFunction, B: float) -> RkhsFunction:
    """Rescale coefficients so the norm equals B (> 0)."""
    if not B > 0.0:
        raise ValueError(f"target norm must be positive, got {B}")
    if f.norm == 0.0:
        raise ValueError("cannot rescale the zero function")
    return make_rkhs_function(f.spec, f.centers, f.coeffs * (B / f.norm))


def sample_random_rkhs(spec: KernelSpec, m: int, B: float, domain: Box, seed: int) -> RkhsFunction:
    """Random objective: m centers uniform in the box, normal coefficients,
    rescaled to norm B.  Deterministic given the seed."""
    if m < 1:
        raise ValueError(f"need m >= 1 centers, got {m}")
    if not B > 0.0:
        raise ValueError(f"target norm must be positive, got {B}")
    rng = np.random.default_rng(seed)
    lo = np.asarray(domain.lower)
    hi = np.asarray(domain.upper)
    centers = rng.uniform(lo, hi, size=(m, domain.dim))
    coeffs = rng.standard_normal(m)
    f = make_rkhs_function(spec, centers, coeffs)
    if f.norm == 0.0:
        # probability-zero degenerate draw
        return sample_random_rkhs(spec, m, B, domain, seed + 1)
    return scale_to_norm(f, B)


def grid_maximum(f: RkhsFunction, grid) -> tuple[np.ndarray, float]:
    """Exhaustive argmax over a finite grid; ties go to the lowest index."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("grid must be non-empty")
    values = f.on_points(grid)
    i = int(np.argmax(values))
    return grid[i].copy(), float(values[i])


# ---------------------------------------------------------------------------
# Replayable text records
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _fmt_points(X: np.ndarray) -> str:
    return "; ".join(",".join(_fmt(c) for c in row) for row in np.atleast_2d(X))


def objective_record(f: RkhsFunction, seed: int | None = None) -> str:
    """Serialize an objective for exact replay; a given seed is the first line."""
    lines = [] if seed is None else [f"seed = {seed}"]
    lines.append(f"family = {f.spec.family.value}")
    if f.spec.family is KernelFamily.MATERN:
        lines.append(f"nu = {_fmt(f.spec.nu)}")
    lines.append(f"lengthscale = {_fmt(f.spec.lengthscale)}")
    lines.append(f"centers = {_fmt_points(f.centers)}")
    lines.append(f"coeffs = {', '.join(_fmt(c) for c in f.coeffs)}")
    return "\n".join(lines) + "\n"


def _split_seed(text: str) -> tuple[int | None, str]:
    """A record's seed (None without a seed line) and the record without it;
    ValueError on a repeated or malformed seed."""
    seed, rest = None, []
    for line in text.splitlines():
        key, eq, value = line.partition("=")
        if eq and key.strip() == "seed":
            if seed is not None:
                raise ValueError("duplicate key 'seed'")
            seed = int(value.strip())
        else:
            rest.append(line)
    return seed, "\n".join(rest)


def parse_objective_record(text: str) -> tuple[RkhsFunction, int | None]:
    """Inverse of objective_record (floats round-trip bit-exactly), built
    through the shared objective; ValueError names a malformed line, a
    repeated key or a missing field."""
    seed, text = _split_seed(text)
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate key {key!r}")
        fields[key] = value.strip()
    missing = [k for k in ("family", "lengthscale", "centers", "coeffs") if k not in fields]
    if missing:
        raise ValueError(f"objective record has no {', '.join(missing)} field")
    family = KernelFamily(fields["family"])
    nu = float(fields["nu"]) if "nu" in fields else None
    spec = KernelSpec(family, nu=nu, lengthscale=float(fields["lengthscale"]))
    centers = [[float(c) for c in row.split(",")] for row in fields["centers"].split(";")]
    coeffs = [float(c) for c in fields["coeffs"].split(",")]
    return _shared_objective(spec, centers, coeffs), seed
