"""Declarative experiment configuration and its flat key-path text format.

A config file is plain ``key = value`` lines with dotted key paths, for
example::

    kernel.family = matern
    kernel.nu = 1.5
    kernel.lengthscale = 0.5
    domain.dim = 1
    domain.lower = 0
    domain.upper = 1
    rho = 1
    noise.kind = normal
    noise.sigma = 0.1
    horizon = 512
    beta.kind = log_product
    beta.delta = 0.1
    beta.c0 = 1
    beta.c_subg = 1
    candidates.count = 256
    candidates.method = lattice
    eval_grid.count = 256
    objective.kind = random
    objective.m = 30
    objective.B = 2
    seeds = 0, 1, 2

Vectors are comma lists; explicit objective centers are semicolon-separated
points.  Lattice counts round to the nearest per-axis integer grid, so the
realized count is the nearest perfect d-th power.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .kernels import KernelFamily, KernelSpec
from .rkhs import Box, RkhsFunction, _fmt, make_rkhs_function, sample_random_rkhs
from .ucb import BetaKind, BetaSchedule

__all__ = [
    "ConfigError",
    "ObjectiveSpec",
    "ExperimentConfig",
    "parse_config",
    "parse_config_file",
    "render_config",
    "lattice_points",
    "halton_points",
]


class ConfigError(ValueError):
    """Invalid or missing configuration; carries the offending key and line."""

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None):
        loc = ""
        if key is not None:
            loc += f" (key: {key})"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.key = key
        self.line = line


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str                       # "random" | "explicit"
    m: int = 1
    B: float = 1.0
    centers: tuple[tuple[float, ...], ...] | None = None
    coeffs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: KernelSpec
    domain: Box
    rho: float
    noise_kind: str
    noise_sigma: float
    horizon: int
    beta: BetaSchedule
    candidates_count: int
    candidates_method: str
    eval_grid_count: int
    objective: ObjectiveSpec
    seeds: tuple[int, ...]
    grid_gap: float = 0.0

    def validate(self) -> None:
        if self.rho <= 0.0:
            raise ConfigError("rho must be positive", key="rho")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1", key="horizon")
        if self.candidates_count < 1:
            raise ConfigError("candidates.count must be >= 1", key="candidates.count")
        if self.eval_grid_count < self.candidates_count:
            raise ConfigError(
                "eval_grid.count must be >= candidates.count", key="eval_grid.count"
            )
        if self.candidates_method not in ("lattice", "low_discrepancy"):
            raise ConfigError(
                f"unknown candidates.method {self.candidates_method!r}",
                key="candidates.method",
            )
        if self.noise_kind not in ("normal", "uniform"):
            raise ConfigError(f"unknown noise.kind {self.noise_kind!r}", key="noise.kind")
        if self.noise_sigma < 0.0:
            raise ConfigError("noise.sigma must be >= 0", key="noise.sigma")
        if self.grid_gap < 0.0:
            raise ConfigError("grid_gap must be >= 0", key="grid_gap")
        if not self.seeds:
            raise ConfigError("at least one seed is required", key="seeds")
        obj = self.objective
        if obj.kind == "random":
            if obj.m < 1:
                raise ConfigError("objective.m must be >= 1", key="objective.m")
            if obj.B <= 0.0:
                raise ConfigError("objective.B must be positive", key="objective.B")
        elif obj.kind == "explicit":
            if obj.centers is None or obj.coeffs is None:
                raise ConfigError(
                    "explicit objective needs centers and coeffs", key="objective.centers"
                )
            centers = np.array(obj.centers, dtype=float)
            if centers.shape[1] != self.domain.dim:
                raise ConfigError(
                    "objective.centers dimension != domain.dim", key="objective.centers"
                )
            if not self.domain.contains(centers):
                raise ConfigError(
                    "objective.centers must lie inside the domain", key="objective.centers"
                )
        else:
            raise ConfigError(f"unknown objective.kind {obj.kind!r}", key="objective.kind")

    # -- point sets ---------------------------------------------------------

    def candidate_points(self) -> np.ndarray:
        if self.candidates_method == "lattice":
            return lattice_points(self.domain, self.candidates_count)
        return halton_points(self.domain, self.candidates_count)

    def evaluation_points(self) -> np.ndarray:
        """Evaluation grid: eval lattice merged with the candidate set.

        Candidates come first (stable indices), then any lattice point not
        already present, so the evaluation grid is always a superset of the
        candidate grid."""
        cand = self.candidate_points()
        extra = lattice_points(self.domain, self.eval_grid_count)
        seen = {row.tobytes() for row in cand}
        new_rows = [row for row in extra if row.tobytes() not in seen]
        if not new_rows:
            return cand
        return np.vstack([cand, np.array(new_rows)])

    # -- per-seed streams ---------------------------------------------------

    def objective_for_seed(self, seed: int) -> RkhsFunction:
        """The run objective: the master seed's offset-0 stream draws it, so
        horizon and noise settings never change the function."""
        obj = self.objective
        if obj.kind == "explicit":
            return make_rkhs_function(self.kernel, obj.centers, obj.coeffs)
        return sample_random_rkhs(self.kernel, obj.m, obj.B, self.domain, seed)

    def digest(self) -> str:
        return hashlib.sha256(render_config(self).encode()).hexdigest()[:16]

    def with_override(self, key: str, value) -> "ExperimentConfig":
        """New config with one scalar key-path replaced (sweep support)."""
        if key == "horizon":
            return replace(self, horizon=int(value))
        if key == "rho":
            return replace(self, rho=float(value))
        if key == "noise.sigma":
            return replace(self, noise_sigma=float(value))
        if key == "grid_gap":
            return replace(self, grid_gap=float(value))
        if key == "objective.B":
            return replace(self, objective=replace(self.objective, B=float(value)))
        if key == "kernel.lengthscale":
            return replace(self, kernel=replace(self.kernel, lengthscale=float(value)))
        if key == "kernel.nu":
            return replace(self, kernel=replace(self.kernel, nu=float(value)))
        if key in ("beta.c0", "beta.c_subg", "beta.delta", "beta.constant_value"):
            field = key.split(".", 1)[1]
            return replace(self, beta=replace(self.beta, **{field: float(value)}))
        if key in ("candidates.count", "eval_grid.count"):
            field = "candidates_count" if key == "candidates.count" else "eval_grid_count"
            return replace(self, **{field: int(value)})
        raise ConfigError(f"cannot sweep over key {key!r}", key=key)


# ---------------------------------------------------------------------------
# Point-set constructors
# ---------------------------------------------------------------------------


def lattice_points(box: Box, count: int) -> np.ndarray:
    """Uniform lattice with the per-axis size nearest to count**(1/d)."""
    d = box.dim
    n = max(1, round(count ** (1.0 / d)))
    axes = [np.linspace(box.lower[j], box.upper[j], n) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _van_der_corput(index: int, base: int) -> float:
    x, denom = 0.0, 1.0
    while index:
        index, rem = divmod(index, base)
        denom *= base
        x += rem / denom
    return x


def halton_points(box: Box, count: int) -> np.ndarray:
    """Halton sequence scaled into the box (first ``count`` points, 1-based)."""
    d = box.dim
    if d > len(_PRIMES):
        raise ConfigError(f"low-discrepancy sequence supports dim <= {len(_PRIMES)}")
    unit = np.array(
        [[_van_der_corput(i, _PRIMES[j]) for j in range(d)] for i in range(1, count + 1)]
    )
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    return lo + unit * (hi - lo)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = (
    "kernel.family",
    "kernel.lengthscale",
    "domain.dim",
    "domain.lower",
    "domain.upper",
    "rho",
    "noise.kind",
    "noise.sigma",
    "horizon",
    "beta.kind",
    "candidates.count",
    "candidates.method",
    "eval_grid.count",
    "objective.kind",
    "seeds",
)


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", key=key, line=line) from None


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", key=key, line=line) from None


def parse_config(text: str) -> ExperimentConfig:
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"malformed line {stripped!r}", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in fields:
            raise ConfigError(f"duplicate key {key!r}", key=key, line=lineno)
        fields[key] = value.strip()
        lines[key] = lineno

    def need(key: str) -> str:
        if key not in fields:
            raise ConfigError(f"missing key {key!r}", key=key)
        return fields[key]

    def opt(key: str, default: str) -> str:
        return fields.get(key, default)

    def lno(key: str) -> int:
        return lines.get(key, 0)

    for key in _REQUIRED_KEYS:
        need(key)

    family_raw = fields["kernel.family"].lower()
    aliases = {
        "matern": KernelFamily.MATERN,
        "se": KernelFamily.SQUARED_EXPONENTIAL,
        "squared_exponential": KernelFamily.SQUARED_EXPONENTIAL,
    }
    if family_raw not in aliases:
        raise ConfigError(
            f"unknown kernel.family {family_raw!r}", key="kernel.family", line=lno("kernel.family")
        )
    family = aliases[family_raw]
    nu = None
    if family is KernelFamily.MATERN:
        nu = _parse_float(need("kernel.nu"), "kernel.nu", lno("kernel.nu"))
        if nu <= 0.0:
            raise ConfigError("kernel.nu must be positive", key="kernel.nu", line=lno("kernel.nu"))
    lengthscale = _parse_float(fields["kernel.lengthscale"], "kernel.lengthscale", lno("kernel.lengthscale"))
    if lengthscale <= 0.0:
        raise ConfigError(
            "kernel.lengthscale must be positive", key="kernel.lengthscale", line=lno("kernel.lengthscale")
        )
    kernel = KernelSpec(family, nu=nu, lengthscale=lengthscale)

    dim = _parse_int(fields["domain.dim"], "domain.dim", lno("domain.dim"))
    if dim < 1:
        raise ConfigError("domain.dim must be >= 1", key="domain.dim", line=lno("domain.dim"))

    def vector(key: str) -> tuple[float, ...]:
        parts = [p for p in fields[key].split(",") if p.strip()]
        vals = tuple(_parse_float(p.strip(), key, lno(key)) for p in parts)
        if len(vals) == 1 and dim > 1:
            vals = vals * dim
        if len(vals) != dim:
            raise ConfigError(
                f"expected {dim} components, got {len(vals)}", key=key, line=lno(key)
            )
        return vals

    lower = vector("domain.lower")
    upper = vector("domain.upper")
    for lo, hi in zip(lower, upper):
        if not lo < hi:
            raise ConfigError(
                "domain.lower must be < domain.upper componentwise",
                key="domain.lower", line=lno("domain.lower"),
            )
    domain = Box(lower, upper)

    beta_kind_raw = fields["beta.kind"].lower()
    try:
        beta_kind = BetaKind(beta_kind_raw)
    except ValueError:
        raise ConfigError(
            f"unknown beta.kind {beta_kind_raw!r}", key="beta.kind", line=lno("beta.kind")
        ) from None
    beta = BetaSchedule(
        kind=beta_kind,
        delta=_parse_float(opt("beta.delta", "0.1"), "beta.delta", lno("beta.delta")),
        c0=_parse_float(opt("beta.c0", "1"), "beta.c0", lno("beta.c0")),
        c_subg=_parse_float(opt("beta.c_subg", "1"), "beta.c_subg", lno("beta.c_subg")),
        constant_value=_parse_float(
            opt("beta.constant_value", "1"), "beta.constant_value", lno("beta.constant_value")
        ),
    )

    obj_kind = fields["objective.kind"].lower()
    centers = coeffs = None
    if obj_kind == "explicit":
        rows = need("objective.centers").split(";")
        centers = tuple(
            tuple(_parse_float(c.strip(), "objective.centers", lno("objective.centers")) for c in row.split(","))
            for row in rows
        )
        coeffs = tuple(
            _parse_float(c.strip(), "objective.coeffs", lno("objective.coeffs"))
            for c in need("objective.coeffs").split(",")
        )
    objective = ObjectiveSpec(
        kind=obj_kind,
        m=_parse_int(opt("objective.m", "1"), "objective.m", lno("objective.m")),
        B=_parse_float(opt("objective.B", "1"), "objective.B", lno("objective.B")),
        centers=centers,
        coeffs=coeffs,
    )

    seeds = tuple(
        _parse_int(p.strip(), "seeds", lno("seeds")) for p in fields["seeds"].split(",") if p.strip()
    )

    config = ExperimentConfig(
        kernel=kernel,
        domain=domain,
        rho=_parse_float(fields["rho"], "rho", lno("rho")),
        noise_kind=fields["noise.kind"].lower(),
        noise_sigma=_parse_float(fields["noise.sigma"], "noise.sigma", lno("noise.sigma")),
        horizon=_parse_int(fields["horizon"], "horizon", lno("horizon")),
        beta=beta,
        candidates_count=_parse_int(fields["candidates.count"], "candidates.count", lno("candidates.count")),
        candidates_method=fields["candidates.method"].lower(),
        eval_grid_count=_parse_int(fields["eval_grid.count"], "eval_grid.count", lno("eval_grid.count")),
        objective=objective,
        seeds=seeds,
        grid_gap=_parse_float(opt("grid_gap", "0"), "grid_gap", lno("grid_gap")),
    )
    config.validate()
    return config


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(config: ExperimentConfig) -> str:
    """Canonical text form; parsing it back reproduces the config exactly."""
    k = config.kernel
    lines = [f"kernel.family = {k.family.value}"]
    if k.family is KernelFamily.MATERN:
        lines.append(f"kernel.nu = {_fmt(k.nu)}")
    lines.append(f"kernel.lengthscale = {_fmt(k.lengthscale)}")
    lines.append(f"domain.dim = {config.domain.dim}")
    lines.append(f"domain.lower = {', '.join(_fmt(v) for v in config.domain.lower)}")
    lines.append(f"domain.upper = {', '.join(_fmt(v) for v in config.domain.upper)}")
    lines.append(f"rho = {_fmt(config.rho)}")
    lines.append(f"noise.kind = {config.noise_kind}")
    lines.append(f"noise.sigma = {_fmt(config.noise_sigma)}")
    lines.append(f"horizon = {config.horizon}")
    b = config.beta
    lines.append(f"beta.kind = {b.kind.value}")
    lines.append(f"beta.delta = {_fmt(b.delta)}")
    lines.append(f"beta.c0 = {_fmt(b.c0)}")
    lines.append(f"beta.c_subg = {_fmt(b.c_subg)}")
    lines.append(f"beta.constant_value = {_fmt(b.constant_value)}")
    lines.append(f"candidates.count = {config.candidates_count}")
    lines.append(f"candidates.method = {config.candidates_method}")
    lines.append(f"eval_grid.count = {config.eval_grid_count}")
    obj = config.objective
    lines.append(f"objective.kind = {obj.kind}")
    if obj.kind == "explicit":
        lines.append(
            "objective.centers = "
            + "; ".join(",".join(_fmt(c) for c in row) for row in obj.centers)
        )
        lines.append(f"objective.coeffs = {', '.join(_fmt(c) for c in obj.coeffs)}")
    else:
        lines.append(f"objective.m = {obj.m}")
        lines.append(f"objective.B = {_fmt(obj.B)}")
    lines.append(f"seeds = {', '.join(str(s) for s in config.seeds)}")
    lines.append(f"grid_gap = {_fmt(config.grid_gap)}")
    return "\n".join(lines) + "\n"
