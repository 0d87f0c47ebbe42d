"""Declarative experiment configuration and its flat key-path text format.

A config file is plain ``key = value`` lines with dotted key paths, such as
``kernel.nu = 1.5`` or ``seeds = 0, 1, 2``; blank lines and ``#`` comments
are skipped.  The table ``_KEYS`` is the format's definition.  It has one
row per key, in canonical render order, giving the key's kind (how its text
parses and renders), its default text or ``_REQUIRED``, the values of a
key it applies under (``beta.c_subg`` only for ``log_product``, say), and
whether a sweep may override it.  ``parse_config``, ``render_config`` and
``ExperimentConfig.with_override`` all go through that one table, so a
value gets the same conversion and checks wherever it comes from.

A key outside the table is an error; a known key that does not apply is
accepted, ignored and not rendered.  Vectors are comma lists, a single
value repeated to ``domain.dim`` components; explicit objective centers are
semicolon-separated points.  Lattice counts round to the nearest per-axis
integer grid, so the realized count is the nearest perfect d-th power.
A config fixes each seed's objective: ``ExperimentConfig.objective_for_seed``
draws it from the config and the seed alone, so a run writes no copy of it.

This module is the package's NumPy-free layer.  The value types a config is
made of (``KernelSpec``, ``Box``, ``BetaSchedule``, ``ObjectiveSpec``) and
the two error types live here, and each part holds only the fields its kind
reads, the rest None, so configs with the same text compare and hash equal.
NumPy, the objective's module and ``hashlib`` load in the methods that use
them, so parsing and checking a config, as ``validate`` does, loads none.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .rkhs import RkhsFunction

__all__ = [
    "ConfigError",
    "NumericError",
    "KernelFamily",
    "KernelSpec",
    "Box",
    "BetaKind",
    "BetaSchedule",
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
        self.message = message
        self.key = key
        self.line = line


class NumericError(RuntimeError):
    """Numeric failure (non-SPD pivot, negative variance, non-finite value)."""

    def __init__(self, message: str, *, index: int | None = None, step: int | None = None):
        super().__init__(message)
        self.index = index
        self.step = step


# ---------------------------------------------------------------------------
# Value types: the parts of a config
# ---------------------------------------------------------------------------


def _keep_read(part, section: str) -> None:
    """Set each field of ``part``, the config's ``section``, that its kind does
    not read to None, by the rules of ``_KEYS``: a part holds what its text
    holds, so parts with the same text compare and hash equal."""
    values = {f"{section}.{name}": value for name, value in vars(part).items()}
    for key, spec in _KEYS.items():
        if key in values and not spec.applies(values):
            object.__setattr__(part, key.partition(".")[2], None)


class KernelFamily(Enum):
    MATERN = "matern"
    SQUARED_EXPONENTIAL = "se"


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one stationary correlation kernel.

    ``nu`` is the Matern smoothness and must be positive for that family;
    the squared exponential reads none, and its spec holds None.
    ``lengthscale`` must be positive for both.
    """

    family: KernelFamily
    nu: float | None = None
    lengthscale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, KernelFamily):
            raise ValueError(f"unknown kernel family: {self.family!r}")
        _keep_read(self, "kernel")
        if not (self.lengthscale > 0.0 and math.isfinite(self.lengthscale)):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if self.family is KernelFamily.MATERN:
            if self.nu is None or not (self.nu > 0.0 and math.isfinite(self.nu)):
                raise ValueError(f"Matern smoothness nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box domain [lower_i, upper_i] per coordinate."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        # bounds given as lists are held as the tuples that parsing gives
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))
        if len(self.lower) != len(self.upper) or len(self.lower) == 0:
            raise ValueError("box bounds must be non-empty and equal length")
        for lo, hi in zip(self.lower, self.upper):
            # a finite width also rules out infinite and NaN bounds
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValueError(f"box requires lower < upper and a finite upper - lower, got [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, points) -> bool:
        """Whether every point, a row of ``dim`` coordinates, lies in the box;
        ValueError on a row of another length."""
        return all(lo <= x <= hi for row in points for x, lo, hi in zip(row, self.lower, self.upper, strict=True))


class BetaKind(Enum):
    # product of the two logarithmic factors ln(1+rho*t) and ln(e + c*t^2/delta)
    LOG_PRODUCT = "log_product"
    # classic 2*ln(t^2 * 2*pi^2 / (3*delta)) baseline, plus c0 as an additive offset
    SRINIVAS = "srinivas"
    CONSTANT = "constant"


@dataclass(frozen=True)
class BetaSchedule:
    """Exploration-weight schedule beta_t; the fields its kind does not read
    hold None."""

    kind: BetaKind
    delta: float | None = 0.1
    c0: float | None = 1.0
    c_subg: float | None = 1.0
    constant_value: float | None = 1.0

    def __post_init__(self):
        _keep_read(self, "beta")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        for name in ("c0", "c_subg", "constant_value"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class ObjectiveSpec:
    """The objective: ``m`` and ``B`` for a random draw, ``centers`` and
    ``coeffs`` for an explicit one; the fields its kind does not read hold
    None."""

    kind: str                       # "random" | "explicit"
    m: int | None = 1
    B: float | None = 1.0
    centers: tuple[tuple[float, ...], ...] | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        _keep_read(self, "objective")
        # centers and coefficients given as lists are held as the tuples that parsing gives
        if self.centers is not None:
            object.__setattr__(self, "centers", tuple(map(tuple, self.centers)))
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))


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

    def validate(self) -> None:
        """Checks that span several fields.  A single key's checks run where
        it is parsed (``_KEYS``) or in the constructor of its part."""
        if self.eval_grid_count < self.candidates_count:
            raise ConfigError(
                "eval_grid.count must be >= candidates.count", key="eval_grid.count"
            )
        if self.candidates_method == "low_discrepancy" and self.domain.dim > len(_PRIMES):
            raise ConfigError(
                f"low_discrepancy candidates support domain.dim <= {len(_PRIMES)}",
                key="domain.dim",
            )
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct replicates", key="seeds")
        obj = self.objective
        if obj.kind == "explicit":
            if not obj.centers or obj.coeffs is None or len(obj.coeffs) != len(obj.centers):
                raise ConfigError(
                    "explicit objective needs one coefficient per center", key="objective.coeffs"
                )
            if any(len(row) != self.domain.dim for row in obj.centers):
                raise ConfigError(
                    "objective.centers dimension != domain.dim", key="objective.centers"
                )
            if not self.domain.contains(obj.centers):
                raise ConfigError(
                    "objective.centers must lie inside the domain", key="objective.centers"
                )

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
        import numpy as np

        cand = self.candidate_points()
        extra = lattice_points(self.domain, self.eval_grid_count)
        seen = {row.tobytes() for row in cand}
        new_rows = [row for row in extra if row.tobytes() not in seen]
        if not new_rows:
            return cand
        return np.vstack([cand, np.array(new_rows)])

    # -- per-seed streams ---------------------------------------------------

    def objective_for_seed(self, seed: int) -> RkhsFunction:
        """The run objective, drawn from the seed's own objective stream, so
        horizon and noise settings never change the function.  An explicit
        objective is the same for every seed, built once per process."""
        from .rkhs import _shared_objective, sample_random_rkhs

        obj = self.objective
        if obj.kind == "explicit":
            return _shared_objective(self.kernel, obj.centers, obj.coeffs)
        return sample_random_rkhs(self.kernel, obj.m, obj.B, self.domain, seed)

    def digest(self) -> str:
        import hashlib

        return hashlib.sha256(render_config(self).encode()).hexdigest()[:16]

    def with_override(self, key: str, value) -> "ExperimentConfig":
        """New config with one sweepable key set to ``value`` (sweep support).

        The value is converted and checked exactly as the same text in a
        config file would be; a key that does not apply is not sweepable."""
        fields = _flatten(self)
        axes = [k for k in fields if _KEYS[k].sweep]
        if key not in axes:
            raise ConfigError(f"cannot sweep over key {key!r}; this config sweeps {', '.join(axes)}", key=key)
        return _build({**fields, key: str(value).strip()})


# ---------------------------------------------------------------------------
# Point-set constructors
# ---------------------------------------------------------------------------


def lattice_points(box: Box, count: int) -> np.ndarray:
    """Uniform lattice with the per-axis size nearest to count**(1/d)."""
    import numpy as np

    d = box.dim
    n = max(1, round(count ** (1.0 / d)))
    axes = [np.linspace(box.lower[j], box.upper[j], n) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _radical_inverses(count: int, base: int) -> np.ndarray:
    """The base-``base`` radical inverses of 1..count.  Each takes the float
    steps of the scalar digit loop, x += digit / base**k from the lowest
    digit up; an index out of digits adds 0.0, which leaves x as it is."""
    import numpy as np

    index = np.arange(1, count + 1)
    x = np.zeros(count)
    denom = 1.0
    while index.any():
        index, digit = np.divmod(index, base)
        denom *= base
        x += digit / denom
    return x


def halton_points(box: Box, count: int) -> np.ndarray:
    """Halton sequence scaled into the box (first ``count`` points, 1-based)."""
    import numpy as np

    d = box.dim
    if d > len(_PRIMES):
        raise ConfigError(f"low-discrepancy sequence supports dim <= {len(_PRIMES)}")
    unit = np.column_stack([_radical_inverses(count, _PRIMES[j]) for j in range(d)])
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    return lo + unit * (hi - lo)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    """How one key's value is read from text and written back."""

    parse: Callable[[str], Any]
    render: Callable[[Any], str]


_fmt = "{:.17g}".format  # round-trip digits: the text parses back to the same double


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], rule: str):
    def check(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"must be {rule}, got {raw}")
        return value

    return check


def _list(parse: Callable[[str], Any], sep: str = ","):
    def split(raw: str) -> tuple:
        items = tuple(parse(part.strip()) for part in raw.split(sep) if part.strip())
        if not items:
            raise ValueError("expected at least one value")
        return items

    return split


def _word(*names: str) -> _Kind:
    def parse(raw: str) -> str:
        if raw.lower() not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {raw!r}")
        return raw.lower()

    return _Kind(parse, str)


def _enum(cls) -> _Kind:
    """A member spelled by its value or its lower-case name (``se`` or
    ``squared_exponential``)."""

    def parse(raw: str):
        for member in cls:
            if raw.lower() in (member.value, member.name.lower()):
                return member
        raise ValueError(f"expected one of {', '.join(m.value for m in cls)}, got {raw!r}")

    return _Kind(parse, lambda member: member.value)


_FLOAT = _Kind(_float, _fmt)
_POSITIVE = _Kind(_checked(_float, lambda v: v > 0.0, "positive"), _fmt)
_NONNEGATIVE = _Kind(_checked(_float, lambda v: v >= 0.0, ">= 0"), _fmt)
_COUNT = _Kind(_checked(_int, lambda v: v >= 1, ">= 1"), str)
_FLOATS = _Kind(_list(_float), lambda v: ", ".join(map(_fmt, v)))
_POINTS = _Kind(
    _list(_list(_float), ";"), lambda v: "; ".join(",".join(map(_fmt, row)) for row in v)
)
_SEEDS = _Kind(_list(_checked(_int, lambda v: v >= 0, ">= 0")), lambda v: ", ".join(map(str, v)))

_REQUIRED = None
_MATERN = ("kernel.family", {KernelFamily.MATERN})
_EXPLICIT = ("objective.kind", {"explicit"})
_RANDOM = ("objective.kind", {"random"})
_LOGARITHMIC = ("beta.kind", {BetaKind.LOG_PRODUCT, BetaKind.SRINIVAS})
_LOG_PRODUCT = ("beta.kind", {BetaKind.LOG_PRODUCT})
_CONSTANT = ("beta.kind", {BetaKind.CONSTANT})


class _Key(NamedTuple):
    kind: _Kind
    default: str | None                  # text used when the key is absent
    when: tuple[str, set] | None = None  # applies only while that key has one of those values
    sweep: bool = False                  # a sweep axis may override it

    def applies(self, values: dict[str, Any]) -> bool:
        return self.when is None or values[self.when[0]] in self.when[1]


_KEYS = {
    "kernel.family": _Key(_enum(KernelFamily), _REQUIRED),
    "kernel.nu": _Key(_FLOAT, _REQUIRED, when=_MATERN, sweep=True),
    "kernel.lengthscale": _Key(_FLOAT, _REQUIRED, sweep=True),
    "domain.dim": _Key(_COUNT, _REQUIRED),
    "domain.lower": _Key(_FLOATS, _REQUIRED),
    "domain.upper": _Key(_FLOATS, _REQUIRED),
    "rho": _Key(_POSITIVE, _REQUIRED, sweep=True),
    "noise.kind": _Key(_word("normal", "uniform"), _REQUIRED),
    "noise.sigma": _Key(_NONNEGATIVE, _REQUIRED, sweep=True),
    "horizon": _Key(_COUNT, _REQUIRED, sweep=True),
    "beta.kind": _Key(_enum(BetaKind), _REQUIRED),
    "beta.delta": _Key(_FLOAT, "0.1", when=_LOGARITHMIC, sweep=True),
    "beta.c0": _Key(_FLOAT, "1", when=_LOGARITHMIC, sweep=True),
    "beta.c_subg": _Key(_FLOAT, "1", when=_LOG_PRODUCT, sweep=True),
    "beta.constant_value": _Key(_FLOAT, "1", when=_CONSTANT, sweep=True),
    "candidates.count": _Key(_COUNT, _REQUIRED, sweep=True),
    "candidates.method": _Key(_word("lattice", "low_discrepancy"), _REQUIRED),
    "eval_grid.count": _Key(_COUNT, _REQUIRED, sweep=True),
    "objective.kind": _Key(_word("random", "explicit"), _REQUIRED),
    "objective.centers": _Key(_POINTS, _REQUIRED, when=_EXPLICIT),
    "objective.coeffs": _Key(_FLOATS, _REQUIRED, when=_EXPLICIT),
    "objective.m": _Key(_COUNT, "1", when=_RANDOM),
    "objective.B": _Key(_POSITIVE, "1", when=_RANDOM, sweep=True),
    "seeds": _Key(_SEEDS, _REQUIRED),
}

# Key prefixes that name a part of the config, with the constructor that
# checks it; any other key ``a.b`` is the ``ExperimentConfig`` field ``a_b``.
_PARTS = {"kernel": KernelSpec, "domain": Box, "beta": BetaSchedule, "objective": ObjectiveSpec}


def _build(fields: dict[str, str]) -> ExperimentConfig:
    """The config that text fields describe: each applicable key converted
    through ``_KEYS``, each part constructed, then the whole validated."""
    for key in fields:
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", key=key)
    values: dict[str, Any] = {}
    for key, spec in _KEYS.items():
        if not spec.applies(values):
            continue
        raw = fields.get(key, spec.default)
        if raw is None:
            raise ConfigError(f"missing key {key!r}", key=key)
        try:
            values[key] = spec.kind.parse(raw)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key) from None
    dim = values.pop("domain.dim")
    for key in ("domain.lower", "domain.upper"):
        if len(values[key]) == 1:
            values[key] *= dim
        if len(values[key]) != dim:
            raise ConfigError(f"expected {dim} components, got {len(values[key])}", key=key)
    parts = {}
    for section, cls in _PARTS.items():
        keys = [key for key in values if key.startswith(section + ".")]
        try:
            parts[section] = cls(**{key.partition(".")[2]: values.pop(key) for key in keys})
        except ValueError as exc:
            # the constructors name the field they reject in their message
            named = [k for k in keys if re.search(rf"\b{k.partition('.')[2]}\b", str(exc))]
            raise ConfigError(str(exc), key=named[0] if named else None) from None
    config = ExperimentConfig(**parts, **{k.replace(".", "_"): v for k, v in values.items()})
    config.validate()
    return config


def _flatten(config: ExperimentConfig) -> dict[str, str]:
    """The config's text fields in table order, without keys that do not apply."""
    values = {}
    for key in _KEYS:
        section, _, field = key.partition(".")
        owner = getattr(config, section) if section in _PARTS else config
        values[key] = getattr(owner, field if section in _PARTS else key.replace(".", "_"))
    return {
        key: spec.kind.render(values[key]) for key, spec in _KEYS.items() if spec.applies(values)
    }


def _read(text: str) -> tuple[dict[str, str], dict[str, int]]:
    """The fields of a ``key = value`` text and the line of each."""
    fields, lines = {}, {}
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
    return fields, lines


def _write(fields: dict[str, str]) -> str:
    return "".join(f"{key} = {text}\n" for key, text in fields.items())


def parse_config(text: str) -> ExperimentConfig:
    fields, lines = _read(text)
    try:
        return _build(fields)
    except ConfigError as exc:
        raise ConfigError(exc.message, key=exc.key, line=lines.get(exc.key)) from None


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(config: ExperimentConfig) -> str:
    """Canonical text form; parsing it back reproduces the config exactly."""
    return _write(_flatten(config))


def _written_exactly(text: str, written: str) -> None:
    """ConfigError naming the first line where ``text`` departs from the
    writer's ``written``, if it does."""
    if text == written:
        return
    got, want = text.splitlines(keepends=True), written.splitlines(keepends=True)
    n = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    a, b = (lines[n].removesuffix("\n") if n < len(lines) else None for lines in (got, want))
    if b is None:
        message = f"line {a!r} after the writer's last line"
    elif a is None:
        message = f"the text ends where the writer writes {b!r}"
    elif a == b:
        message = "the last line has no newline"
    else:
        message = f"line {a!r} where the writer writes {b!r}"
    raise ConfigError(message, line=n + 1)

