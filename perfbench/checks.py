"""Output checks for a finished gpucb-bench suite.

Every check reads the files the CLI wrote and nothing else, in plain Python,
so the checks stay independent of the library they grade:

* each trace has consecutive ``t`` from 1 to the horizon, ``inst_regret >= 0``
  and ``cum_regret`` equal, bit for bit, to the left-to-right running sum of
  ``inst_regret``;
* ``summary.csv`` agrees with its traces, and its ``info_gain`` equals
  ``0.5 * sum(log1p(sigma^2 / rho))`` over the trace within ``INFO_GAIN_TOL``
  (the chain identity of acceptance criterion c02);
* a sweep's merged ``summary.csv`` has one ``ok`` row per cell and seed;
* ``report.txt`` has exactly one PASS/FAIL/SKIP row per report check.

A check returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

REPORT_CHECKS = (
    "cumulative-regret exponent",
    "noiseless bias bound",
    "error-ratio growth",
    "conditional regret bound",
    "information-gain growth",
)
INFO_GAIN_TOL = 1e-9
_TRACE_COLUMNS = ("t", "y", "beta", "sigma", "mu", "inst_regret", "cum_regret", "flag")
_REPORT_ROW = re.compile(r"(PASS|FAIL|SKIP)  ([^:]+): ")


def read_config(path: Path) -> dict[str, str]:
    """The ``key = value`` pairs of a config file."""
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.lstrip().startswith("#"):
            fields[key.strip()] = value.strip()
    return fields


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_trace(path: Path, rho: float, horizon: int) -> tuple[str | None, float, float]:
    """(first problem or None, 0.5*sum(log1p(sigma^2/rho)), final cum_regret)."""
    header, rows = _read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    missing = [c for c in _TRACE_COLUMNS if c not in col]
    if missing:
        return f"{path.name}: missing columns {missing}", 0.0, 0.0
    i_t, i_sig, i_inst, i_cum = col["t"], col["sigma"], col["inst_regret"], col["cum_regret"]
    cum = gain = 0.0
    for step, row in enumerate(rows, start=1):
        if len(row) != len(header):
            return f"{path.name}: ragged row at line {step + 1}", gain, cum
        if row[i_t] != str(step):
            return f"{path.name}: t={row[i_t]} where {step} was expected", gain, cum
        inst = float(row[i_inst])
        if not inst >= 0.0:
            return f"{path.name}: inst_regret={row[i_inst]} < 0 at t={step}", gain, cum
        cum += inst
        if float(row[i_cum]) != cum:
            return f"{path.name}: cum_regret at t={step} is not the running sum", gain, cum
        sigma = float(row[i_sig])
        gain += math.log1p(sigma * sigma / rho)
    if len(rows) != horizon:
        return f"{path.name}: {len(rows)} rows for horizon {horizon}", 0.5 * gain, cum
    return None, 0.5 * gain, cum


def _check_seed(cell: Path, row: dict[str, str], rho: float, horizon: int) -> list[str]:
    seed = row["seed"]
    trace = cell / f"trace_seed{seed}.csv"
    if not trace.is_file():
        return [f"{cell.name}: missing {trace.name}"]
    problem, info_gain, cum = check_trace(trace, rho, horizon)
    if problem:
        return [f"{cell.name}/{problem}"]
    problems = []
    if row.get("horizon") != str(horizon) or float(row.get("cum_regret", "nan")) != cum:
        problems.append(f"{cell.name}/summary.csv: seed {seed} disagrees with its trace")
    reported = float(row.get("info_gain", "nan"))
    if not abs(reported - info_gain) <= INFO_GAIN_TOL * max(1.0, abs(info_gain)):
        problems.append(
            f"{cell.name}/summary.csv: seed {seed} info_gain {reported!r} != "
            f"0.5*sum(log1p(sigma^2/rho)) = {info_gain!r}"
        )
    return problems


def check_cell(cell: Path) -> list[str]:
    """Check one suite directory: its traces and its per-seed summary."""
    try:
        config = read_config(cell / "config.txt")
        rho, horizon = float(config["rho"]), int(config["horizon"])
        seeds = [s.strip() for s in config["seeds"].split(",") if s.strip()]
        header, rows = _read_csv(cell / "summary.csv")
    except (OSError, KeyError, ValueError) as exc:
        return [f"{cell.name}: unreadable suite ({exc!r})"]
    summary = [dict(zip(header, row)) for row in rows if len(row) == len(header)]
    if len(summary) != len(rows) or [r.get("seed") for r in summary] != seeds:
        return [f"{cell.name}/summary.csv: rows do not match config seeds {seeds}"]
    problems = []
    for row in summary:
        try:
            problems += _check_seed(cell, row, rho, horizon)
        except ValueError as exc:
            problems.append(f"{cell.name}: seed {row['seed']} has an unparseable number ({exc})")
    return problems


def check_run_output(out: Path, sweep_values: tuple[str, ...]) -> list[str]:
    """Check what ``run`` (no sweep values) or ``sweep --axis horizon`` wrote."""
    if not sweep_values:
        return check_cell(out)
    problems = []
    for value in sweep_values:
        problems += check_cell(out / f"horizon_{value}")
    try:
        header, rows = _read_csv(out / "summary.csv")
        seeds = read_config(out / f"horizon_{sweep_values[0]}" / "config.txt")["seeds"]
    except (OSError, KeyError) as exc:
        return problems + [f"sweep: unreadable merged summary ({exc!r})"]
    expected = len(sweep_values) * len([s for s in seeds.split(",") if s.strip()])
    statuses = [dict(zip(header, row)).get("status") for row in rows]
    if statuses != ["ok"] * expected:
        problems.append(f"summary.csv: expected {expected} ok rows in the merged sweep summary")
    return problems


def check_report(out: Path) -> tuple[list[str], dict[str, str]]:
    """(problems, verdict per check) for ``report.txt``; verdicts are not problems."""
    path = out / "report.txt"
    if not path.is_file():
        return ["report.txt: missing"], {}
    problems, verdicts = [], {}
    for line in path.read_text(encoding="utf-8").splitlines():
        match = _REPORT_ROW.match(line)
        if not match:
            problems.append(f"report.txt: unparseable row {line!r}")
        elif match[2] in verdicts:
            problems.append(f"report.txt: duplicate row for {match[2]!r}")
        else:
            verdicts[match[2]] = match[1]
    if sorted(verdicts) != sorted(REPORT_CHECKS):
        problems.append(f"report.txt: rows {sorted(verdicts)} != checks {sorted(REPORT_CHECKS)}")
    return problems, verdicts


def tree_digest(out: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
