"""Command-line benchmark harness: validate, run, sweep, report.

Exit codes: 0 success, 2 malformed config, 3 numeric failure mid-run,
4 insufficient or damaged data for a report.  Outputs are deterministic:
rerunning a command with the same inputs produces byte-identical files.

Run layout (one directory per suite)::

    out_dir/
      config.txt          resolved canonical config
      objective.txt       one replayable objective record per seed
      trace_seed<k>.csv   per-step trace for each seed
      summary.csv         one row per seed
      report.txt          written by the report command

A sweep adds one ``<axis>_<value>`` subdirectory per value plus a merged
``summary.csv`` at the top level.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    fit_regret_exponent,
    greedy_info_gain,
    loglog_slope,
    prefix_bound_audit,
    rate_reference,
    regret_bound_check,
    trace_information_gain,
)
from .config import ConfigError, ExperimentConfig, parse_config, parse_config_file, render_config
from .kernels import KernelFamily
from .posterior import NumericError
from .rkhs import RkhsFunction, _fmt, grid_maximum, objective_record, parse_objective_record
from .ucb import RegretTrace, run_gp_ucb, trace_from_csv, trace_to_csv

__all__ = ["main", "cmd_validate", "cmd_run", "cmd_sweep", "cmd_report"]

# acceptance bands for the fitted cumulative-regret exponent at desk scale;
# the polylog factors in the reference rates inflate finite-T slopes, hence
# the width
_SLOPE_BANDS = {
    KernelFamily.MATERN: (0.50, 0.80),
    KernelFamily.SQUARED_EXPONENTIAL: (0.45, 0.75),
}


def _run_one_seed(config: ExperimentConfig, seed: int) -> tuple[RkhsFunction, RegretTrace]:
    f = config.objective_for_seed(seed)
    return f, run_gp_ucb(config, f, seed)


def _summary_rows(config: ExperimentConfig, traces: list[RegretTrace]) -> str:
    lines = ["seed,horizon,f_star,cum_regret,beta_last,info_gain,flags_all,flag_count"]
    for tr in traces:
        info = trace_information_gain(tr, config.rho)
        lines.append(
            ",".join(
                [
                    str(tr.seed),
                    str(tr.horizon),
                    _fmt(tr.f_star),
                    _fmt(float(tr.cum_regret[-1])),
                    _fmt(float(tr.beta[-1])),
                    _fmt(info),
                    str(int(bool(np.all(tr.flag)))),
                    str(int(np.sum(tr.flag))),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _run_suite(config: ExperimentConfig, jobs: int, out_dir: Path) -> list[RegretTrace]:
    """Run every seed, then write the suite's files from the objectives and
    traces those runs produced; a failed write leaves none of its files."""
    if jobs > 1 and len(config.seeds) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_run_one_seed, [config] * len(config.seeds), config.seeds))
    else:
        runs = [_run_one_seed(config, s) for s in config.seeds]
    traces = [tr for _, tr in runs]
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        def emit(name: str, text: str) -> None:
            path = out_dir / name
            path.write_text(text, encoding="utf-8")
            written.append(path)

        emit("config.txt", render_config(config))
        emit("objective.txt", "\n".join(objective_record(f, tr.seed) for f, tr in runs))
        for tr in traces:
            emit(f"trace_seed{tr.seed}.csv", trace_to_csv(tr))
        emit("summary.csv", _summary_rows(config, traces))
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return traces


def _load_configs(config_path: str, axis: str | None = None, values: tuple | list = ()):
    """The config, or with a sweep axis one override per value; None after
    printing the one ``error:`` line that a malformed config exits 2 with."""
    try:
        base = parse_config_file(config_path)
        return [base.with_override(axis, raw) for raw in values] if axis is not None else [base]
    except FileNotFoundError:
        print(f"error: config file not found: {config_path}", file=sys.stderr)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_validate(config_path: str) -> int:
    if _load_configs(config_path) is None:
        return 2
    print("config ok")
    return 0


def cmd_run(config_path: str, out_dir: str, jobs: int = 1) -> int:
    configs = _load_configs(config_path)
    if configs is None:
        return 2
    config = configs[0]
    try:
        traces = _run_suite(config, jobs, Path(out_dir))
    except NumericError as exc:
        step = f" at step {exc.step}" if exc.step is not None else ""
        print(f"error: numeric failure{step}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(traces)} trace(s) to {out_dir}")
    return 0


def cmd_sweep(config_path: str, axis: str, values: list[str], out_dir: str, jobs: int = 1) -> int:
    # every value is converted and checked before any cell runs
    configs = _load_configs(config_path, axis, values)
    if configs is None:
        return 2
    top = Path(out_dir)
    top.mkdir(parents=True, exist_ok=True)
    merged = ["axis,value,seed,status,cum_regret"]
    failures = 0
    for raw, config in zip(values, configs):
        cell = top / f"{axis.replace('.', '_')}_{raw}"
        try:
            traces = _run_suite(config, jobs, cell)
            for tr in traces:
                merged.append(
                    f"{axis},{raw},{tr.seed},ok,{_fmt(float(tr.cum_regret[-1]))}"
                )
        except NumericError as exc:
            failures += 1
            print(f"warning: cell {cell.name} failed: {exc}", file=sys.stderr)
            for seed in config.seeds:
                merged.append(f"{axis},{raw},{seed},failed,")
    (top / "summary.csv").write_text("\n".join(merged) + "\n", encoding="utf-8")
    print(f"sweep complete: {len(values)} cell(s), {failures} failed")
    return 0


def _load_suite(cell: Path) -> tuple[ExperimentConfig, list[RegretTrace], dict]:
    """Config, traces and recorded objectives (by seed) of one suite; OSError
    or ValueError names what is damaged."""
    config = parse_config((cell / "config.txt").read_text(encoding="utf-8"))
    grid = config.evaluation_points()
    records = cell / "objective.txt"
    objectives, f_stars = {}, {}
    try:
        for block in records.read_text(encoding="utf-8").split("\n\n"):
            if block.strip():
                f, seed = parse_objective_record(block)
                objectives[seed] = f
                f_stars[seed] = grid_maximum(f, grid)[1]
    except ValueError as exc:
        raise ValueError(f"{records}: {exc}") from None
    on_grid = {tuple(p) for p in grid.tolist()}
    traces = []
    for seed in config.seeds:
        path = cell / f"trace_seed{seed}.csv"
        if seed not in objectives:
            raise ValueError(f"{records}: no record for seed {seed}")
        try:
            trace = trace_from_csv(path.read_text(encoding="utf-8"), config.kernel, f_stars[seed], seed)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if trace.horizon != config.horizon:
            raise ValueError(f"{path}: {trace.horizon} rows for horizon {config.horizon}")
        # the run sums left to right and writes round-trip digits, so the
        # column must reproduce exactly
        forged = np.flatnonzero(np.cumsum(trace.inst_regret) != trace.cum_regret)
        if forged.size:
            raise ValueError(
                f"{path}: cum_regret at t={forged[0] + 1} is not the running sum of inst_regret"
            )
        off_grid = [p for p in trace.X.tolist() if tuple(p) not in on_grid]
        if off_grid:
            raise ValueError(f"{path}: design point {off_grid[0]} is not on the evaluation grid")
        traces.append(trace)
    return config, traces, objectives


def cmd_report(out_dir: str) -> int:
    top = Path(out_dir)
    if not top.is_dir():
        print(f"error: not a directory: {out_dir}", file=sys.stderr)
        return 4
    cells = sorted(
        (p for p in top.iterdir() if p.is_dir() and (p / "config.txt").exists()),
        key=lambda p: p.name,
    )
    if (top / "config.txt").exists():
        cells.append(top)
    if not cells:
        print("error: no completed runs found", file=sys.stderr)
        return 4
    # grade the largest-horizon suite; smaller horizons are its prefixes
    try:
        suites = [_load_suite(c) for c in cells]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    config, traces, objectives = max(suites, key=lambda s: s[0].horizon)
    horizons = sorted({s[0].horizon for s in suites})
    t_max = horizons[-1]
    t_min = horizons[0] if len(horizons) > 1 else max(t_max // 16, 4)
    if t_max < 4 * t_min or len(traces) < 5:
        print(
            f"error: insufficient checkpoints (t range [{t_min}, {t_max}], {len(traces)} traces)",
            file=sys.stderr,
        )
        return 4

    lines = []

    def check(name: str, passed: bool, detail: str) -> None:
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    ref = rate_reference(config.kernel.family, config.kernel.nu, config.domain.dim)
    fit_res = fit_regret_exponent(traces, t_min, t_max)
    lo, hi = _SLOPE_BANDS[config.kernel.family]
    slope_ok = lo <= fit_res.slope <= hi
    check(
        "cumulative-regret exponent",
        slope_ok,
        f"slope={fit_res.slope:.4f} stderr={fit_res.stderr:.4f} "
        f"reference={ref.cum_exponent:.4f} band=[{lo}, {hi}]",
    )
    (top / "report.csv").write_text(
        "config_digest,slope,stderr,reference_exponent,passed\n"
        f"{config.digest()},{_fmt(fit_res.slope)},{_fmt(fit_res.stderr)},"
        f"{_fmt(ref.cum_exponent)},{int(slope_ok)}\n",
        encoding="utf-8",
    )

    checkpoints = [t for t in fit_res.checkpoints]
    grid = config.evaluation_points()
    audit_traces = traces[: min(5, len(traces))]
    growth_ok, bias_ok = True, True
    growth_detail = []
    for tr in audit_traces:
        f = objectives[tr.seed]
        audit = prefix_bound_audit(f, tr, config.rho, grid, checkpoints)
        bias_ok &= max(audit.bias_ratio) <= f.norm * (1.0 + 1e-6)
        allowed = 1.5 * math.sqrt(
            math.log1p(config.rho * checkpoints[-1]) / math.log1p(config.rho * checkpoints[0])
        )
        ratio = audit.ratio[-1] / audit.ratio[0]
        growth_ok &= ratio <= allowed
        growth_detail.append(f"{ratio:.3f}<={allowed:.3f}")
    check("noiseless bias bound", bias_ok, f"max ratio <= norm on {len(audit_traces)} trace(s)")
    check("error-ratio growth", growth_ok, "; ".join(growth_detail))

    applicable = holds = 0
    for tr in traces:
        res = regret_bound_check(tr, config.rho, config.grid_gap)
        if res.applicable:
            applicable += 1
            holds += int(res.holds)
    if applicable:
        check(
            "conditional regret bound",
            holds >= 0.9 * applicable,
            f"{holds}/{applicable} flagged traces satisfied the bound",
        )
    else:
        lines.append("SKIP  conditional regret bound: no fully flagged traces")

    cand = config.candidate_points()
    T_gain = min(512, cand.shape[0])
    if T_gain >= 64:
        series = greedy_info_gain(config.kernel, config.rho, cand, T_gain)
        if config.kernel.family is KernelFamily.SQUARED_EXPONENTIAL:
            power = config.domain.dim + 1
            r_half = series[T_gain // 2 - 1] / math.log1p(T_gain // 2) ** power
            r_full = series[T_gain - 1] / math.log1p(T_gain) ** power
            check(
                "information-gain growth",
                r_full <= 1.1 * r_half,
                f"polylog ratio {r_full:.4f} vs {r_half:.4f}",
            )
        else:
            ts = [T_gain // 8, T_gain // 4, T_gain // 2, T_gain]
            slope, _ = loglog_slope(
                np.log(np.array(ts, dtype=float)), np.log(np.array([series[t - 1] for t in ts]))
            )
            check(
                "information-gain growth",
                0.15 <= slope <= 0.40,
                f"fitted exponent {slope:.4f} reference {ref.gamma_exponent:.4f}",
            )
    else:
        lines.append("SKIP  information-gain growth: candidate set too small")

    report = "\n".join(lines) + "\n"
    (top / "report.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gpucb-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a config and check its invariants")
    p.add_argument("--config", required=True)

    p = sub.add_parser("run", help="execute one seeded suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("sweep", help="run one suite per value of a scalar key")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True, help="comma-separated list")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("report", help="grade completed runs against the reference rates")
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.config)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.jobs)
    if args.command == "sweep":
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        return cmd_sweep(args.config, args.axis, values, args.out, args.jobs)
    return cmd_report(args.out)


if __name__ == "__main__":
    sys.exit(main())
