"""Command-line benchmark harness: validate, run, sweep, report.

Exit codes: 0 success, 2 malformed config or an output directory that
cannot be written, 3 numeric failure mid-run (a broken posterior
factorization, a non-finite score, or a kernel whose K_nu overflows double
precision) or while a report grades (then it writes no file), 4
insufficient or damaged data for a report.  Outputs are deterministic:
rerunning a command with the same inputs produces byte-identical files.

Run layout (one directory per suite)::

    out_dir/
      config.txt          resolved canonical config, written last: a
                          directory without it is not a finished run
      objective.txt       one replayable objective record per seed
      trace_seed<k>.csv   per-step trace for each seed
      summary.csv         one row per seed
      report.txt          written by the report command, one row per check
      report.csv          written by the report command, the exponent fit

A sweep adds one ``<axis>_<value>`` subdirectory per value plus a merged
``summary.csv`` at the top level, removed before the first cell runs and
written after the last: a sweep directory without it is not a finished
sweep.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    fit_regret_exponent,
    greedy_info_gain,
    grid_columns,
    loglog_slope,
    prefix_bound_audit,
    rate_reference,
    regret_bound_check,
    trace_information_gain,
)
from .config import ConfigError, ExperimentConfig, parse_config, parse_config_file, render_config
from .kernels import KernelFamily
from .posterior import NumericError, _points_kernel
from .rkhs import RkhsFunction, _fmt, _objective_values, _split_seed, objective_record, parse_objective_record
from .ucb import RegretTrace, _seed_noise, beta_column, run_gp_ucb, trace_from_csv, trace_to_csv

__all__ = ["main", "cmd_validate", "cmd_run", "cmd_sweep", "cmd_report"]

# acceptance bands for the fitted cumulative-regret exponent at desk scale;
# the polylog factors in the reference rates inflate finite-T slopes, hence
# the width
_SLOPE_BANDS = {
    KernelFamily.MATERN: (0.50, 0.80),
    KernelFamily.SQUARED_EXPONENTIAL: (0.45, 0.75),
}

# numeric failures mid-run or while a report grades: the posterior's, and the
# kernel's (K_nu overflows double precision or its series fails to converge)
_NUMERIC = (NumericError, ArithmeticError)


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
    traces those runs produced.  ``config.txt`` marks a finished suite: any
    earlier one is removed before the first write and the new one is written
    last, so a write that stops part way leaves a directory without it."""
    workers = min(jobs, len(config.seeds))
    if workers > 1:
        import concurrent.futures  # only a pool pays for the import

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_run_one_seed, [config] * len(config.seeds), config.seeds))
    else:
        runs = [_run_one_seed(config, s) for s in config.seeds]
    traces = [tr for _, tr in runs]
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (out_dir / name).write_text(text, encoding="utf-8")

    (out_dir / "config.txt").unlink(missing_ok=True)
    write("objective.txt", "\n".join(objective_record(f, tr.seed) for f, tr in runs))
    for tr in traces:
        write(f"trace_seed{tr.seed}.csv", trace_to_csv(tr))
    write("summary.csv", _summary_rows(config, traces))
    write("config.txt", render_config(config))
    return traces


def _load_configs(config_path: str, axis: str | None = None, values: tuple | list = ()):
    """The config, or with a sweep axis one override per value; None after
    printing the one ``error:`` line that a malformed config, or an empty or
    repeating value list, exits 2 with."""
    try:
        base = parse_config_file(config_path)
        if axis is None:
            return [base]
        if not values:
            raise ConfigError("no values to sweep", key=axis)
        configs, firsts = [], {}
        for raw in values:
            configs.append(base.with_override(axis, raw))
            # values that convert to the same config repeat a cell
            first = firsts.setdefault(configs[-1].digest(), raw)
            if len(firsts) < len(configs):
                raise ConfigError(f"value {raw!r} repeats {first!r}", key=axis)
        return configs
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


def _unwritable(out_dir: str, exc: OSError) -> int:
    print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
    return 2


def cmd_run(config_path: str, out_dir: str, jobs: int = 1) -> int:
    configs = _load_configs(config_path)
    if configs is None:
        return 2
    config = configs[0]
    try:
        traces = _run_suite(config, jobs, Path(out_dir))
    except _NUMERIC as exc:
        step = getattr(exc, "step", None)
        where = f" at step {step}" if step is not None else ""
        print(f"error: numeric failure{where}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        return _unwritable(out_dir, exc)
    print(f"wrote {len(traces)} trace(s) to {out_dir}")
    return 0


def _cell_name(axis: str, raw: str) -> str:
    return f"{axis.replace('.', '_')}_{raw}"


def _run_sweep(configs: list[ExperimentConfig], axis: str, values: list[str], jobs: int, top: Path) -> int:
    """Run one suite per value into its cell, then write the merged summary;
    the number of cells that failed.  The merged summary marks a finished
    sweep as ``config.txt`` does a suite: removed first, written last."""
    top.mkdir(parents=True, exist_ok=True)
    (top / "summary.csv").unlink(missing_ok=True)
    merged = ["axis,value,seed,status,cum_regret"]
    failures = 0
    for raw, config in zip(values, configs):
        cell = top / _cell_name(axis, raw)
        try:
            traces = _run_suite(config, jobs, cell)
            for tr in traces:
                merged.append(
                    f"{axis},{raw},{tr.seed},ok,{_fmt(float(tr.cum_regret[-1]))}"
                )
        except _NUMERIC as exc:
            failures += 1
            print(f"warning: cell {cell.name} failed: {exc}", file=sys.stderr)
            for seed in config.seeds:
                merged.append(f"{axis},{raw},{seed},failed,")
    (top / "summary.csv").write_text("\n".join(merged) + "\n", encoding="utf-8")
    return failures


def cmd_sweep(config_path: str, axis: str, values: list[str], out_dir: str, jobs: int = 1) -> int:
    # every value is converted and checked before any cell runs
    configs = _load_configs(config_path, axis, values)
    if configs is None:
        return 2
    try:
        failures = _run_sweep(configs, axis, values, jobs, Path(out_dir))
    except OSError as exc:
        return _unwritable(out_dir, exc)
    print(f"sweep complete: {len(values)} cell(s), {failures} failed")
    return 0


def _load_suite(
    cell: Path, config: ExperimentConfig, grid: np.ndarray, m: int
) -> tuple[list[RegretTrace], dict, dict]:
    """Traces, recorded objectives and their values over the evaluation grid
    ``grid`` (each by seed) of one suite, each objective checked against the
    config's kernel and each trace against the config's beta schedule, its
    objective, the grid's first m points (the candidates) and its seed's
    noise draws; OSError or ValueError names what is damaged.  Seeds that
    share an objective share one build of it and its grid values, as the
    seeds of a run do."""
    records = cell / "objective.txt"
    objectives, f_grids = {}, {}
    try:
        for block in records.read_text(encoding="utf-8").split("\n\n"):
            if block.strip():
                seed, record = _split_seed(block)
                f, _ = parse_objective_record(record)
                if f.spec != config.kernel:
                    raise ValueError(f"the record of seed {seed} has another kernel than config.txt")
                objectives[seed], f_grids[seed] = f, _objective_values(f, grid)
    # _NUMERIC: the record's K_nu overflows at its centers, or its squared
    # norm comes out negative
    except (ValueError, *_NUMERIC) as exc:
        raise ValueError(f"{records}: {exc}") from None
    beta = beta_column(config.beta, config.horizon, config.rho)
    traces = []
    for seed in config.seeds:
        path = cell / f"trace_seed{seed}.csv"
        if seed not in objectives:
            raise ValueError(f"{records}: no record for seed {seed}")
        f_grid = f_grids[seed]
        f_star = float(np.max(f_grid))
        try:
            trace = trace_from_csv(path.read_text(encoding="utf-8"), config.kernel, f_star, seed)
            if trace.horizon != config.horizon:
                raise ValueError(f"{trace.horizon} rows for horizon {config.horizon}")
            forged = np.flatnonzero(trace.beta != beta)
            if forged.size:
                raise ValueError(f"beta at t={forged[0] + 1} is not the configured schedule")
            # the run sums left to right and writes round-trip digits, so the
            # column must reproduce exactly
            forged = np.flatnonzero(np.cumsum(trace.inst_regret) != trace.cum_regret)
            if forged.size:
                raise ValueError(f"cum_regret at t={forged[0] + 1} is not the running sum of inst_regret")
            cols = grid_columns(grid, trace.X, "on the evaluation grid")
            # the audits read kernel rows of the candidates alone
            off = np.flatnonzero(cols >= m)
            if off.size:
                raise ValueError(f"x at t={off[0] + 1}, {trace.X[off[0]].tolist()}, is not a candidate")
            played = f_grid[cols]
            # round-off only: the last bits of a BLAS product differ between builds
            tol = 1e-9 * max(1.0, abs(f_star))
            off = np.flatnonzero(~(np.abs(f_star - played - trace.inst_regret) <= tol))
            if off.size:
                raise ValueError(
                    f"inst_regret at t={off[0] + 1} is not f_star - f(x_t) under the recorded objective"
                )
            off = np.flatnonzero(~(np.abs(played + _seed_noise(config, seed) - trace.y) <= tol))
            if off.size:
                raise ValueError(f"y at t={off[0] + 1} is not f(x_t) plus the seed's noise draw")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        traces.append(trace)
    return traces, objectives, f_grids


def _check_cut(cell: Path, longest: Path, config: ExperimentConfig, traces: list[RegretTrace], horizon: int) -> None:
    """ValueError unless ``cell`` holds the run in ``longest`` (its config and
    traces given) cut at ``horizon``: the same config but for the horizon,
    the same objectives, and every trace column the first rows of the long one."""
    path = cell / "config.txt"
    text = path.read_text(encoding="utf-8")
    want = render_config(config.with_override("horizon", horizon))
    if text != want:
        line = next((a for a, b in zip(text.splitlines(), want.splitlines()) if a != b), "its length")
        raise ValueError(f"{path}: differs from {longest.name} in {line}, not only in horizon")
    path = cell / "objective.txt"
    if path.read_bytes() != (longest / "objective.txt").read_bytes():
        raise ValueError(f"{path}: not the objectives of {longest.name}")
    for whole in traces:
        path = cell / f"trace_seed{whole.seed}.csv"
        try:
            cut = trace_from_csv(path.read_text(encoding="utf-8"), config.kernel, whole.f_star, whole.seed)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if cut.horizon != horizon or not all(
            np.array_equal(v, getattr(whole, k)[:horizon]) for k, v in vars(cut).items() if isinstance(v, np.ndarray)
        ):
            raise ValueError(f"{path}: not the first {horizon} rows of {longest.name}'s trace")


def _flagged_from(flag: np.ndarray) -> str:
    """The first step from which every later flag held, or ``never`` when
    the last one failed."""
    misses = np.flatnonzero(~flag)
    step = int(misses[-1]) + 2 if misses.size else 1
    return str(step) if step <= flag.size else "never"


def _check_sweep_finished(top: Path) -> None:
    """ValueError unless the sweep in ``top`` finished: its merged
    ``summary.csv`` exists and every cell it lists as ok has a ``config.txt``."""
    path = top / "summary.csv"
    if not path.is_file():
        raise ValueError(f"{path}: missing, so the sweep did not finish")
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"{path}: malformed row {line!r}")
        name = _cell_name(fields[0], fields[1])
        if fields[3] == "ok" and not (top / name / "config.txt").is_file():
            raise ValueError(f"{path}: cell {name} is listed ok but did not finish")


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
    # grade the largest-horizon suite; every other cell must be a cut of it
    try:
        if any(c != top for c in cells):
            _check_sweep_finished(top)
        configs = {c: parse_config((c / "config.txt").read_text(encoding="utf-8")) for c in cells}
        longest = max(cells, key=lambda c: configs[c].horizon)
        config = configs[longest]
        grid = config.evaluation_points()
        cand = config.candidate_points()
        traces, objectives, f_grids = _load_suite(longest, config, grid, cand.shape[0])
        for cell in cells:
            if cell != longest:
                _check_cut(cell, longest, config, traces, configs[cell].horizon)
        horizons = {c.horizon for c in configs.values()}
        t_min = min(horizons) if len(horizons) > 1 else max(config.horizon // 16, 4)
        fit_res = fit_regret_exponent(traces, t_min, config.horizon)
        # the candidates' kernel rows against the grid, built once: every
        # audit reads its design rows from it, and the information gain its
        # leading square block, the candidates' kernel matrix
        K = _points_kernel(config.kernel, cand, grid)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    lines = []

    def check(name: str, passed: bool, detail: str) -> None:
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    ref = rate_reference(config.kernel.family, config.kernel.nu, config.domain.dim)
    lo, hi = _SLOPE_BANDS[config.kernel.family]
    slope_ok = lo <= fit_res.slope <= hi
    check(
        "cumulative-regret exponent",
        slope_ok,
        f"slope={fit_res.slope:.4f} stderr={fit_res.stderr:.4f} "
        f"reference={ref.cum_exponent:.4f} band=[{lo}, {hi}]",
    )
    csv = (
        "config_digest,slope,stderr,reference_exponent,passed\n"
        f"{config.digest()},{_fmt(fit_res.slope)},{_fmt(fit_res.stderr)},"
        f"{_fmt(ref.cum_exponent)},{int(slope_ok)}\n"
    )

    checkpoints = fit_res.checkpoints
    audit_traces = traces[:5]
    T_gain = min(512, cand.shape[0])
    try:
        audits = [prefix_bound_audit(f_grids[tr.seed], K, tr, config.rho, grid, checkpoints) for tr in audit_traces]
        series = greedy_info_gain(config.kernel, config.rho, cand, T_gain) if T_gain >= 64 else None
    except _NUMERIC as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3
    allowed = 1.5 * math.sqrt(math.log1p(config.rho * checkpoints[-1]) / math.log1p(config.rho * checkpoints[0]))
    growth_ok, bias_ok, growth_detail = True, True, []
    for tr, audit in zip(audit_traces, audits):
        bias_ok &= max(audit.bias_ratio) <= objectives[tr.seed].norm * (1.0 + 1e-6)
        # a ratio is infinite only where a variance clamped at 0 meets an error
        zero_sd = [t for t, r in zip(audit.t, audit.ratio) if r == math.inf]
        if zero_sd:
            growth_ok = False
            growth_detail.append(f"inf<={allowed:.3f} (seed {tr.seed}: sd 0 at t={zero_sd[0]})")
            continue
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
        steps = sum(tr.horizon for tr in traces)
        rate = sum(int(np.sum(tr.flag)) for tr in traces) / steps
        lines.append(
            f"SKIP  conditional regret bound: no fully flagged traces; flag rate {rate:.4f} "
            f"over {steps} steps; every later flag held from step "
            + ", ".join(_flagged_from(tr.flag) for tr in traces)
        )

    if series is not None:
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
    (top / "report.csv").write_text(csv, encoding="utf-8")
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
