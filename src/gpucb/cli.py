"""Command-line benchmark harness: validate, run, sweep, report.

Exit codes: 0 success, 2 a missing, unreadable or malformed config, a
``--jobs`` below 1, or an output that cannot be written, 3 numeric failure
mid-run (a broken posterior factorization, a non-finite score, or a kernel
whose K_nu overflows double precision) or while a report grades, 4
insufficient or damaged data for a report; a report that exits 2, 3 or 4
leaves no report file.  Rerunning a command with the same inputs produces
byte-identical files, whatever the BLAS thread count (gpucb pins one).

Run layout (one directory per suite)::

    out_dir/
      config.txt          resolved canonical config, written last: a
                          directory without it is not a finished run
      trace_seed<k>.csv   per-step trace for each seed, header t, x_1..x_d,
                          y, beta, sigma, mu, inst_regret, cum_regret, flag
      summary.csv         one row per seed
      report.txt          written by the report command, one row per check
      report.csv          written by the report command, the exponent fit

A sweep adds one ``<axis>_<value>`` subdirectory per value plus a merged
``summary.csv`` at the top level, removed before the first cell runs and
written after the last: a sweep directory without it is not a finished
sweep.  A sweep also removes a top-level ``config.txt`` first, so its
directory holds no run.  ``report`` grades the run that ``config.txt`` marks,
or else the cells the merged summary lists as ok, and never leftovers; the
graded ``config.txt`` must be the writer's text, line for line, and fixes
what is graded: each seed's objective is drawn from it again, as the run
drew it, and every trace is checked against it.

``run`` is a sweep of one cell: one runner runs every cell's seeds, then
the cells are written in value order.  Cells whose configs differ in the
horizon alone, the cells of a horizon sweep, draw each seed's objective
once and run its loop once, at the longest horizon, and cut the others
from it; a loop that fails at step k runs again to step k for each cell
from k up.  The cells of any other axis start afresh.  With ``--jobs`` above
1 one process pool serves the whole command, mapped over the seeds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .config import ConfigError, ExperimentConfig, NumericError, _fmt, _written_exactly, parse_config
from .config import parse_config_file, render_config

# NumPy and the numeric modules load in the functions that call them, so
# ``validate`` loads the config layer alone
if TYPE_CHECKING:
    import numpy as np

    from .ucb import RegretTrace

__all__ = ["main", "cmd_validate", "cmd_run", "cmd_sweep", "cmd_report"]

# numeric failures mid-run or while a report grades: the posterior's, and the
# kernel's (K_nu overflows double precision or its quadrature fails to converge)
_NUMERIC = (NumericError, ArithmeticError)
# the header of a sweep's merged summary.csv, which marks a finished sweep
_MERGED_HEADER = "axis,value,seed,status,cum_regret"


def _run_seed(configs: list[ExperimentConfig], seed: int) -> list:
    """Seed ``seed``'s trace under each of ``configs``, which differ in the
    horizon alone, or the numeric failure that stopped it there.  The
    objective is drawn once, and the longest horizon runs first: a
    ``LoopHold`` keeps its trace and the others are cut from it.  A loop
    that fails at step k is not held, so each horizon from k up runs afresh
    to step k and fails there, and the longest below k is held."""
    from .ucb import LoopHold, run_gp_ucb

    try:
        f = configs[0].objective_for_seed(seed)
    except _NUMERIC as exc:
        return [exc] * len(configs)
    hold = LoopHold()
    runs: list = [None] * len(configs)
    for i in sorted(range(len(configs)), key=lambda i: -configs[i].horizon):
        try:
            runs[i] = run_gp_ucb(configs[i], f, seed, hold)
        except _NUMERIC as exc:
            runs[i] = exc
    return runs


def _run_cells(configs: list[ExperimentConfig], jobs: int) -> list:
    """Each config's traces, one per seed, or the numeric failure of its
    first failing seed in config order.  Configs that differ in the horizon
    alone share each seed's loop (``_run_seed``); with ``jobs`` above 1, one
    pool runs every such group's seeds."""
    groups: dict = {}
    for config in configs:
        groups.setdefault(replace(config, horizon=0), []).append(config)
    seeds = configs[0].seeds
    tasks = [(group, seed) for group in groups.values() for seed in seeds]
    workers = min(jobs, len(seeds))
    if workers > 1:
        import concurrent.futures  # only a pool pays for the import

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_seed, *zip(*tasks)))
    else:
        done = [_run_seed(*task) for task in tasks]
    runs: dict = {config: [] for config in configs}
    for (group, _), results in zip(tasks, done):
        for config, run in zip(group, results):
            runs[config].append(run)
    return [next((run for run in runs[c] if isinstance(run, Exception)), runs[c]) for c in configs]


def _summary_rows(config: ExperimentConfig, traces: list[RegretTrace]) -> str:
    import numpy as np

    from .analysis import trace_information_gain

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


def _write_suite(config: ExperimentConfig, traces: list | Exception, out_dir: Path) -> None:
    """Write a suite's files from the traces its seeds ran, or raise the
    numeric failure that ``traces`` is, writing nothing.  ``config.txt``
    marks a finished suite: any earlier one is removed before the first
    write and the new one is written last, so a write that stops part way
    leaves a directory without it."""
    from .ucb import trace_to_csv

    if isinstance(traces, Exception):
        raise traces
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (out_dir / name).write_text(text, encoding="utf-8")

    (out_dir / "config.txt").unlink(missing_ok=True)
    for tr in traces:
        write(f"trace_seed{tr.seed}.csv", trace_to_csv(tr))
    write("summary.csv", _summary_rows(config, traces))
    write("config.txt", render_config(config))


def _load_configs(config_path: str, jobs: int = 1, axis: str | None = None, values: tuple | list = ()):
    """The config, or with a sweep axis one override per value; None after
    printing the one ``error:`` line that a ``--jobs`` below 1, a missing,
    unreadable or malformed config, or an empty or repeating value list,
    exits 2 with."""
    try:
        if jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {jobs}")
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
    # a directory, a file without read permission, or bytes that are not UTF-8
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config file {config_path}: {exc}", file=sys.stderr)
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
    configs = _load_configs(config_path, jobs)
    if configs is None:
        return 2
    try:
        traces = _run_cells(configs, jobs)[0]
        _write_suite(configs[0], traces, Path(out_dir))
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
    """Run every cell, then write each cell's suite in value order and the
    merged summary; the number of cells that failed.  The merged summary
    marks a finished sweep as ``config.txt`` does a suite: removed first
    (with a top-level ``config.txt``, so the directory holds no run),
    written last."""
    top.mkdir(parents=True, exist_ok=True)
    for name in ("config.txt", "summary.csv"):
        (top / name).unlink(missing_ok=True)
    merged = [_MERGED_HEADER]
    failures = 0
    for raw, config, traces in zip(values, configs, _run_cells(configs, jobs)):
        cell = top / _cell_name(axis, raw)
        try:
            _write_suite(config, traces, cell)
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
    configs = _load_configs(config_path, jobs, axis, values)
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
) -> tuple[list[RegretTrace], dict, dict, dict]:
    """Traces, each seed's objective norm and values over the evaluation
    grid ``grid`` and the grid rows each trace played (each by seed) of one
    suite.  Each objective is drawn from ``config.txt`` as the run drew it,
    and each trace is checked against the config's beta schedule, its
    seed's objective, the grid's first m points (the candidates) and its
    seed's noise draws; OSError or ValueError names what is damaged.  Seeds
    that share an objective share one build of it and its grid values, as
    the seeds of a run do."""
    import numpy as np

    from .analysis import grid_columns
    from .rkhs import _objective_values
    from .ucb import _seed_noise, beta_column, trace_from_csv

    try:
        objectives = {seed: config.objective_for_seed(seed) for seed in config.seeds}
        f_grids = {seed: _objective_values(f, grid) for seed, f in objectives.items()}
    # the kernel's K_nu overflows, or the squared norm comes out negative
    except _NUMERIC as exc:
        raise ValueError(f"{cell / 'config.txt'}: {exc}") from None
    norms = {seed: f.norm for seed, f in objectives.items()}
    beta = beta_column(config.beta, config.horizon, config.rho)
    traces, rows = [], {}
    for seed in config.seeds:
        path = cell / f"trace_seed{seed}.csv"
        f_grid = f_grids[seed]
        f_star = float(np.max(f_grid))
        try:
            trace = trace_from_csv(path.read_text(encoding="utf-8"), config.kernel, f_star, seed)
            if trace.horizon != config.horizon:
                raise ValueError(f"{trace.horizon} rows for horizon {config.horizon}")
            cols = grid_columns(grid, trace.X)
            # the audits read kernel rows of the candidates alone
            off = np.flatnonzero(cols >= m)
            if off.size:
                raise ValueError(f"x at t={off[0] + 1}, {trace.X[off[0]].tolist()}, is not a candidate")
            played = f_grid[cols]
            # round-off only: the last bits of a BLAS product differ between builds
            tol = 1e-9 * max(1.0, abs(f_star))
            # (column, its wrong steps, why): the first wrong step raises
            checks = (
                ("beta", trace.beta != beta, "is not the configured schedule"),
                # the run sums left to right and writes round-trip digits: exact
                ("cum_regret", np.cumsum(trace.inst_regret) != trace.cum_regret,
                 "is not the running sum of inst_regret"),
                ("inst_regret", ~(np.abs(f_star - played - trace.inst_regret) <= tol),
                 "is not f_star - f(x_t) under config.txt's objective"),
                ("y", ~(np.abs(played + _seed_noise(config, seed) - trace.y) <= tol),
                 "is not f(x_t) plus the seed's noise draw"),
                # the run sets a flag only where this holds, on the values it writes
                ("flag", trace.flag & ~(np.abs(played - trace.mu) <= np.sqrt(beta) * trace.sigma + tol),
                 "is 1, yet |f(x_t) - mu| exceeds sqrt(beta) * sigma"),
            )
            for name, bad, reason in checks:
                if bad.any():
                    raise ValueError(f"{name} at t={np.argmax(bad) + 1} {reason}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        traces.append(trace)
        rows[seed] = cols
    return traces, norms, f_grids, rows


def _check_cut(
    cell: Path, text: str, longest: Path, config: ExperimentConfig, traces: list[RegretTrace], horizon: int
) -> None:
    """ValueError unless ``cell``, whose ``config.txt`` reads ``text``, holds
    the run in ``longest`` (its config and traces given) cut at ``horizon``:
    the writer's config but for the horizon, line for line, and every trace
    column the first rows of the long one."""
    import numpy as np

    from .ucb import trace_from_csv

    path = cell / "config.txt"
    try:
        _written_exactly(text, render_config(config.with_override("horizon", horizon)))
    except ConfigError as exc:
        raise ValueError(f"{path}: differs from {longest.name}, not only in horizon: {exc}") from None
    for whole in traces:
        path = cell / f"trace_seed{whole.seed}.csv"
        try:
            cut = trace_from_csv(path.read_text(encoding="utf-8"), config.kernel, whole.f_star, whole.seed)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        want = whole.prefix(horizon)
        if not all(np.array_equal(v, getattr(want, k)) for k, v in vars(cut).items() if isinstance(v, np.ndarray)):
            raise ValueError(f"{path}: not the first {horizon} rows of {longest.name}'s trace")


def _finished_suites(top: Path) -> list[Path]:
    """The suites in ``top``, found by their completion markers alone: the run
    that a top-level ``config.txt`` marks, or else the cells the merged
    ``summary.csv`` lists as ok; ValueError if none, or one did not finish."""
    if (top / "config.txt").is_file():
        return [top]
    path = top / "summary.csv"
    lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
    if lines[:1] != [_MERGED_HEADER]:
        # a run writes its traces first and config.txt last: one stopped here
        if any(top.glob("trace_seed*.csv")):
            raise ValueError("no completed runs found")
        raise ValueError(f"{path}: {'not a merged summary' if lines else 'missing'}, so the sweep did not finish")
    cells = set()
    for line in lines[1:]:
        fields = line.split(",")
        # a cell is a directory of the sweep's own, never a path out of it
        if len(fields) != 5 or fields[3] not in ("ok", "failed") or "/" in line:
            raise ValueError(f"{path}: malformed row {line!r}")
        cell = top / _cell_name(fields[0], fields[1])
        if fields[3] == "ok":
            if not (cell / "config.txt").is_file():
                raise ValueError(f"{path}: cell {cell.name} is listed ok but did not finish")
            cells.add(cell)
    if not cells:
        raise ValueError("no completed runs found")
    return sorted(cells)


def cmd_report(out_dir: str) -> int:
    from .analysis import grade_suite
    from .kernels import KernelRows

    top = Path(out_dir)
    if not top.is_dir():
        print(f"error: not a directory: {out_dir}", file=sys.stderr)
        return 4
    # the verdicts of an earlier report go before anything is read, so a
    # report that stops on damaged data or a failed write leaves none
    try:
        for name in ("report.txt", "report.csv"):
            (top / name).unlink(missing_ok=True)
    except OSError as exc:
        return _unwritable(out_dir, exc)
    # grade the largest-horizon suite; every other cell must be a cut of it
    try:
        cells = _finished_suites(top)
        texts, configs = {}, {}
        for c in cells:
            path = c / "config.txt"
            # bytes that are not UTF-8, or text that does not parse
            try:
                texts[c] = path.read_text(encoding="utf-8")
                configs[c] = parse_config(texts[c])
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        longest = max(cells, key=lambda c: configs[c].horizon)
        config = configs[longest]
        # no line the run did not read, nor any other spelling, stands in it
        try:
            _written_exactly(texts[longest], render_config(config))
        except ConfigError as exc:
            raise ValueError(f"{longest / 'config.txt'}: {exc}") from None
        grid = config.evaluation_points()
        cand = config.candidate_points()
        traces, norms, f_grids, rows = _load_suite(longest, config, grid, cand.shape[0])
        for cell in cells:
            if cell != longest:
                _check_cut(cell, texts[cell], longest, config, traces, configs[cell].horizon)
        # the store of the candidates' kernel rows against the grid, which
        # the information gain and the audits share, so no row is built
        # twice; a kernel it builds whole fails here, on config.txt's kernel
        try:
            K = KernelRows(config.kernel, cand, grid)
        except _NUMERIC as exc:
            raise ValueError(f"{longest / 'config.txt'}: {exc}") from None
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        graded = grade_suite(config, traces, f_grids, norms, rows, K, [c.horizon for c in configs.values()])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _NUMERIC as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3

    fields = next(row.fields for row in graded if row.fields)
    report = "".join(f"{row}\n" for row in graded)
    # report.txt holds the verdicts: written last, so a write that stops
    # part way leaves none, and no report.csv
    try:
        (top / "report.csv").write_text(",".join(fields) + "\n" + ",".join(fields.values()) + "\n", encoding="utf-8")
        (top / "report.txt").write_text(report, encoding="utf-8")
    except OSError as exc:
        (top / "report.csv").unlink(missing_ok=True)
        return _unwritable(out_dir, exc)
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
