"""Benchmark: time to a graded GP-UCB result through the gpucb-bench CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload writes one experiment config, whose five seeds derive from
``--seed``, and drives the real CLI (``python3 -m gpucb.cli`` on ``src/``) in
child processes, one command at a time, with ``--jobs 1`` and BLAS pinned to one
thread.  ``validate`` runs ``SETUP_REPEATS`` times (set-up); then the suite is
produced (``run``, or ``sweep`` for a sweep workload) and graded by ``report``,
repeated while ``--seconds`` have not passed.  The outputs of every iteration
are checked (see ``checks.py``), and repeats must be byte-identical.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s``, ``run_s``, ``report_s``, ``graded_s`` (start of the run command to
the end of ``report``) and ``peak_rss_mb`` (larger of the run and report peak
resident sets), each the median over the run's samples.  ``error_rate`` is
``failed / attempted`` commands; a command fails on a nonzero exit, a
traceback, a failed output check or a byte difference from an earlier repeat.

With ``--trace 1`` one untraced iteration is followed by one traced iteration
(``tracer.py``), and the last line reports the per-layer metrics, including
the tracing overhead (traced minus untraced wall time).

Full results, with the machine and library versions, go to
``.perfbench/BENCH_<workload>_seed<N>_trace<0|1>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SEEDS_PER_RUN = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s, whatever --seconds says
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The README example config; every workload starts from it.
README_CONFIG = {
    "kernel.family": "matern",
    "kernel.nu": "1.5",
    "kernel.lengthscale": "0.5",
    "domain.dim": "1",
    "domain.lower": "0",
    "domain.upper": "1",
    "rho": "1",
    "noise.kind": "normal",
    "noise.sigma": "0.1",
    "horizon": "4096",
    "beta.kind": "log_product",
    "beta.delta": "0.1",
    "beta.c0": "0.39",
    "beta.c_subg": "1",
    "candidates.count": "256",
    "candidates.method": "lattice",
    "eval_grid.count": "256",
    "objective.kind": "random",
    "objective.m": "20",
    "objective.B": "2",
}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict = field(default_factory=dict)  # a value of None drops the key
    sweep: tuple[str, ...] = ()  # horizon values for `sweep`; empty means `run`
    objective: str | None = None  # frozen objective record in this directory
    # (description, predicate over per-layer metrics and traced wall time)
    expect: tuple = ()


# Why each workload: see BENCHMARK.json.  The expectations are the traced
# shares that made each one the workload where its layer dominates.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme_matern32",
            expect=(
                ("kernels.bessel_k.calls == 0", lambda m, wall: m["kernels.bessel_k.calls"] == 0),
                (
                    "posterior.fit + kernels.kernel_matrix self >= 70% of traced wall",
                    lambda m, wall: m["posterior.fit.self_s"] + m["kernels.kernel_matrix.self_s"]
                    >= 0.7 * wall,
                ),
            ),
        ),
        Workload(
            "bessel_halton2d",
            overrides={
                "kernel.nu": "1.2",
                "domain.dim": "2",
                "candidates.method": "low_discrepancy",
                "horizon": "512",
            },
            # bessel_k work grows with the distinct points a design visits,
            # which a random objective moves by 12-20% between seed sets; a
            # frozen objective leaves only the noise stream to --seed
            objective="bessel_objective.txt",
            expect=(
                (
                    "kernels.bessel_k self >= 70% of traced wall",
                    lambda m, wall: m["kernels.bessel_k.self_s"] >= 0.7 * wall,
                ),
            ),
        ),
        Workload(
            "se_wide_sweep",
            overrides={
                "kernel.family": "se",
                "kernel.nu": None,
                "kernel.lengthscale": "0.2",
                "domain.dim": "2",
                "candidates.count": "2025",
                "eval_grid.count": "2025",
                "horizon": "2048",
            },
            sweep=("256", "512", "1024", "2048"),
            expect=(
                ("kernels.bessel_k.calls == 0", lambda m, wall: m["kernels.bessel_k.calls"] == 0),
                (
                    "ucb.run_gp_ucb self >= 30% of traced wall",
                    lambda m, wall: m["ucb.run_gp_ucb.self_s"] >= 0.3 * wall,
                ),
            ),
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("report_s", "s"),
    ("graded_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _layer(name: str, *quantities: str) -> list[str]:
    return [f"{name}.{q}" for q in quantities]


PER_LAYER = (
    _layer("kernels.kernel_matrix", "calls", "self_s", "entries", "distinct_ratio")
    + _layer("kernels.kernel_cross", "calls", "self_s", "entries")
    + _layer("kernels.bessel_k", "calls", "self_s")
    + _layer("posterior.fit", "calls", "self_s", "flops")
    + _layer("posterior.logdet_information", "calls")
    + _layer("ucb.run_gp_ucb", "calls", "self_s", "steps", "bytes")
    + _layer("ucb.trace_to_csv", "self_s", "bytes")
    + _layer("ucb.trace_from_csv", "self_s", "bytes")
    + [
        metric
        for fn in (
            "greedy_info_gain",
            "states_at_checkpoints",
            "uniform_bound_audit",
            "regret_bound_check",
            "fit_regret_exponent",
        )
        for metric in _layer(f"analysis.{fn}", "calls", "self_s")
    ]
    + _layer("rkhs.sample_random_rkhs", "calls", "self_s", "useful_ratio")
    + _layer("rkhs.on_points", "calls", "self_s")
    + _layer("rkhs.grid_maximum", "calls", "self_s")
    + _layer("config.ExperimentConfig.candidate_points", "calls", "self_s")
    + _layer("config.ExperimentConfig.evaluation_points", "calls", "self_s")
    + ["cli.cmd_run.self_s", "cli.cmd_sweep.self_s", "cli.cmd_report.self_s"]
    + ["cli.bytes_written", "cli.bytes_read", "trace.wall_s", "trace.overhead_s"]
)
_UNITS = {
    "calls": "count", "self_s": "s", "entries": "count", "distinct_ratio": "ratio",
    "flops": "flop", "steps": "count", "bytes": "B", "useful_ratio": "ratio",
    "bytes_written": "B", "bytes_read": "B", "wall_s": "s", "overhead_s": "s",
}


# exact counts derived from the call arguments, not measured
COMPUTED = {"entries", "distinct_ratio", "flops", "steps", "bytes", "useful_ratio"}


def per_layer_unit(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


def config_text(workload: Workload, seeds: list[int]) -> str:
    keys = {**README_CONFIG, **workload.overrides, "seeds": ", ".join(map(str, seeds))}
    if workload.objective:
        record = checks.read_config(Path(__file__).with_name(workload.objective))
        keys.update({
            "objective.kind": "explicit",
            "objective.centers": record["centers"],
            "objective.coeffs": record["coeffs"],
        })
    return "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass
class Command:
    label: str
    start: float
    end: float
    rss_mb: float
    ok: bool

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    """Runs CLI commands one at a time and keeps the failure tally."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, **PINNED)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # command label -> problems

    def fail(self, command: Command, problems: list[str]) -> None:
        if problems:
            command.ok = False
            self.failures.setdefault(command.label, []).extend(problems)

    def run(self, label: str, argv: list[str]) -> Command:
        """Run one command; time it from spawn to reap and record its peak RSS."""
        self.attempted += 1
        log = self.work / f"command{self.attempted}.log"
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=sink, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        command = Command(label, start, end, usage.ru_maxrss / 1024.0, True)
        output = log.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            tail = output.strip().splitlines()[-1:] or [""]
            self.fail(command, [f"exit code {proc.returncode}: {tail[0]}"])
        elif "Traceback (most recent call last)" in output:
            self.fail(command, ["traceback on output"])
        return command


def cli(*args: str) -> list[str]:
    return ["-m", "gpucb.cli", *args]


def traced(stats: Path, *args: str) -> list[str]:
    return [str(Path(__file__).with_name("tracer.py")), str(stats), *args]


@dataclass
class Iteration:
    produce: Command
    report: Command
    digest: str | None
    verdicts: dict


def iteration(runner: Runner, workload: Workload, config: Path, out: Path, stats: Path | None = None) -> Iteration:
    """Produce a suite and grade it, then check what the two commands wrote."""
    entry = (lambda *a: traced(stats.with_suffix(f".{a[0]}.json"), *a)) if stats else cli
    if workload.sweep:
        produce_args = ("sweep", "--config", str(config), "--out", str(out),
                        "--axis", "horizon", "--values", ",".join(workload.sweep), "--jobs", "1")
    else:
        produce_args = ("run", "--config", str(config), "--out", str(out), "--jobs", "1")
    tag = "traced " if stats else ""
    produce = runner.run(f"{tag}{produce_args[0]} #{runner.attempted + 1}", entry(*produce_args))
    report = runner.run(f"{tag}report #{runner.attempted + 1}", entry("report", "--out", str(out)))
    return grade(runner, workload, produce, report, out)


def grade(runner: Runner, workload: Workload, produce: Command, report: Command, out: Path) -> Iteration:
    """Record output-check failures against the command that wrote the output."""
    verdicts = {}
    if produce.ok:
        runner.fail(produce, checks.check_run_output(out, workload.sweep))
    if report.ok:
        problems, verdicts = checks.check_report(out)
        runner.fail(report, problems)
    digest = checks.tree_digest(out) if out.is_dir() else None
    return Iteration(produce, report, digest, verdicts)


def check_repeat(runner: Runner, first: Iteration, repeat: Iteration) -> None:
    if repeat.digest != first.digest:
        runner.fail(repeat.produce, ["outputs differ from the first iteration's bytes"])


# ---------------------------------------------------------------------------
# Statistics and environment
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it
    (the maximum when there are fewer than twenty samples), and the count."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    else:
        out["max"] = max(values)
    return out


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.read_bytes())
    caches = _cache_sizes()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "git_commit": commit or "unavailable (not a git checkout)",
        "source_sha256": source.hexdigest(),
        "pinned_env": PINNED,
    }


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


def bench(workload: Workload, seed: int, seconds: float, trace: bool, root: Path = ROOT) -> dict:
    """Run one benchmark run and return its full result record."""
    began = time.monotonic()
    work = root / ".perfbench" / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench(workload, seed, seconds, trace, root, work, began)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(workload, seed, seconds, trace, root, work, began) -> dict:
    runner = Runner(root, work, began + RUN_BUDGET_S)
    seeds = [SEEDS_PER_RUN * seed + k for k in range(SEEDS_PER_RUN)]
    config = work / "config.txt"
    config.write_text(config_text(workload, seeds), encoding="utf-8")

    setup = [runner.run(f"validate #{k + 1}", cli("validate", "--config", str(config)))
             for k in range(SETUP_REPEATS)]

    iterations = []
    measure_start = time.monotonic()
    while True:
        out = work / f"out{len(iterations)}"
        it = iteration(runner, workload, config, out)
        if iterations:
            check_repeat(runner, iterations[0], it)
        iterations.append(it)
        shutil.rmtree(out, ignore_errors=True)
        now = time.monotonic()
        last = it.report.end - it.produce.start
        if trace or now - measure_start >= seconds or now + 1.5 * last > runner.deadline:
            break

    samples = {
        "setup_s": [c.wall_s for c in setup],
        "run_s": [it.produce.wall_s for it in iterations],
        "report_s": [it.report.wall_s for it in iterations],
        "graded_s": [it.report.end - it.produce.start for it in iterations],
        "peak_rss_mb": [max(it.produce.rss_mb, it.report.rss_mb) for it in iterations],
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seeds": seeds,
        "trace": int(trace),
        "iterations": len(iterations),
        "end_to_end": {name: {"unit": unit, **summary(samples[name])} for name, unit in END_TO_END},
        "samples": samples,
        "verdicts": iterations[0].verdicts,
    }

    if trace:
        stats = work / "stats"
        out = work / "traced"
        traced_it = iteration(runner, workload, config, out, stats)
        check_repeat(runner, iterations[0], traced_it)
        untraced_wall = iterations[0].produce.wall_s + iterations[0].report.wall_s
        traced_wall = traced_it.produce.wall_s + traced_it.report.wall_s
        layers = per_layer(sorted(work.glob("stats.*.json")), traced_wall, untraced_wall)
        record["per_layer"] = layers
        record["expectations"] = {
            text: bool(check(layers, traced_wall)) for text, check in workload.expect
        }

    record["attempted"] = runner.attempted
    record["failed"] = len(runner.failures)
    record["error_rate"] = len(runner.failures) / runner.attempted
    record["failures"] = runner.failures
    record["environment"] = environment(root)
    return record


def per_layer(stats_files: list[Path], traced_wall: float, untraced_wall: float) -> dict:
    """Sum the traced processes' aggregates into the per-layer metrics."""
    flat: dict[str, float] = {}
    digests, seeds = set(), []
    for path in stats_files:
        stats = json.loads(path.read_text(encoding="utf-8"))
        for key, value in stats["flat"].items():
            flat[key] = flat.get(key, 0.0) + value
        digests.update(stats["digests"])
        seeds += stats["seeds"]
    matrices = flat.get("kernels.kernel_matrix.calls", 0.0)
    flat["kernels.kernel_matrix.distinct_ratio"] = len(digests) / matrices if matrices else 0.0
    flat["rkhs.sample_random_rkhs.useful_ratio"] = len(set(seeds)) / len(seeds) if seeds else 0.0
    flat["trace.wall_s"] = traced_wall
    flat["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: flat.get(name, 0.0) for name in PER_LAYER}


def _print_record(record: dict, result_file: Path) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} seeds={record['seeds']} "
          f"trace={record['trace']} iterations={record['iterations']}")
    for name, s in record["end_to_end"].items():
        tail = "  ".join(f"{k} {v:.4f}" for k, v in s.items() if k not in ("n", "median", "unit"))
        print(f"  {name:<12} median {s['median']:.4f} {s['unit']}  {tail}  (n={s['n']})")
    print(f"  {'error_rate':<12} {record['error_rate']:.4f} ratio  "
          f"({record['failed']} failed / {record['attempted']} attempted commands)")
    for label, problems in record["failures"].items():
        print(f"  FAILED {label}: {'; '.join(problems[:3])}")
    verdicts = "; ".join(f"{v} {k}" for k, v in record["verdicts"].items())
    print(f"  report verdicts (not counted as failures): {verdicts}")
    if "per_layer" in record:
        layers = record["per_layer"]
        wall = layers["trace.wall_s"]
        for name, value in layers.items():
            if name.rsplit(".", 1)[1] in COMPUTED:
                note = "  (computed)"
            elif name.endswith(".self_s") and wall:
                note = f"  ({value / wall:.1%} of traced wall)"
            else:
                note = ""
            print(f"  {name:<48} {value:.6g} {per_layer_unit(name)}{note}")
        for text, met in record["expectations"].items():
            print(f"  expectation {'met' if met else 'MISSED'}: {text}")
    print(f"  result file: {result_file}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpucb" / "cli.py").is_file():
        print(f"error: no gpucb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    record = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result_file = (ROOT / ".perfbench"
                   / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    result_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    _print_record(record, result_file.relative_to(ROOT))
    if args.trace:
        metrics = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in record["per_layer"].items()}
    else:
        metrics = {n: {"value": record["end_to_end"][n]["median"], "unit": u} for n, u in END_TO_END}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
