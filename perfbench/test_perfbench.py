"""Tests of the benchmark's own checks, plus a tiny-size smoke run.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import run

TINY = run.Workload("tiny", overrides={"horizon": "64", "candidates.count": "16", "eval_grid.count": "16"})
TINY_SWEEP = dataclasses.replace(TINY, name="tiny_sweep", sweep=("16", "32", "64"))


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One tiny suite produced and graded through the CLI, outputs checked clean."""
    work = tmp_path_factory.mktemp("suite")
    runner = run.Runner(run.ROOT, work, time.monotonic() + 120)
    config = work / "config.txt"
    config.write_text(run.config_text(TINY, [0, 1, 2, 3, 4]), encoding="utf-8")
    it = run.iteration(runner, TINY, config, work / "out")
    assert runner.failures == {} and runner.attempted == 2
    return work / "out", it


def _edit_trace(out, seed, column, step, edit):
    path = out / f"trace_seed{seed}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    row = lines[step].split(",")
    row[col] = edit(row[col])
    lines[step] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_report_row(out):
    path = out / "report.txt"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[1:]), encoding="utf-8")


FORGERIES = {
    "cum_regret not the running sum": lambda out: _edit_trace(
        out, 2, "cum_regret", 10, lambda v: repr(float(v) * (1 + 1e-12))),
    "negative inst_regret": lambda out: _edit_trace(out, 0, "inst_regret", 3, lambda v: "-1e-300"),
    "non-consecutive t": lambda out: _edit_trace(out, 1, "t", 5, lambda v: "6"),
    "info_gain off the chain identity": lambda out: _edit_trace(
        out, 4, "sigma", 7, lambda v: repr(float(v) * 1.001)),
    "report row missing": _drop_report_row,
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_forged_output_counts_as_one_failed_command(suite, tmp_path, forgery):
    out, it = suite
    forged = tmp_path / "out"
    shutil.copytree(out, forged)
    FORGERIES[forgery](forged)
    runner = run.Runner(run.ROOT, tmp_path, time.monotonic() + 60)
    run.grade(runner, TINY, dataclasses.replace(it.produce), dataclasses.replace(it.report), forged)
    assert len(runner.failures) == 1, runner.failures


def test_flipped_byte_across_repeats_counts_as_failure(suite, tmp_path):
    out, it = suite
    repeat = tmp_path / "out"
    shutil.copytree(out, repeat)
    # a flipped digit in an observation passes every per-trace check
    _edit_trace(repeat, 3, "y", 20, lambda v: v[:-1] + ("1" if v[-1] != "1" else "2"))
    runner = run.Runner(run.ROOT, tmp_path, time.monotonic() + 60)
    again = run.grade(runner, TINY, dataclasses.replace(it.produce), dataclasses.replace(it.report), repeat)
    assert runner.failures == {}
    run.check_repeat(runner, it, again)
    assert list(runner.failures) == [it.produce.label]


def test_smoke_run_reports_every_end_to_end_metric():
    record = run.bench(TINY, seed=1, seconds=0.0, trace=False)
    assert record["failed"] == 0 and record["attempted"] == run.SETUP_REPEATS + 2
    assert [*record["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert all(s["median"] > 0 for s in record["end_to_end"].values())
    assert set(record["verdicts"]) == set(run.checks.REPORT_CHECKS)


def test_smoke_traced_sweep_reports_every_per_layer_metric():
    record = run.bench(TINY_SWEEP, seed=2, seconds=0.0, trace=True)
    assert record["failed"] == 0, record["failures"]
    layers = record["per_layer"]
    assert list(layers) == list(run.PER_LAYER)
    assert layers["kernels.bessel_k.calls"] == 0  # nu = 1.5 takes the closed form
    assert layers["ucb.run_gp_ucb.calls"] == 3 * 5
    assert layers["ucb.run_gp_ucb.steps"] == (16 + 32 + 64) * 5
    assert layers["cli.cmd_sweep.self_s"] > 0 and layers["cli.cmd_run.self_s"] == 0
    assert layers["ucb.trace_to_csv.bytes"] == layers["ucb.trace_from_csv.bytes"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.per_layer_unit(name)) for name in run.PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme_matern32",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
