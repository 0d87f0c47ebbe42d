"""Produce and grade the three benchmark workloads' suites, for a byte diff.

    python tests/data/gen_workload_trees.py OUT

For each workload of ``perfbench/run.py`` (``WORKLOADS``), its config at
seeds 900-904 (the seeds of ``perfbench/run.py --seed 180``) is written
through that module's ``config_text`` to ``OUT/<workload>.txt``.  The suite
is then produced with ``run``, or ``sweep --axis horizon`` over the
workload's values for a sweep workload, and graded with ``report``, into
``OUT/<workload>``.  Every command goes through the CLI of the checkout
that holds this file, with ``--jobs 1`` and BLAS pinned to one thread, as
the benchmark runs it.

Outputs are byte-deterministic, so two checkouts that should agree give
trees that ``diff -r`` finds identical: run this file in each checkout,
into two directories, and diff them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402  (perfbench/run.py, read only)

SEEDS = [900, 901, 902, 903, 904]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    top = Path(argv[0]).resolve()
    top.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **perfbench.PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    for name, workload in perfbench.WORKLOADS.items():
        config, out = top / f"{name}.txt", top / name
        config.write_text(perfbench.config_text(workload, SEEDS), encoding="utf-8")
        if workload.sweep:
            produce = ["sweep", "--axis", "horizon", "--values", ",".join(workload.sweep)]
        else:
            produce = ["run"]
        for args in ([*produce, "--config", str(config), "--out", str(out), "--jobs", "1"],
                     ["report", "--out", str(out)]):
            code = subprocess.run([sys.executable, "-m", "gpucb.cli", *args], cwd=ROOT, env=env).returncode
            if code:
                print(f"error: {name}: {args[0]} exited {code}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
