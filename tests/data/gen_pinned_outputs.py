"""Regenerate the pinned suite outputs under tests/data/pinned/.

    PYTHONPATH=src python tests/data/gen_pinned_outputs.py

Three reduced suites mirror the benchmark workloads:

* ``matern32_lattice``: the README example's Matern 3/2 kernel on 64
  lattice candidates, T = 128;
* ``nu12_halton2d``: nu = 1.2 in d = 2 on 64 Halton candidates, T = 64,
  against an explicit objective peaked at a lattice point of the
  evaluation grid, off the candidates, so every run tracks the optimum as
  a shadow column;
* ``se_sweep``: the squared exponential on an 8 x 8 lattice, as a horizon
  sweep over 16, 32 and 64.

Each suite is produced (``run`` or ``sweep``) and graded (``report``)
through the CLI, five seeds each, into ``pinned/<case>/``.
``tests/test_pinned_outputs.py`` produces the suites again and compares
them with these files.  The references are written by the code they pin:
regenerate them only in a change that means to move the outputs, and say
so where the change is recorded.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned"

# the README example config at a smaller size; every case starts from it
_BASE = {
    "kernel.family": "matern",
    "kernel.nu": "1.5",
    "kernel.lengthscale": "0.5",
    "domain.dim": "1",
    "domain.lower": "0",
    "domain.upper": "1",
    "rho": "1",
    "noise.kind": "normal",
    "noise.sigma": "0.1",
    "horizon": "128",
    "beta.kind": "log_product",
    "beta.delta": "0.1",
    "beta.c0": "0.39",
    "beta.c_subg": "1",
    "candidates.count": "64",
    "candidates.method": "lattice",
    "eval_grid.count": "64",
    "objective.kind": "random",
    "objective.m": "20",
    "objective.B": "2",
    "seeds": "0, 1, 2, 3, 4",
}


def _config(overrides: dict) -> str:
    """The base config with ``overrides`` applied; a value of None drops the key."""
    keys = {**_BASE, **overrides}
    return "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)


# case name -> (config text, horizon values of a sweep, or None for a run)
CASES = {
    "matern32_lattice": (_config({}), None),
    "nu12_halton2d": (
        _config({
            "kernel.nu": "1.2",
            "domain.dim": "2",
            "candidates.method": "low_discrepancy",
            "eval_grid.count": "81",
            "horizon": "64",
            "objective.kind": "explicit",
            "objective.m": None,
            "objective.B": None,
            "objective.centers": "0.5,0.5; 0.1,0.9",
            "objective.coeffs": "1, -0.5",
        }),
        None,
    ),
    "se_sweep": (
        _config({
            "kernel.family": "se",
            "kernel.nu": None,
            "kernel.lengthscale": "0.2",
            "domain.dim": "2",
            "horizon": "64",
        }),
        ("16", "32", "64"),
    ),
}


def produce(case: str, out: Path) -> None:
    """Run (or sweep) and report the suite ``case`` into ``out``."""
    from gpucb.cli import cmd_report, cmd_run, cmd_sweep

    text, sweep = CASES[case]
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "config.txt"
        config.write_text(text, encoding="utf-8")
        if sweep is None:
            status = cmd_run(str(config), str(out))
        else:
            status = cmd_sweep(str(config), "horizon", list(sweep), str(out))
    if status != 0 or cmd_report(str(out)) != 0:
        raise RuntimeError(f"suite {case} did not finish")


def main() -> int:
    for case in CASES:
        target = PINNED / case
        shutil.rmtree(target, ignore_errors=True)
        produce(case, target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
