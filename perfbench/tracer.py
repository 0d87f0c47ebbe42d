"""Outside-in tracer for one gpucb-bench CLI command.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py STATS_JSON CLI_ARG...

Runs ``gpucb.cli.main(CLI_ARGS)`` with wrappers around the public functions of
``kernels``, ``posterior``, ``rkhs``, ``ucb``, ``analysis``, ``config`` and
``cli``, writes the per-layer aggregates to STATS_JSON and exits with the
command's exit code.  The program's code is not modified: a wrapper replaces
every module-level binding of its function, the ``from .x import y`` copies
included, so it sees each call wherever the caller looks the name up.

Each wrapped call keeps a span in memory (name, duration, parent).  A layer's
self time is its span durations minus the time of its direct children,
wrapper bookkeeping included.  ``bessel_k`` runs over a million times on the
general-order Matern path, so it only adds to a counter and to the time of the
span that called it.  Quantities such as ``entries`` or ``flops`` are computed
exactly from the arguments, not measured.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("kernels", "posterior", "rkhs", "ucb", "analysis", "config", "cli")

# function -> name of its layer in the metrics; methods are patched on the class
SPANNED = (
    "kernels.kernel_matrix",
    "kernels.kernel_cross",
    "posterior.fit",
    "posterior.logdet_information",
    "ucb.run_gp_ucb",
    "ucb.trace_to_csv",
    "ucb.trace_from_csv",
    "analysis.greedy_info_gain",
    "analysis.states_at_checkpoints",
    "analysis.uniform_bound_audit",
    "analysis.regret_bound_check",
    "analysis.fit_regret_exponent",
    "rkhs.sample_random_rkhs",
    "rkhs.grid_maximum",
    "cli.cmd_run",
    "cli.cmd_sweep",
    "cli.cmd_report",
)
METHODS = (
    ("rkhs", "RkhsFunction", "on_points", "rkhs.on_points"),
    ("config", "ExperimentConfig", "candidate_points", "config.ExperimentConfig.candidate_points"),
    ("config", "ExperimentConfig", "evaluation_points", "config.ExperimentConfig.evaluation_points"),
)


def _points(X) -> np.ndarray:
    return np.atleast_2d(np.asarray(X, dtype=float))


class Tracer:
    """Spans and counters of one process, aggregated by ``stats``."""

    def __init__(self):
        self.names: list[str] = []
        self.durations: list[float] = []
        self.children: list[float] = []  # time inside direct child wrappers
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}  # aggregated layers: [calls, seconds]
        self.quantities: dict[str, float] = defaultdict(float)
        self.digests: set[str] = set()
        self.seeds: list[int] = []

    def span(self, name, fn, measure=None):
        names, durations, children, stack = self.names, self.durations, self.children, self.stack

        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            index = len(names)
            names.append(name)
            durations.append(0.0)
            children.append(0.0)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                durations[index] = time.perf_counter() - start
                stack.pop()
            if measure is not None:
                measure(self, args, kwargs, result)
            if stack:
                children[stack[-1]] += time.perf_counter() - enter
            return result

        return wrapper

    def count(self, name, fn):
        counter = self.counters.setdefault(name, [0, 0.0])
        children, stack = self.children, self.stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                counter[0] += 1
                counter[1] += elapsed
                if stack:
                    children[stack[-1]] += elapsed

        return wrapper

    def stats(self) -> dict:
        flat: dict[str, float] = defaultdict(float)
        for name, duration, child in zip(self.names, self.durations, self.children):
            flat[f"{name}.calls"] += 1
            flat[f"{name}.self_s"] += duration - child
        for name, (calls, seconds) in self.counters.items():
            flat[f"{name}.calls"] += calls
            flat[f"{name}.self_s"] += seconds
        flat.update(self.quantities)
        return {"flat": flat, "digests": sorted(self.digests), "seeds": self.seeds}


# -- exact quantities, computed from the arguments --------------------------


def _kernel_matrix(tracer, args, kwargs, result):
    X = _points(args[1])
    n = X.shape[0]
    tracer.quantities["kernels.kernel_matrix.entries"] += n * (n - 1) / 2
    tracer.digests.add(hashlib.sha1(repr(X.shape).encode() + X.tobytes()).hexdigest())


def _kernel_cross(tracer, args, kwargs, result):
    tracer.quantities["kernels.kernel_cross.entries"] += _points(args[1]).shape[0] * _points(args[2]).shape[0]


def _fit(tracer, args, kwargs, result):
    t = np.asarray(args[2]).shape[0]
    tracer.quantities["posterior.fit.flops"] += t**3 / 3


def _run_gp_ucb(tracer, args, kwargs, result, candidate_points):
    # step t reads the t filled rows of W, each m+1 doubles wide
    T = result.horizon
    m = candidate_points(args[0]).shape[0]
    tracer.quantities["ucb.run_gp_ucb.steps"] += T
    tracer.quantities["ucb.run_gp_ucb.bytes"] += 8 * (m + 1) * T * (T - 1) / 2


def _trace_to_csv(tracer, args, kwargs, result):
    tracer.quantities["ucb.trace_to_csv.bytes"] += len(result)


def _trace_from_csv(tracer, args, kwargs, result):
    tracer.quantities["ucb.trace_from_csv.bytes"] += len(args[0])


def _sample_random_rkhs(tracer, args, kwargs, result):
    tracer.seeds.append(int(args[4] if len(args) > 4 else kwargs["seed"]))


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in every gpucb module that binds them."""
    import gpucb

    modules = {name: importlib.import_module(f"gpucb.{name}") for name in MODULES}

    def rebind(original, wrapper):
        for module in (gpucb, *modules.values()):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    config_cls = modules["config"].ExperimentConfig
    original_candidates = config_cls.candidate_points
    measures = {
        "kernels.kernel_matrix": _kernel_matrix,
        "kernels.kernel_cross": _kernel_cross,
        "posterior.fit": _fit,
        "ucb.run_gp_ucb": lambda *a: _run_gp_ucb(*a, original_candidates),
        "ucb.trace_to_csv": _trace_to_csv,
        "ucb.trace_from_csv": _trace_from_csv,
        "rkhs.sample_random_rkhs": _sample_random_rkhs,
    }
    for name in SPANNED:
        module, func = name.split(".")
        original = getattr(modules[module], func)
        rebind(original, tracer.span(name, original, measures.get(name)))
    bessel_k = modules["kernels"].bessel_k
    rebind(bessel_k, tracer.count("kernels.bessel_k", bessel_k))
    for module, cls, method, name in METHODS:
        klass = getattr(modules[module], cls)
        setattr(klass, method, tracer.span(name, getattr(klass, method)))

    # CLI file I/O: suites go through Path.read_text/write_text, configs through open()
    q = tracer.quantities
    read_text, write_text = Path.read_text, Path.write_text
    parse_config_file = modules["config"].parse_config_file

    def counted_read(self, *args, **kwargs):
        text = read_text(self, *args, **kwargs)
        q["cli.bytes_read"] += len(text.encode("utf-8"))
        return text

    def counted_write(self, data, *args, **kwargs):
        q["cli.bytes_written"] += len(data.encode("utf-8"))
        return write_text(self, data, *args, **kwargs)

    def counted_parse(path):
        q["cli.bytes_read"] += os.path.getsize(path)
        return parse_config_file(path)

    Path.read_text, Path.write_text = counted_read, counted_write
    rebind(parse_config_file, counted_parse)


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from gpucb import cli

    try:
        return cli.main(cli_args)
    finally:
        Path(stats_path).write_bytes(json.dumps(tracer.stats()).encode())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
