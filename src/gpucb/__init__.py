"""GP-UCB optimization of RKHS functions, with a seeded benchmark harness.

The library maintains a regularized Gaussian-process posterior over a fixed
candidate grid, runs the upper-confidence-bound sampling loop against
synthetic objectives of exactly known native-space norm, and audits the
resulting traces: uniform error ratios, information-gain growth, and
cumulative-regret exponents against the reference rates.

Importing the package loads none of its modules.  Each name below, and each
submodule, is imported on first access (PEP 562), so a command loads only
what it reads: ``gpucb-bench validate`` loads ``config`` and no NumPy, while
``run``, ``sweep`` and ``report`` load the numeric modules they call.  The
config's value types and the two error types are exported from ``config``.
"""

import importlib
import os

# one BLAS thread before NumPy loads: a product split over more threads
# rounds differently (a caller that loaded NumPy first keeps its own count)
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

# the public names, by the module that defines them
_EXPORTS = {
    "analysis": (
        "AuditSeries",
        "BoundCheck",
        "ExponentFit",
        "RateReference",
        "calibrate_c0",
        "fit_regret_exponent",
        "greedy_info_gain",
        "prefix_bound_audit",
        "rate_reference",
        "regret_bound_check",
        "states_at_checkpoints",
        "trace_information_gain",
        "uniform_bound_audit",
    ),
    "config": (
        "BetaKind",
        "BetaSchedule",
        "Box",
        "ExperimentConfig",
        "KernelFamily",
        "KernelSpec",
        "NumericError",
        "ObjectiveSpec",
        "parse_config",
        "parse_config_file",
        "render_config",
    ),
    "kernels": (
        "KernelRows",
        "bessel_k",
        "kernel_cross",
        "kernel_matrix",
    ),
    "posterior": (
        "GrowingPosterior",
        "PosteriorState",
        "fit",
        "logdet_information",
        "posterior_mean_at",
        "posterior_var_at",
    ),
    "rkhs": (
        "RkhsFunction",
        "grid_maximum",
        "make_rkhs_function",
        "sample_random_rkhs",
        "scale_to_norm",
    ),
    "ucb": (
        "RegretTrace",
        "beta_value",
        "run_gp_ucb",
        "trace_from_csv",
        "trace_to_csv",
    ),
}
_MODULES = ("analysis", "cli", "config", "kernels", "posterior", "rkhs", "ucb")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULES, *_SOURCE})
