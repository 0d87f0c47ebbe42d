"""GP-UCB optimization of RKHS functions, with a seeded benchmark harness.

The library maintains a regularized Gaussian-process posterior over a fixed
candidate grid, runs the upper-confidence-bound sampling loop against
synthetic objectives of exactly known native-space norm, and audits the
resulting traces: uniform error ratios, information-gain growth, and
cumulative-regret exponents against the reference rates.
"""

from .analysis import (
    AuditSeries,
    BoundCheck,
    ExponentFit,
    RateReference,
    calibrate_c0,
    fit_regret_exponent,
    greedy_info_gain,
    prefix_bound_audit,
    rate_reference,
    regret_bound_check,
    states_at_checkpoints,
    trace_information_gain,
    uniform_bound_audit,
)
from .config import ExperimentConfig, ObjectiveSpec, parse_config, parse_config_file, render_config
from .kernels import (
    HolderReport,
    KernelFamily,
    KernelSpec,
    bessel_k,
    holder_validate,
    kernel_cross,
    kernel_eval,
    kernel_matrix,
)
from .posterior import (
    GrowingPosterior,
    NormChainReport,
    NumericError,
    PosteriorState,
    fit,
    logdet_information,
    norm_chain_check,
    posterior_mean_at,
    posterior_var_at,
    update,
)
from .rkhs import (
    Box,
    RkhsFunction,
    grid_maximum,
    make_rkhs_function,
    objective_record,
    parse_objective_record,
    sample_random_rkhs,
    scale_to_norm,
)
from .ucb import (
    BetaKind,
    BetaSchedule,
    RegretTrace,
    acquire,
    beta_value,
    edp_recommend,
    run_gp_ucb,
    trace_from_csv,
    trace_to_csv,
)

__version__ = "0.1.0"
