"""GP-UCB optimization of RKHS functions, with a seeded benchmark harness.

The library maintains a regularized Gaussian-process posterior over a fixed
candidate grid, runs the upper-confidence-bound sampling loop against
synthetic objectives of exactly known native-space norm, and audits the
resulting traces: uniform error ratios, information-gain growth, and
cumulative-regret exponents against the reference rates.

Each public name is imported from the module that defines it, the one whose
``__all__`` lists it: ``from gpucb.kernels import kernel_matrix``, and the
config's value types and the error types from ``gpucb.config``.  Importing
the package loads none of its modules, so a command loads only what it
reads: ``gpucb-bench validate`` loads ``config`` and no NumPy, while
``run``, ``sweep`` and ``report`` load the numeric modules they call.
"""

import os

# one BLAS thread before NumPy loads: a product split over more threads
# rounds differently (a caller that loaded NumPy first keeps its own count)
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
