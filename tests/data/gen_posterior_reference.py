"""Regenerate posterior_reference.json with arbitrary-precision values.

Run once, with mpmath and numpy installed:

    python tests/data/gen_posterior_reference.py

The case is a replay-heavy run of the fixed-point-set posterior: 8 points
evenly spaced on [0, 1], a Matern 3/2 kernel with lengthscale 0.3, the
design {1, 3, 4, 6} played twice each, then point 1, then 300 seeded
replays of the design, with seeded standard normal observations.  At each
checkpoint t and each rho in {1e-3, 1e-4, 1e-5} the file holds the exact
posterior mean and variance at the 8 points, at 50 significant digits,
rounded to double precision.  k plays of one point with noise rho are one
play of their mean with noise rho / k, so the reference solves the 4 x 4
replicate-collapsed system A = K[D, D] + diag(rho / k) and stays cheap.
The kernel is psi(z) = (1 + z) exp(-z) with z = 2 sqrt(nu) r / lengthscale,
the package's Matern 3/2 profile, evaluated at the exact double inputs.
"""

import json

import mpmath
import numpy as np

mpmath.mp.dps = 50

NU = 1.5
LENGTHSCALE = 0.3
RHOS = (1e-3, 1e-4, 1e-5)
CHECKPOINTS = (10, 13, 50, 100, 200, 309)


def kernel(a, b):
    z = 2 * mpmath.sqrt(mpmath.mpf(NU)) * abs(mpmath.mpf(a) - mpmath.mpf(b)) / mpmath.mpf(LENGTHSCALE)
    return (1 + z) * mpmath.exp(-z)


def posterior(points, rho, order, y):
    """Exact mean and variance at ``points`` after observing ``y`` at the
    point indices ``order``."""
    design = sorted(set(order))
    k = [order.count(c) for c in design]
    ybar = [mpmath.fsum(mpmath.mpf(v) for c, v in zip(order, y) if c == p) / n for p, n in zip(design, k)]
    A = mpmath.matrix(len(design))
    for i, p in enumerate(design):
        for j, q in enumerate(design):
            A[i, j] = kernel(points[p], points[q])
        A[i, i] += mpmath.mpf(rho) / k[i]
    alpha = mpmath.lu_solve(A, mpmath.matrix(ybar))
    mean, var = [], []
    for x in points:
        kx = mpmath.matrix([kernel(x, points[p]) for p in design])
        mean.append(float(sum(kx[i] * alpha[i] for i in range(len(design)))))
        w = mpmath.lu_solve(A, kx)
        var.append(float(kernel(x, x) - sum(kx[i] * w[i] for i in range(len(design)))))
    return mean, var


def main():
    points = [float(x) for x in np.linspace(0.0, 1.0, 8)]
    rng = np.random.default_rng(14)
    design = np.array([1, 3, 4, 6])
    order = [int(c) for c in np.concatenate([design, design, [1], rng.choice(design, size=300)])]
    y = [float(v) for v in rng.standard_normal(len(order))]
    records = [
        {"rho": rho, "t": t, **dict(zip(("mean", "var"), posterior(points, rho, order[:t], y[:t])))}
        for rho in RHOS
        for t in CHECKPOINTS
    ]
    # one key, or one checkpoint, per line
    head = {"nu": NU, "lengthscale": LENGTHSCALE, "points": points, "order": order, "y": y}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in head.items()]
    lines.append('"checkpoints": [\n' + ",\n".join(json.dumps(r) for r in records) + "\n]")
    with open("tests/data/posterior_reference.json", "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} reference checkpoints")


if __name__ == "__main__":
    main()
