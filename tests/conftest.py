"""Shared builders for experiment configurations, and the grading of their
traces, used across test modules."""

import pytest

from gpucb.analysis import grade_suite, grid_columns
from gpucb.config import (
    BetaKind,
    BetaSchedule,
    Box,
    ExperimentConfig,
    KernelFamily,
    KernelSpec,
    ObjectiveSpec,
)
from gpucb.kernels import KernelRows


@pytest.fixture
def fresh_memo(monkeypatch):
    """The per-process memo (``posterior._HELD``), emptied for this test;
    clearing it again starts the next command as its own process does."""
    held = {}
    monkeypatch.setattr("gpucb.posterior._HELD", held)
    return held


def make_config(
    family=KernelFamily.MATERN,
    nu=1.5,
    lengthscale=0.5,
    dim=1,
    rho=1.0,
    noise_kind="normal",
    noise_sigma=0.1,
    horizon=64,
    beta_kind=BetaKind.LOG_PRODUCT,
    delta=0.1,
    c0=1.0,
    c_subg=1.0,
    constant_value=1.0,
    candidates_count=64,
    candidates_method="lattice",
    eval_grid_count=64,
    objective_kind="random",
    m=20,
    B=2.0,
    centers=None,
    coeffs=None,
    seeds=(0,),
) -> ExperimentConfig:
    kernel = KernelSpec(family, nu=nu if family is KernelFamily.MATERN else None,
                        lengthscale=lengthscale)
    config = ExperimentConfig(
        kernel=kernel,
        domain=Box((0.0,) * dim, (1.0,) * dim),
        rho=rho,
        noise_kind=noise_kind,
        noise_sigma=noise_sigma,
        horizon=horizon,
        beta=BetaSchedule(
            kind=beta_kind, delta=delta, c0=c0, c_subg=c_subg, constant_value=constant_value
        ),
        candidates_count=candidates_count,
        candidates_method=candidates_method,
        eval_grid_count=eval_grid_count,
        objective=ObjectiveSpec(kind=objective_kind, m=m, B=B, centers=centers, coeffs=coeffs),
        seeds=tuple(seeds),
    )
    config.validate()
    return config


def grade_traces(config: ExperimentConfig, traces: list) -> list:
    """``analysis.grade_suite``'s rows for ``traces`` run under ``config``
    against its own objectives, graded as ``report`` grades a run."""
    grid = config.evaluation_points()
    K = KernelRows(config.kernel, config.candidate_points(), grid)
    objectives = {tr.seed: config.objective_for_seed(tr.seed) for tr in traces}
    return grade_suite(
        config,
        traces,
        {seed: f.on_points(grid) for seed, f in objectives.items()},
        {seed: f.norm for seed, f in objectives.items()},
        {tr.seed: grid_columns(grid, tr.X) for tr in traces},
        K,
        [config.horizon],
    )
