"""Command-line harness: exit codes, artifacts, determinism."""

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gpucb.config
import gpucb.rkhs
from conftest import make_config
from gpucb.analysis import grid_columns
from gpucb.cli import cmd_report, cmd_run, cmd_sweep, cmd_validate, main
from gpucb.config import (
    Box,
    ExperimentConfig,
    KernelFamily,
    KernelSpec,
    halton_points,
    parse_config,
    render_config,
)
from gpucb.kernels import kernel_cross, kernel_matrix
from gpucb.posterior import fit, logdet_information
from gpucb.rkhs import sample_random_rkhs
from gpucb.ucb import _seed_noise, trace_from_csv, trace_to_csv

MINIMAL = """\
kernel.family = matern
kernel.nu = 1.5
kernel.lengthscale = 0.5
domain.dim = 1
domain.lower = 0
domain.upper = 1
rho = 1
noise.kind = normal
noise.sigma = 0.1
horizon = 8
beta.kind = log_product
beta.delta = 0.1
candidates.count = 16
candidates.method = lattice
eval_grid.count = 16
objective.kind = random
objective.m = 10
objective.B = 2
seeds = 0
"""


PINNED = Path(__file__).parent / "data" / "pinned"


def write_config(tmp_path, text=MINIMAL, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        assert cmd_validate(write_config(tmp_path)) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_rho_names_key(self, tmp_path, capsys):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("rho"))
        assert cmd_validate(write_config(tmp_path, text)) == 2
        assert "rho" in capsys.readouterr().err

    def test_crossed_domain_bounds(self, tmp_path):
        text = MINIMAL.replace("domain.lower = 0", "domain.lower = 2")
        assert cmd_validate(write_config(tmp_path, text)) == 2

    def test_zero_nu(self, tmp_path):
        text = MINIMAL.replace("kernel.nu = 1.5", "kernel.nu = 0")
        assert cmd_validate(write_config(tmp_path, text)) == 2

    def test_malformed_line_reports_location(self, tmp_path, capsys):
        assert cmd_validate(write_config(tmp_path, MINIMAL + "not a key value pair\n")) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert cmd_validate(str(tmp_path / "nope.txt")) == 2

    def test_eval_grid_smaller_than_candidates(self, tmp_path):
        text = MINIMAL.replace("eval_grid.count = 16", "eval_grid.count = 4")
        assert cmd_validate(write_config(tmp_path, text)) == 2


# (edit of MINIMAL, key that the error names)
MALFORMED = {
    "delta outside (0,1)": (("beta.delta = 0.1", "beta.delta = 1.5"), "beta.delta"),
    "infinite bound": (("domain.upper = 1", "domain.upper = inf"), "domain.upper"),
    "infinite box width": (
        ("domain.lower = 0\ndomain.upper = 1", "domain.lower = -1e308\ndomain.upper = 1e308"),
        "domain.lower",
    ),
    "nan rho": (("rho = 1", "rho = nan"), "rho"),
    "nan noise": (("noise.sigma = 0.1", "noise.sigma = nan"), "noise.sigma"),
    "word horizon": (("horizon = 8", "horizon = abc"), "horizon"),
    "misspelt key": (("beta.delta = 0.1", "beta.delta = 0.1\nbeta.co = 0.39"), "beta.co"),
    "repeated seed": (("seeds = 0", "seeds = 0, 0"), "seeds"),
    "negative seed": (("seeds = 0", "seeds = -1"), "seeds"),
    "coefficient count": (
        ("objective.kind = random", "objective.kind = explicit\n"
         "objective.centers = 0.25; 0.75\nobjective.coeffs = 1.5"),
        "objective.coeffs",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_malformed_config_exits_2(tmp_path, capsys, command, case):
    (old, new), key = MALFORMED[case]
    assert old in MINIMAL
    config = write_config(tmp_path, MINIMAL.replace(old, new))
    out = tmp_path / "out"
    code = cmd_validate(config) if command == "validate" else cmd_run(config, str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"(key: {key}) (line " in err
    assert not out.exists()


@pytest.mark.parametrize("unreadable", ["directory", "not utf-8"])
@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, unreadable):
    config = tmp_path / "config.txt"
    if unreadable == "directory":
        config.mkdir()
    else:
        config.write_bytes(MINIMAL.encode("utf-16"))
    out = tmp_path / "out"
    extra = {
        "validate": [],
        "run": ["--out", str(out)],
        "sweep": ["--out", str(out), "--axis", "horizon", "--values", "8"],
    }[command]
    assert main([command, "--config", str(config)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {config}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


class TestRun:
    def test_minimal_run_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path), str(out)) == 0
        trace = (out / "trace_seed0.csv").read_text()
        assert len(trace.splitlines()) == 9  # header + 8 steps
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "summary.csv", "trace_seed0.csv"]

    def test_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cmd_run(config, str(out1)) == 0
        assert cmd_run(config, str(out2)) == 0
        for name in ("config.txt", "trace_seed0.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_blas_thread_count_leaves_the_bytes_unchanged(self, tmp_path):
        # the se_wide_sweep workload's config at T = 512, whose refactors'
        # products are large enough for OpenBLAS to split: at two threads the
        # last digits of sigma and mu moved when the CLI took the caller's
        # thread count.  Unset, OpenBLAS takes the core count, which on a
        # 2-core machine is the run at 2, so the run at 1 is compared too
        text = (
            MINIMAL.replace("kernel.family = matern", "kernel.family = se")
            .replace("kernel.nu = 1.5\n", "")
            .replace("kernel.lengthscale = 0.5", "kernel.lengthscale = 0.2")
            .replace("domain.dim = 1", "domain.dim = 2")
            .replace("horizon = 8", "horizon = 512")
            .replace("candidates.count = 16", "candidates.count = 2025")
            .replace("eval_grid.count = 16", "eval_grid.count = 2025")
            .replace("objective.m = 10", "objective.m = 20")
            .replace("seeds = 0", "seeds = 0, 1")
            + "beta.c0 = 0.39\n"
        )
        config = write_config(tmp_path, text)
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = str(Path(gpucb.config.__file__).resolve().parents[1])
        trees = []
        for threads in (None, "1", "2"):
            env = {k: v for k, v in os.environ.items() if k not in names}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            if threads:
                env.update(dict.fromkeys(names, threads))
            out = tmp_path / f"threads_{threads}"
            argv = [sys.executable, "-m", "gpucb.cli", "run", "--config", config, "--out", str(out)]
            subprocess.run(argv, env=env, capture_output=True, check=True)
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1] == trees[2]

    def test_multi_seed_and_jobs(self, tmp_path):
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2")
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        config = write_config(tmp_path, text)
        assert cmd_run(config, str(out_serial), jobs=1) == 0
        assert cmd_run(config, str(out_parallel), jobs=3) == 0
        names = sorted(p.name for p in out_serial.iterdir())
        assert names == sorted(p.name for p in out_parallel.iterdir())
        assert names == ["config.txt", "summary.csv"] + [
            f"trace_seed{k}.csv" for k in range(3)
        ]
        for name in names:
            assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()

    def test_each_objective_drawn_once(self, tmp_path, monkeypatch):
        draws = []

        def counted(spec, m, B, domain, seed):
            draws.append(seed)
            return sample_random_rkhs(spec, m, B, domain, seed)

        monkeypatch.setattr(gpucb.rkhs, "sample_random_rkhs", counted)
        config = write_config(tmp_path, MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4"))
        assert cmd_run(config, str(tmp_path / "run")) == 0
        assert draws == [0, 1, 2, 3, 4]
        draws.clear()
        # the objective does not depend on the horizon: one draw per seed
        # serves every cell of a horizon sweep
        assert cmd_sweep(config, "horizon", ["8", "16", "32"], str(tmp_path / "sweep")) == 0
        assert draws == [0, 1, 2, 3, 4]

    def test_summary_info_gain_matches_refit(self, tmp_path):
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1").replace("horizon = 8", "horizon = 48")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        config = parse_config(text)
        lines = (out / "summary.csv").read_text().splitlines()
        column = lines[0].split(",").index("info_gain")
        for line, seed in zip(lines[1:], (0, 1)):
            trace = trace_from_csv((out / f"trace_seed{seed}.csv").read_text(), config.kernel, 0.0, seed)
            refit = logdet_information(fit(config.kernel, config.rho, trace.X, trace.y))
            assert float(line.split(",")[column]) == pytest.approx(refit, rel=1e-10)

    def test_bad_config_exit_2(self, tmp_path):
        text = MINIMAL.replace("rho = 1", "rho = -1")
        assert cmd_run(write_config(tmp_path, text), str(tmp_path / "o")) == 2

    def test_pool_capped_at_seed_count(self, tmp_path, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        config = write_config(tmp_path, MINIMAL.replace("seeds = 0", "seeds = 0, 1"))
        assert cmd_run(config, str(tmp_path / "out"), jobs=32) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("finished_first", [False, True])
    def test_stopped_write_leaves_no_config(self, tmp_path, monkeypatch, capsys, finished_first):
        # config.txt is written last, so a suite whose writes stopped part
        # way is not a finished run, even over an earlier finished one
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("horizon = 8", "horizon = 64")
        out = tmp_path / "out"
        if finished_first:
            assert cmd_run(write_config(tmp_path, text, "first.txt"), str(out)) == 0
        written = []

        def stop_at_third(trace):
            if len(written) == 2:
                raise OSError("no space left on device")
            written.append(trace.seed)
            return trace_to_csv(trace)

        monkeypatch.setattr("gpucb.ucb.trace_to_csv", stop_at_third)
        rerun = write_config(tmp_path, text.replace("noise.sigma = 0.1", "noise.sigma = 0.2"))
        assert cmd_run(rerun, str(out)) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: no space left on device\n"
        assert (out / "trace_seed1.csv").exists() and not (out / "config.txt").exists()
        assert cmd_report(str(out)) == 4
        assert capsys.readouterr().err == "error: no completed runs found\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        # --out names an existing file, so the output directory cannot be made
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        sweep = ["--axis", "horizon", "--values", "8"] if command == "sweep" else []
        assert main([command, "--config", write_config(tmp_path), "--out", str(out)] + sweep) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and "File exists" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, jobs", [("run", "0"), ("sweep", "-3")])
    def test_jobs_below_1_exits_2(self, tmp_path, capsys, command, jobs):
        out = tmp_path / "out"
        sweep = ["--axis", "horizon", "--values", "8"] if command == "sweep" else []
        assert main([command, "--config", write_config(tmp_path), "--out", str(out), "--jobs", jobs] + sweep) == 2
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()


# a general order whose K_nu overflows at the smallest distance of a
# 256-point lattice (z = 0.19)
OVERFLOW = MINIMAL.replace("candidates.count = 16", "candidates.count = 256").replace(
    "eval_grid.count = 16", "eval_grid.count = 256"
)


class TestKernelExtremes:
    def test_k_nu_overflow_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, OVERFLOW.replace("kernel.nu = 1.5", "kernel.nu = 150.2"))
        assert cmd_validate(config) == 0
        assert cmd_run(config, str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numeric failure: K_nu overflows double precision")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "config.txt").exists()

    def test_k_nu_overflow_fails_its_sweep_cell(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert cmd_sweep(write_config(tmp_path, OVERFLOW), "kernel.nu", ["1.5", "150.2"], str(out)) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: cell kernel_nu_150.2 failed: K_nu overflows double precision")
        rows = [line.split(",")[:4] for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert rows == [["kernel.nu", "1.5", "0", "ok"], ["kernel.nu", "150.2", "0", "failed"]]

    @pytest.mark.parametrize("nu", ["1.2", "1.5"])
    def test_lengthscale_past_the_double_range_runs(self, tmp_path, nu):
        # every distinct pair is at infinite scaled distance: K = I
        text = MINIMAL.replace("kernel.nu = 1.5", f"kernel.nu = {nu}")
        config = write_config(tmp_path, text.replace("kernel.lengthscale = 0.5", "kernel.lengthscale = 1e-310"))
        assert cmd_run(config, str(tmp_path / "out")) == 0
        assert (tmp_path / "out" / "config.txt").exists()

    @pytest.mark.parametrize("old, new, lengthscale", [
        ("kernel.nu = 1.5", "kernel.nu = 2.5", "1e-300"),
        ("kernel.family = matern", "kernel.family = se", "1e-310"),
    ], ids=["matern_2.5", "se"])
    def test_underflowing_profile_runs_silently(self, tmp_path, capsys, old, new, lengthscale):
        # finite but huge scaled distances: K = I, with no warning or error
        text = MINIMAL.replace(old, new).replace("kernel.lengthscale = 0.5", f"kernel.lengthscale = {lengthscale}")
        assert cmd_run(write_config(tmp_path, text), str(tmp_path / "out")) == 0
        assert capsys.readouterr().err == ""


class TestRefactorFailure:
    def test_failed_refactor_exits_3_naming_its_step(self, tmp_path, capsys, monkeypatch):
        # the first refactor comes after the first step t with more rows than
        # twice the distinct points played, here read off an unbroken run
        config = write_config(tmp_path, MINIMAL.replace("horizon = 8", "horizon = 64"))
        assert cmd_run(config, str(tmp_path / "ok")) == 0
        x = np.loadtxt(tmp_path / "ok" / "trace_seed0.csv", delimiter=",", skiprows=1)[:, 1]
        step = next(t for t in range(1, 65) if t > 2 * np.unique(x[:t]).size)
        capsys.readouterr()
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        assert cmd_run(config, str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: numeric failure at step {step}: Cholesky factorization")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "config.txt").exists()


def record_row_builds(monkeypatch):
    """The (X, Y) of each ``kernel_cross`` call a ``KernelRows`` makes, as
    a list that fills while the test runs: one per batch of rows built."""
    import gpucb.kernels

    built = []
    kernel_cross = gpucb.kernels.kernel_cross

    def counted(spec, X, Y):
        built.append((np.array(X), np.array(Y)))
        return kernel_cross(spec, X, Y)

    monkeypatch.setattr(gpucb.kernels, "kernel_cross", counted)
    return built


def played_rows(suite: Path, config: ExperimentConfig) -> set:
    """The grid rows of the points that ``suite``'s traces played."""
    grid = config.evaluation_points()
    rows = set()
    for seed in config.seeds:
        trace = trace_from_csv((suite / f"trace_seed{seed}.csv").read_text(), config.kernel, 0.0, seed)
        rows.update(grid_columns(grid, trace.X).tolist())
    return rows


class TestSharedKernelMatrix:
    def test_sweep_builds_the_row_of_each_played_candidate_once(self, tmp_path, monkeypatch, fresh_memo):
        # the optimum is one of the 16 candidates, so both seeds of all three
        # cells run over the candidates alone and share one store of their
        # kernel rows, which builds the row of each point they play, once
        built = record_row_builds(monkeypatch)
        config = write_config(tmp_path, MINIMAL.replace("seeds = 0", "seeds = 0, 1"))
        assert cmd_sweep(config, "horizon", ["8", "16", "32"], str(tmp_path / "sweep")) == 0
        cells = [tmp_path / "sweep" / f"horizon_{T}" for T in (8, 16, 32)]
        config = parse_config((cells[-1] / "config.txt").read_text())
        cand = config.candidate_points()
        played = set().union(*(played_rows(cell, config) for cell in cells))
        assert all(np.array_equal(Y, cand) for _, Y in built)
        rows = np.concatenate([grid_columns(cand, X) for X, _ in built]).tolist()
        assert sorted(rows) == sorted(played) and len(played) < 16
        # the held store's rows are the candidates' kernel matrix's, bit for
        # bit, and it hands out copies of them, so no reader can write them
        _, K = fresh_memo["kernel"]
        played = sorted(played)
        taken = K.take(played)
        assert taken.tobytes() == kernel_matrix(config.kernel, cand)[played].tobytes()
        taken[0, 0] = 0.0
        assert K.take(played).tobytes() == kernel_matrix(config.kernel, cand)[played].tobytes()
        assert len(built) == len(rows)


class TestSharedReportBlock:
    """``report`` builds one store of the candidates' kernel rows against the
    evaluation grid, which the information gain and the audits share, and
    parses and evaluates each distinct objective once."""

    @staticmethod
    def report_counting(tmp_path, monkeypatch, held, text):
        import gpucb.analysis
        import gpucb.cli
        import gpucb.posterior
        import gpucb.rkhs
        from gpucb.posterior import GrowingPosterior
        from gpucb.rkhs import RkhsFunction

        out = tmp_path / "run"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        matrices, evaluated, norms, gains, picks = [], [], [], [], []

        def unreachable(*args):
            raise AssertionError("a kernel was built outside the store")

        greedy_info_gain = gpucb.analysis.greedy_info_gain

        def recorded_gain(K, rho, T):
            gains.append(K)
            return greedy_info_gain(K, rho, T)

        class Picking(GrowingPosterior):
            def observe(self, c, y):
                picks.append(c)
                super().observe(c, y)

        def counted_matrix(spec, X):
            matrices.append(np.array(X))
            return kernel_matrix(spec, X)

        def counted_norm(spec, X):
            norms.append(np.array(X))
            return kernel_matrix(spec, X)

        on_points = RkhsFunction.on_points

        def counted_on_points(f, X):
            evaluated.append(f)
            return on_points(f, X)

        # a report process starts with no kernel or objective from the run
        held.clear()
        # the store builds every kernel row; the posterior, analysis and the
        # CLI evaluate no kernel, and were they to import kernel_cross
        # again, their calls would fail
        crosses = record_row_builds(monkeypatch)
        for module in (gpucb.cli, gpucb.posterior, gpucb.analysis):
            monkeypatch.setattr(module, "kernel_cross", unreachable, raising=False)
        monkeypatch.setattr(gpucb.analysis, "greedy_info_gain", recorded_gain)
        monkeypatch.setattr(gpucb.analysis, "GrowingPosterior", Picking)
        for module in (gpucb.posterior, gpucb.analysis, gpucb.cli):
            monkeypatch.setattr(module, "kernel_matrix", counted_matrix, raising=False)
        monkeypatch.setattr(gpucb.rkhs, "kernel_matrix", counted_norm)
        monkeypatch.setattr(RkhsFunction, "on_points", counted_on_points)
        assert cmd_report(str(out)) == 0
        config = parse_config((out / "config.txt").read_text())
        report = (out / "report.txt").read_text()
        return config, crosses, matrices, evaluated, norms, (gains, picks), report

    def test_report_builds_the_audited_and_greedy_rows_once(self, tmp_path, monkeypatch, fresh_memo):
        # 64 candidates on a grid of more points, 5 audited seeds and the
        # information gain: one store, which builds the row of each point
        # the audits' designs hold or the information gain picks, once, and
        # the information gain reads that store, no kernel matrix of its own
        text = (
            MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
            .replace("horizon = 8", "horizon = 64")
            .replace("candidates.count = 16", "candidates.count = 64")
            .replace("eval_grid.count = 16", "eval_grid.count = 100")
        )
        config, crosses, matrices, evaluated, norms, (gains, picks), report = self.report_counting(
            tmp_path, monkeypatch, fresh_memo, text
        )
        cand, grid = config.candidate_points(), config.evaluation_points()
        m = cand.shape[0]
        assert m < grid.shape[0]
        assert "PASS  error-ratio growth" in report and "SKIP  information-gain" not in report
        assert all(np.array_equal(Y, grid) for _, Y in crosses)
        rows = np.concatenate([grid_columns(cand, X) for X, _ in crosses]).tolist()
        # the audits' last checkpoint is the horizon: their designs hold
        # every point a trace played
        audited = played_rows(tmp_path / "run", config)
        assert len(picks) == 64 and sorted(rows) == sorted(audited | set(picks)) and len(rows) < m
        assert matrices == []
        # the gain reads the report's (m, n) store, whose rows it picked are
        # built, and they are the whole build's rows bit for bit
        (K,) = gains
        before = len(crosses)
        block = kernel_cross(config.kernel, cand, grid)
        read = K.take(sorted(set(picks)))
        assert K.shape == (m, grid.shape[0]) and len(crosses) == before
        assert read.tobytes() == block[sorted(set(picks))].tobytes()
        assert len(evaluated) == 5 and len({id(f) for f in evaluated}) == 5
        # two per seed's draw: the draw's and the rescaled one's
        assert len(norms) == 2 * 5

    def test_seeds_sharing_an_objective_evaluate_it_once(self, tmp_path, monkeypatch, fresh_memo):
        text = (
            MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
            .replace("horizon = 8", "horizon = 64")
            .replace("objective.kind = random", "objective.kind = explicit")
            + "objective.centers = 0.2; 0.7\nobjective.coeffs = 1, -0.5\n"
        )
        _, _, _, evaluated, norms, _, _ = self.report_counting(tmp_path, monkeypatch, fresh_memo, text)
        assert len(evaluated) == 1
        # one build of the shared objective, so one norm over its two centers
        assert len(norms) == 1 and norms[0].shape == (2, 1)


class TestSeedIndependentInputs:
    """A general-order Matern suite against an explicit objective, as the
    bessel_halton2d benchmark workload runs it at a smaller size."""

    TEXT = (
        MINIMAL.replace("kernel.nu = 1.5", "kernel.nu = 1.2")
        .replace("domain.dim = 1", "domain.dim = 2")
        .replace("candidates.method = lattice", "candidates.method = low_discrepancy")
        .replace("candidates.count = 16", "candidates.count = 64")
        .replace("eval_grid.count = 16", "eval_grid.count = 81")
        .replace("horizon = 8", "horizon = 64")
        .replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
        .replace("objective.kind = random", "objective.kind = explicit")
        # peaked at the first Halton point, so no seed needs a shadow column
        + "objective.centers = 0.5,0.33333333333333331; 0.1,0.9\nobjective.coeffs = 1, -0.5\n"
    )

    def test_bessel_k_calls_per_command(self, tmp_path, monkeypatch, fresh_memo):
        import gpucb.kernels

        calls = []
        bessel_k = gpucb.kernels.bessel_k

        def counted(nu, z):
            calls.append(np.size(z))
            return bessel_k(nu, z)

        monkeypatch.setattr(gpucb.kernels, "bessel_k", counted)
        out = tmp_path / "run"
        counts = []
        for command in (lambda: cmd_run(write_config(tmp_path, self.TEXT), str(out)), lambda: cmd_report(str(out))):
            # each command starts as its own process does, with no kernel or objective built
            fresh_memo.clear()
            calls.clear()
            assert command() == 0
            counts.append(list(calls))
        config = parse_config((out / "config.txt").read_text())
        f = config.objective_for_seed(0)
        assert int(np.argmax(f.on_points(config.evaluation_points()))) == 0
        # the run: the objective's norm, its values over the grid and the
        # candidates' kernel matrix, once for all five seeds (11 calls when
        # each seed built its own objective and values); the report: the
        # record's norm, its grid values and the candidates-by-grid block.
        # Each store of kernel rows is built whole, by the whole build's
        # calls, and never a row at a time
        assert [len(c) for c in counts] == [3, 3]
        cand = config.candidate_points()
        for made, others in zip(counts, (cand, config.evaluation_points())):
            calls.clear()
            kernel_cross(config.kernel, cand, others)
            assert made[-1:] == calls

    def test_halton_points_are_the_scalar_radical_inverses(self):
        def radical_inverse(index, base):
            x, denom = 0.0, 1.0
            while index:
                index, digit = divmod(index, base)
                denom *= base
                x += digit / denom
            return x

        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        unit = np.array([[radical_inverse(i, b) for b in primes] for i in range(1, 4097)])
        for d in range(1, 13):
            box = Box((0.0,) * d, (1.0,) * d)
            for count in (1, 2, 3, 64, 1000, 4096):
                assert halton_points(box, count).tobytes() == unit[:count, :d].tobytes(), (d, count)
        box = Box((-1.5, 0.25), (2.0, 0.3))
        scaled = np.array([-1.5, 0.25]) + unit[:300, :2] * (np.array([2.0, 0.3]) - np.array([-1.5, 0.25]))
        assert halton_points(box, 300).tobytes() == scaled.tobytes()


class TestSweep:
    def test_horizon_sweep_layout(self, tmp_path):
        out = tmp_path / "sweep"
        assert cmd_sweep(write_config(tmp_path), "horizon", ["8", "16", "32"], str(out)) == 0
        for value in ("8", "16", "32"):
            assert (out / f"horizon_{value}" / "trace_seed0.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 3 * 1  # header + |values| * |seeds|

    @staticmethod
    def tree(out):
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def test_horizon_cells_are_independent_runs(self, tmp_path, fresh_memo):
        # each seed runs one loop for all three cells, longest first; every
        # cell is byte for byte the run at its own horizon
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2")
        out = tmp_path / "sweep"
        assert cmd_sweep(write_config(tmp_path, text), "horizon", ["32", "8", "16"], str(out)) == 0
        for horizon in ("32", "8", "16"):
            fresh_memo.clear()
            alone = tmp_path / f"run_{horizon}"
            assert cmd_run(write_config(tmp_path, text.replace("horizon = 8", f"horizon = {horizon}")), str(alone)) == 0
            assert self.tree(out / f"horizon_{horizon}") == self.tree(alone)

    def test_jobs_2_writes_the_bytes_of_jobs_1(self, tmp_path):
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2")
        config = write_config(tmp_path, text)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert cmd_sweep(config, "horizon", ["32", "8", "16"], str(serial), jobs=1) == 0
        assert cmd_sweep(config, "horizon", ["32", "8", "16"], str(parallel), jobs=2) == 0
        assert len(self.tree(serial)) == 1 + 3 * 5
        assert self.tree(serial) == self.tree(parallel)

    def test_loop_failing_mid_sweep_fails_the_cells_from_its_step(self, tmp_path, capsys, monkeypatch):
        # every Cholesky call fails, so each seed's loop fails at its first
        # refactor: the first step t with more rows than twice the distinct
        # points played, read off an unbroken run
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2").replace("horizon = 8", "horizon = 64")
        ok = tmp_path / "ok"
        assert cmd_run(write_config(tmp_path, text), str(ok)) == 0
        steps = []
        for seed in (0, 1, 2):
            x = np.loadtxt(ok / f"trace_seed{seed}.csv", delimiter=",", skiprows=1)[:, 1]
            steps.append(next(t for t in range(1, 65) if t > 2 * np.unique(x[:t]).size))
        k = min(steps)
        assert 1 < k < max(steps) - 1 < 63
        horizons = [64, k - 1, k, max(steps) - 1]
        # the bytes of the cells below k, unbroken
        unbroken = tmp_path / "unbroken"
        assert cmd_sweep(write_config(tmp_path, text), "horizon", list(map(str, horizons)), str(unbroken)) == 0

        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        # the failure each failing cell names is its own run's, the first
        # failing seed's in config order
        expected = []
        for horizon in horizons[:1] + horizons[2:]:
            capsys.readouterr()
            alone = write_config(tmp_path, text.replace("horizon = 64", f"horizon = {horizon}"), f"h{horizon}.txt")
            assert cmd_run(alone, str(tmp_path / f"failed_{horizon}")) == 3
            message = capsys.readouterr().err.partition(": ")[2].partition(": ")[2]
            expected.append(f"warning: cell horizon_{horizon} failed: {message}")
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert cmd_sweep(write_config(tmp_path, text), "horizon", list(map(str, horizons)), str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err == "".join(expected)
        assert captured.out == "sweep complete: 4 cell(s), 3 failed\n"
        rows = [line.split(",")[1:4] for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert rows == [[str(h), str(s), "ok" if h < k else "failed"] for h in horizons for s in (0, 1, 2)]
        below = out / f"horizon_{k - 1}"
        assert self.tree(below) == self.tree(unbroken / below.name)
        assert not any((out / f"horizon_{h}").exists() for h in horizons if h >= k)

    def test_c0_sweep(self, tmp_path):
        out = tmp_path / "cal"
        assert cmd_sweep(write_config(tmp_path), "beta.c0", ["0.5", "1", "2"], str(out)) == 0
        assert (out / "beta_c0_2" / "summary.csv").exists()

    def test_unknown_axis(self, tmp_path):
        assert cmd_sweep(write_config(tmp_path), "nonsense.key", ["1"], str(tmp_path / "s")) == 2

    @pytest.mark.parametrize("edits, axis", [
        ((), "beta.constant_value"),
        ((("kernel.family = matern", "kernel.family = squared_exponential"),), "kernel.nu"),
        ((("beta.kind = log_product", "beta.kind = srinivas"),), "beta.c_subg"),
        ((("beta.kind = log_product", "beta.kind = constant"),), "beta.c0"),
    ], ids=["constant_value_under_log_product", "nu_under_se", "c_subg_under_srinivas",
            "c0_under_constant"])
    def test_axis_the_run_does_not_read_exits_2(self, tmp_path, capsys, edits, axis):
        # two cells that differ in a key the run does not read would be
        # the same run twice
        text = MINIMAL
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        out = tmp_path / "s"
        assert cmd_sweep(write_config(tmp_path, text), axis, ["1", "2"], str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot sweep over key {axis!r}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("axis, good, bad", [
        ("beta.delta", "0.2", "2"),
        ("horizon", "8", "abc"),
        ("kernel.lengthscale", "0.5", "-1"),
        ("rho", "1", "nan"),
        # the same horizon once converted
        ("horizon", "8", "08"),
    ])
    def test_bad_value_exits_2_before_any_cell(self, tmp_path, capsys, axis, good, bad):
        out = tmp_path / "s"
        assert cmd_sweep(write_config(tmp_path), axis, [good, bad], str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"(key: {axis})" in err
        assert not out.exists()

    def test_empty_value_list_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        argv = ["sweep", "--config", write_config(tmp_path), "--axis", "horizon", "--values", ",", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "(key: horizon)" in err
        assert not out.exists()


class TestReport:
    @pytest.mark.slow
    def test_report_on_horizon_sweep(self, tmp_path, capsys):
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
        text = text.replace("candidates.count = 16", "candidates.count = 64")
        text = text.replace("eval_grid.count = 16", "eval_grid.count = 64")
        config = write_config(tmp_path, text)
        out = tmp_path / "sweep"
        assert cmd_sweep(config, "horizon", ["32", "512"], str(out)) == 0
        assert cmd_report(str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "cumulative-regret exponent" in report
        assert "noiseless bias bound" in report
        assert "PASS  noiseless bias bound" in report

    def test_empty_dir_exit_4(self, tmp_path):
        assert cmd_report(str(tmp_path)) == 4

    @pytest.mark.parametrize("edits, horizons, message", [
        # the objective peaks at the first candidate, x = 0, which the first
        # step plays and, with no noise and a tiny constant beta, every later
        # step too: the regret is 0 throughout
        (
            (("noise.sigma = 0.1", "noise.sigma = 0"),
             ("beta.kind = log_product", "beta.kind = constant\nbeta.constant_value = 0.0001"),
             ("objective.kind = random\nobjective.m = 10\nobjective.B = 2",
              "objective.kind = explicit\nobjective.centers = 0\nobjective.coeffs = 1")),
            ["64"],
            "only 0 usable checkpoints after exclusions",
        ),
        ((("seeds = 0, 1, 2, 3, 4", "seeds = 0, 1, 2"),), ["64"], "need >= 5 traces, got 3"),
        ((), ["16", "32"], "need t_max >= 4*t_min, got [16, 32]"),
    ], ids=["zero_regret", "three_seeds", "narrow_sweep"])
    def test_insufficient_data_exits_4(self, tmp_path, capsys, edits, horizons, message):
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        out = tmp_path / "out"
        assert cmd_sweep(write_config(tmp_path, text), "horizon", horizons, str(out)) == 0
        capsys.readouterr()
        assert cmd_report(str(out)) == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def readme_run_at_horizon_64(tmp_path):
        """The README config at horizon 64 under a constant schedule, whose
        beta column does not read rho, so an edit to rho passes the trace
        checks."""
        text = README_EXAMPLE.replace("horizon = 4096", "horizon = 64")
        text = text.replace("beta.kind = log_product", "beta.kind = constant")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        return out

    def test_numeric_failure_while_grading_exits_3(self, tmp_path, capsys, monkeypatch):
        # graded at its own rho, with a halved factor in every fit while
        # grading: the whitened rows double, leaving negative variances
        out = self.readme_run_at_horizon_64(tmp_path)
        config = (out / "config.txt").read_text()
        assert "\nrho = 1\n" in config
        capsys.readouterr()
        cholesky = gpucb.posterior._cholesky
        monkeypatch.setattr(gpucb.posterior, "_cholesky", lambda K, noise: 0.5 * cholesky(K, noise))
        assert cmd_report(str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numeric failure: negative posterior variance")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "report.txt").exists() and not (out / "report.csv").exists()

    def test_tiny_rho_grades_without_a_false_numeric_failure(self, tmp_path, capsys):
        # graded at rho = 1e-12: the audits' design columns come from the
        # factor, where the product inv(L) K[D, D] cancels to a variance
        # below -1e-12, which exited 3 as a broken factorization
        out = self.readme_run_at_horizon_64(tmp_path)
        config = parse_config((out / "config.txt").read_text())
        (out / "config.txt").write_text(render_config(config.with_override("rho", "1e-12")))
        capsys.readouterr()
        assert cmd_report(str(out)) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "report.txt").read_text().splitlines()
        assert any(row.startswith("PASS  error-ratio growth: ") for row in rows)

    def test_zero_sd_fails_growth_naming_the_traces(self, tmp_path):
        # a genuine run at rho = 1e-14 under a constant schedule: at t = 128
        # the audit variance of seed 3 cancels to exactly 0 where the error
        # is not 0, so its ratio is infinite
        text = README_EXAMPLE.replace("horizon = 4096", "horizon = 128").replace("\nrho = 1\n", "\nrho = 1e-14\n")
        text = text.replace("beta.kind = log_product", "beta.kind = constant")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        assert cmd_report(str(out)) == 0
        (row,) = [line for line in (out / "report.txt").read_text().splitlines() if "error-ratio growth" in line]
        assert row.startswith("FAIL  error-ratio growth: ")
        zero = [part for part in row.split(": ", 1)[1].split("; ") if "sd 0" in part]
        assert zero == ["inf<=6.000 (seed 3: sd 0 at t=128)"]

    def test_skip_row_names_flag_rate_and_flagged_tail(self, tmp_path):
        # a small exploration constant leaves no trace fully flagged
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("horizon = 8", "horizon = 64")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text + "beta.c0 = 0.2\n"), str(out)) == 0
        assert cmd_report(str(out)) == 0
        flags = [
            trace_from_csv((out / f"trace_seed{seed}.csv").read_text(), None, 0.0, seed).flag for seed in range(5)
        ]
        assert not any(f.all() for f in flags)
        rate = sum(int(f.sum()) for f in flags) / 320
        tails = []
        for f in flags:
            held = [t + 1 for t in range(64) if f[t:].all()]
            tails.append(str(held[0]) if held else "never")
        expected = (
            f"SKIP  conditional regret bound: no fully flagged traces; flag rate {rate:.4f} "
            f"over 320 steps; every later flag held from step {', '.join(tails)}"
        )
        assert expected in (out / "report.txt").read_text().splitlines()

    def test_report_audits_every_trace(self, tmp_path):
        # six seeds: the audits grade the sixth trace too
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4, 5").replace("horizon = 8", "horizon = 64")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        assert cmd_report(str(out)) == 0
        rows = (out / "report.txt").read_text().splitlines()
        assert "PASS  noiseless bias bound: max ratio <= norm on 6 trace(s)" in rows
        (growth,) = [row for row in rows if "error-ratio growth: " in row]
        assert len(growth.split(": ", 1)[1].split("; ")) == 6

    def test_injected_superlinear_trace_fails(self, tmp_path):
        # forge a suite that agrees with its objectives but plays the worst
        # candidate from step 33 on: its cumulative regret grows linearly,
        # so the exponent row must FAIL against the reference band; the
        # forged steps claim no error bound (flag 0), since the run's mu and
        # sigma at them are of other points
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("horizon = 8", "horizon = 512")
        out = tmp_path / "forged"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        config = parse_config(text)
        cand, grid = config.candidate_points(), config.evaluation_points()
        for seed in config.seeds:
            f = config.objective_for_seed(seed)
            f_star = float(np.max(f.on_points(grid)))
            worst = int(np.argmin(f.on_points(cand)))
            path = out / f"trace_seed{seed}.csv"
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            x_col, y_col, inst_col, cum_col, flag_col = (
                header.index(c) for c in ("x_1", "y", "inst_regret", "cum_regret", "flag")
            )
            rows = [line.split(",") for line in lines[1:]]
            noise = _seed_noise(config, seed)
            for t, row in enumerate(rows[32:], start=32):
                row[x_col] = format(cand[worst, 0], ".17g")
                row[y_col] = format(f.on_points(cand[worst])[0] + noise[t], ".17g")
                row[inst_col] = format(f_star - f.on_points(cand[worst])[0], ".17g")
                row[flag_col] = "0"
            cum = np.cumsum([float(row[inst_col]) for row in rows])
            for row, value in zip(rows, cum):
                row[cum_col] = format(value, ".17g")
            path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        assert cmd_report(str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "FAIL  cumulative-regret exponent" in report


def _trace_rows(path):
    """The header and the rows of a trace file, each row split into fields."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _write_trace_rows(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def _relabelled_run(runs, out):
    # the c0 = 0.2 run under the c0 = 0.39 run's config.txt and beta column
    shutil.copytree(runs["c0_0.2"], out)
    shutil.copyfile(runs["base"] / "config.txt", out / "config.txt")
    for seed in range(5):
        header, rows = _trace_rows(out / f"trace_seed{seed}.csv")
        _, want = _trace_rows(runs["base"] / f"trace_seed{seed}.csv")
        col = header.index("beta")
        for row, source in zip(rows, want):
            row[col] = source[col]
        _write_trace_rows(out / f"trace_seed{seed}.csv", header, rows)


def _consistent_forgery(runs, out):
    # every step claims the error bound, under a posterior sd wide enough
    # that each flagged row agrees with itself
    shutil.copytree(runs["base"], out)
    for seed in range(5):
        header, rows = _trace_rows(out / f"trace_seed{seed}.csv")
        for row in rows:
            row[header.index("sigma")], row[header.index("flag")] = "10", "1"
        _write_trace_rows(out / f"trace_seed{seed}.csv", header, rows)


def _swapped_choice(runs, out):
    # step 10 of seed 0 plays the candidate 7 places over, with y and the
    # regret columns rewritten to match and no error bound claimed
    shutil.copytree(runs["base"], out)
    config = parse_config((out / "config.txt").read_text())
    cand = config.candidate_points()
    f = config.objective_for_seed(0)
    path = out / "trace_seed0.csv"
    header, rows = _trace_rows(path)
    row = rows[9]
    old = np.flatnonzero(cand[:, 0] == float(row[header.index("x_1")]))[0]
    new = old + 7 if old + 7 < len(cand) else old - 7
    shift = float(f.on_points(cand[new])[0] - f.on_points(cand[old])[0])
    row[header.index("x_1")] = format(cand[new, 0], ".17g")
    for name, sign in (("y", 1.0), ("inst_regret", -1.0)):
        row[header.index(name)] = format(float(row[header.index(name)]) + sign * shift, ".17g")
    row[header.index("flag")] = "0"
    cum = np.cumsum([float(r[header.index("inst_regret")]) for r in rows])
    for r, value in zip(rows, cum):
        r[header.index("cum_regret")] = format(value, ".17g")
    _write_trace_rows(path, header, rows)


def _relabelled_objective(runs, out):
    # the B = 0.5 run under the B = 2 run's config.txt: its traces agree with
    # the B = 0.5 objective, not with the one config.txt draws
    shutil.copytree(runs["B_0.5"], out)
    shutil.copyfile(runs["base"] / "config.txt", out / "config.txt")


def _swapped_seeds(runs, out):
    # the traces of seeds 0 and 1 swapped
    shutil.copytree(runs["base"], out)
    first, second = out / "trace_seed0.csv", out / "trace_seed1.csv"
    text = first.read_text()
    first.write_text(second.read_text())
    second.write_text(text)


# a run whose first step is graded under another objective than its own
OBJECTIVE = "trace_seed0.csv: inst_regret at t=1 is not f_star - f(x_t) under config.txt's objective"


# ROADMAP item 4's open checks: report takes sigma, mu, the flag's half at
# the optimum and each choice on trust
def _open(reason):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 4: {reason}")


class TestForgeries:
    """Each known forgery of a README-config run (horizon 256, seeds 0-4), and
    whether report catches it: exit 4 with one error line, naming the file
    and why.  A row marked open is one report still grades; its marker comes
    off with the check that catches it."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("forgeries")
        text = README_EXAMPLE.replace("horizon = 4096", "horizon = 256")
        edits = {"base": ("", ""), "c0_0.2": ("beta.c0 = 0.39\n", "beta.c0 = 0.2\n"),
                 "B_0.5": ("objective.B = 2\n", "objective.B = 0.5\n")}
        for name, (old, new) in edits.items():
            assert old in text
            assert cmd_run(write_config(work, text.replace(old, new), f"{name}.txt"), str(work / name)) == 0
        return {name: work / name for name in edits}

    @pytest.mark.parametrize("name", ["base", "c0_0.2", "B_0.5"])
    def test_untouched_runs_report(self, runs, tmp_path, name):
        out = tmp_path / name
        shutil.copytree(runs[name], out)
        assert cmd_report(str(out)) == 0

    @pytest.mark.parametrize("forge, expected", [
        pytest.param(_relabelled_run, None, marks=_open("no check ties a choice to the configured rule"),
                     id="relabelled_run"),
        pytest.param(_consistent_forgery, None, marks=_open("sigma, mu and the flag at the optimum are taken on trust"),
                     id="consistent_forgery"),
        pytest.param(_swapped_choice, None, marks=_open("no check that a choice maximizes the rule's score"),
                     id="swapped_choice"),
        pytest.param(_relabelled_objective, OBJECTIVE, id="relabelled_objective"),
        pytest.param(_swapped_seeds, OBJECTIVE, id="swapped_seeds"),
    ])
    def test_forgery_exits_4(self, runs, tmp_path, capsys, forge, expected):
        out = tmp_path / "forged"
        forge(runs, out)
        capsys.readouterr()
        assert cmd_report(str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # an open row asks for exit 4 alone: the check that catches it
        # brings the file and the message it names
        assert expected is None or err == f"error: {out}/{expected}\n"


# ROADMAP item 22's config.txt rows: each key that a README-config run's
# config.txt renders, the value an edit sets it to, a change to what the run
# reads beyond report's tolerances, and the error that names the check that
# catches it
OFF_GRID = "trace_seed0.csv: design point [{}] is not on the evaluation grid"
BETA = "trace_seed0.csv: beta at t=1 is not the configured schedule"
NOISE = "trace_seed0.csv: y at t=1 is not f(x_t) plus the seed's noise draw"
CONFIG_EDITS = {
    "kernel.family": ("squared_exponential", OBJECTIVE),
    "kernel.nu": ("2.5", OBJECTIVE),
    "kernel.lengthscale": ("0.6", OBJECTIVE),
    "domain.dim": ("2", OFF_GRID.format("0.0")),
    "domain.lower": ("-1", OFF_GRID.format("0.0")),
    "domain.upper": ("2", OFF_GRID.format("0.1843137254901961")),
    "rho": ("2", BETA),
    "noise.kind": ("uniform", NOISE),
    "noise.sigma": ("0.2", NOISE),
    "horizon": ("32", "trace_seed0.csv: 64 rows for horizon 32"),
    "beta.kind": ("srinivas", BETA),
    "beta.delta": ("0.2", BETA),
    "beta.c0": ("0.5", BETA),
    "beta.c_subg": ("2", BETA),
    "candidates.count": ("64", "trace_seed0.csv: x at t=3, [0.09411764705882353], is not a candidate"),
    "candidates.method": ("low_discrepancy", "trace_seed0.csv: x at t=1, [0.0], is not a candidate"),
    "eval_grid.count": ("1024", OBJECTIVE),
    "objective.kind": ("explicit\nobjective.centers = 0.5\nobjective.coeffs = 1", OBJECTIVE),
    "objective.m": ("21", OBJECTIVE),
    "objective.B": ("3", OBJECTIVE),
    # the seed the edit drops is not graded: the fit lacks a fifth trace
    "seeds": ("0, 1, 2, 3", "need >= 5 traces, got 4"),
}


class TestConfigEdits:
    """A README-config run (horizon 64, seeds 0-4) under an edited
    config.txt: report exits 4 with one error line for each key the file
    renders, set to another value in the writer's text, and for each line
    that is not the writer's."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("config_edits")
        text = README_EXAMPLE.replace("horizon = 4096", "horizon = 64")
        assert cmd_run(write_config(work, text), str(work / "run")) == 0
        return work / "run"

    def report_exits_4(self, run, tmp_path, capsys, text):
        out = tmp_path / "run"
        shutil.copytree(run, out)
        (out / "config.txt").write_text(text)
        capsys.readouterr()
        assert cmd_report(str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        return err.removeprefix("error: ").replace(f"{out}/", "")

    def test_every_rendered_key_has_an_edit(self, run):
        text = (run / "config.txt").read_text()
        assert [line.split(" = ")[0] for line in text.splitlines()] == list(CONFIG_EDITS)

    @pytest.mark.parametrize("key", CONFIG_EDITS)
    def test_edited_key_exits_4(self, run, tmp_path, capsys, key):
        value, message = CONFIG_EDITS[key]
        text = (run / "config.txt").read_text()
        lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in text.splitlines()]
        edited = render_config(parse_config("\n".join(lines)))
        assert edited != text
        assert self.report_exits_4(run, tmp_path, capsys, edited) == f"{message}\n"

    @pytest.mark.parametrize("edit, message", [
        # a key that no run reads
        (lambda text: text + "regret.slack = 0.5\n", "config.txt: unknown key 'regret.slack' (key: regret.slack) (line 22)"),
        # a key this run does not read, which the parser ignores
        (lambda text: text + "beta.constant_value = 2\n",
         "config.txt: line 'beta.constant_value = 2' after the writer's last line (line 22)"),
        (lambda text: text.replace("beta.c_subg = 1\n", "beta.c_subg = 1\nbeta.constant_value = 1\n"),
         "config.txt: line 'beta.constant_value = 1' where the writer writes 'candidates.count = 256' (line 15)"),
        # the writer's lines reordered, reformatted or annotated
        (lambda text: text.replace("rho = 1\nnoise.kind = normal\n", "noise.kind = normal\nrho = 1\n"),
         "config.txt: line 'noise.kind = normal' where the writer writes 'rho = 1' (line 7)"),
        (lambda text: text.replace("rho = 1\n", "rho=1\n"), "config.txt: line 'rho=1' where the writer writes 'rho = 1' (line 7)"),
        (lambda text: text.replace("noise.sigma = 0.10000000000000001\n", "noise.sigma = 0.1\n"),
         "config.txt: line 'noise.sigma = 0.1' where the writer writes 'noise.sigma = 0.10000000000000001' (line 9)"),
        (lambda text: "# the README run\n" + text,
         "config.txt: line '# the README run' where the writer writes 'kernel.family = matern' (line 1)"),
    ], ids=["unknown_key", "dead_key_appended", "dead_key_inserted", "reordered", "reformatted", "short_digits",
            "comment"])
    def test_line_not_the_writers_exits_4(self, run, tmp_path, capsys, edit, message):
        text = (run / "config.txt").read_text()
        assert edit(text) != text
        assert self.report_exits_4(run, tmp_path, capsys, edit(text)) == f"{message}\n"


class TestExplicitObjectiveEdits:
    """The pinned Halton suite, whose config.txt spells out one objective
    for every seed, under an edit to that objective: report grades the
    traces under the edited one and exits 4."""

    @pytest.mark.parametrize("old, new", [
        ("objective.centers = 0.5,0.5;", "objective.centers = 0.5,0.25;"),
        ("objective.coeffs = 1, -0.5", "objective.coeffs = 1, -0.25"),
        ("objective.centers = 0.5,0.5; 0.10000000000000001,0.90000000000000002\nobjective.coeffs = 1, -0.5",
         "objective.centers = 0.5,0.5\nobjective.coeffs = 1"),
    ], ids=["center_moved", "coefficient_changed", "center_dropped"])
    def test_edited_objective_exits_4(self, tmp_path, capsys, old, new):
        out = tmp_path / "run"
        shutil.copytree(PINNED / "nu12_halton2d", out)
        path = out / "config.txt"
        text = path.read_text()
        assert old in text
        path.write_text(render_config(parse_config(text.replace(old, new))))
        assert cmd_report(str(out)) == 4
        assert capsys.readouterr().err == f"error: {out}/{OBJECTIVE}\n"


def _drop_trace(cell):
    (cell / "trace_seed3.csv").unlink()


def _set_config_nu(value):
    def damage(cell):
        path = cell / "config.txt"
        path.write_text(render_config(parse_config(path.read_text()).with_override("kernel.nu", value)))
    return damage


def _config_not_utf8(cell):
    path = cell / "config.txt"
    path.write_bytes(path.read_text().encode("utf-16"))


def _negative_norm_objective(cell):
    # an explicit objective of two nearly equal centers with opposite
    # coefficients of 1e8: its norm's quadratic form cancels to a negative
    # value in floating point, so it cannot be drawn
    path = cell / "config.txt"
    text = path.read_text().replace(
        "objective.kind = random\nobjective.m = 10\nobjective.B = 2\n",
        "objective.kind = explicit\nobjective.centers = 0.5; 0.5000000001\nobjective.coeffs = 1e8, -1e8\n",
    )
    path.write_text(render_config(parse_config(text)))


def _edit_config(old, new):
    def damage(cell):
        path = cell / "config.txt"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    return damage


def _rename_column(cell):
    path = cell / "trace_seed1.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = lines[0].replace(",mu,", ",mean,")
    path.write_text("".join(lines))


def _truncate_trace(cell):
    path = cell / "trace_seed1.csv"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _skip_step(cell):
    path = cell / "trace_seed4.csv"
    lines = path.read_text().splitlines()
    del lines[10]
    path.write_text("\n".join(lines) + "\n")


def _blank_line_then_skip(cell):
    # a blank line at line 4 of the file, and t = 99 at line 11: the blank
    # line is a ragged row, the first fault in file order
    path = cell / "trace_seed2.csv"
    lines = path.read_text().splitlines()
    row = lines[9].split(",")
    row[0] = "99"
    lines[9] = ",".join(row)
    lines.insert(3, "")
    path.write_text("\n".join(lines) + "\n")


def _short_trace(cell):
    path = cell / "trace_seed0.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:40]) + "\n")


def _move_point(cell):
    path = cell / "trace_seed2.csv"
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    row[1] = repr(float(row[1]) + 1e-3)
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _forge_cum_regret(cell):
    # inflate the cumulative column from t=20 on, leaving inst_regret alone
    path = cell / "trace_seed2.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("cum_regret")
    for i in range(20, len(lines)):
        row = lines[i].split(",")
        row[col] = repr(1.5 * float(row[col]))
        lines[i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _forge_beta(cell):
    # a larger exploration weight from t=7 on, every other column left alone
    path = cell / "trace_seed4.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("beta")
    for i in range(7, len(lines)):
        row = lines[i].split(",")
        row[col] = "1000"
        lines[i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _forge_y(cell):
    # every observation 0.5 higher, every other column left alone
    path = cell / "trace_seed3.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("y")
    for i in range(1, len(lines)):
        row = lines[i].split(",")
        row[col] = repr(float(row[col]) + 0.5)
        lines[i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _forge_flag(cell):
    # a flag that is neither 0 nor 1, which reads as true once cast to bool
    path = cell / "trace_seed0.csv"
    lines = path.read_text().splitlines()
    row = lines[9].split(",")
    row[lines[0].split(",").index("flag")] = "2"
    lines[9] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _forge_sigma_mu_flag(cell):
    # every step claims the error bound held, at a posterior forged to match
    for seed in range(5):
        path = cell / f"trace_seed{seed}.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            for name, value in (("sigma", "0.5"), ("mu", "-7"), ("flag", "1")):
                row[header.index(name)] = value
        path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _cancelling_ragged_rows(cell):
    # one field short at line 6 and one too many at line 9: the file holds
    # as many fields as a whole trace
    path = cell / "trace_seed1.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]
    lines[8] += ",0"
    path.write_text("\n".join(lines) + "\n")


def _flag_before_skipped_step(cell):
    # a flag of 2 at line 6, then step 12 left out: the first fault in file
    # order is the flag
    path = cell / "trace_seed0.csv"
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    row[lines[0].split(",").index("flag")] = "2"
    lines[5] = ",".join(row)
    del lines[12]
    path.write_text("\n".join(lines) + "\n")


def _set_field(seed, line, name, edit):
    # the field under column name at line (1-based, the header is line 1) of
    # seed's trace, rewritten by edit
    def damage(cell):
        path = cell / f"trace_seed{seed}.csv"
        lines = path.read_text().splitlines()
        row = lines[line - 1].split(",")
        j = lines[0].split(",").index(name)
        row[j] = edit(row[j])
        lines[line - 1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
    return damage


def _header_only(cell):
    path = cell / "trace_seed3.csv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])


def _move_to_grid_row(cell):
    # step 5 moved onto a grid point that is not a candidate, with y and the
    # regret columns made to match it
    config = parse_config((cell / "config.txt").read_text())
    grid = config.evaluation_points()
    row = config.candidate_points().shape[0]
    f_grid = config.objective_for_seed(1).on_points(grid)
    path = cell / "trace_seed1.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    rows[4][header.index("x_1")] = repr(float(grid[row, 0]))
    rows[4][header.index("y")] = repr(float(f_grid[row] + _seed_noise(config, 1)[4]))
    rows[4][header.index("inst_regret")] = repr(float(np.max(f_grid) - f_grid[row]))
    inst = np.array([float(r[header.index("inst_regret")]) for r in rows])
    for r, c in zip(rows, np.cumsum(inst)):
        r[header.index("cum_regret")] = repr(float(c))
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


class TestDamagedRunReport:
    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        # 16 candidates and a 31-point evaluation lattice, so a grid point
        # need not be a candidate
        work = tmp_path_factory.mktemp("damaged")
        text = (
            MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
            .replace("horizon = 8", "horizon = 64")
            .replace("eval_grid.count = 16", "eval_grid.count = 31")
        )
        out = work / "run"
        assert cmd_run(write_config(work, text), str(out)) == 0
        return out

    @pytest.mark.parametrize("damage, message", [
        (_drop_trace, "trace_seed3.csv"),
        (_set_config_nu(1.7), "trace_seed0.csv: inst_regret at t=1 is not f_star - f(x_t) under config.txt's objective"),
        # configs whose objectives cannot be drawn
        (_set_config_nu(400.3), "run/config.txt: K_nu overflows double precision at nu=400.3"),
        (_negative_norm_objective, "run/config.txt: negative squared norm"),
        (_config_not_utf8, "run/config.txt: 'utf-8' codec can't decode byte 0xff in position 0"),
        # configs that do not parse, or are not the writer's text
        (_edit_config("kernel.family", "# a note\nkernel.family"),
         "run/config.txt: line '# a note' where the writer writes 'kernel.family = matern' (line 1)"),
        (_edit_config("seeds = 0, 1, 2, 3, 4\n", "seeds = 0, 1, 2, 3, 4\n\n\n"),
         "run/config.txt: line '' after the writer's last line (line 22)"),
        (_edit_config("kernel.nu = 1.5\n", "kernel.nu = 1.5\nkernel.nu = 1.5\n"),
         "run/config.txt: duplicate key 'kernel.nu' (key: kernel.nu) (line 3)"),
        (_edit_config("rho = 1\n", "rho = 1\ngarbage line here\n"),
         "run/config.txt: malformed line 'garbage line here' (line 8)"),
        (_edit_config("kernel.nu = 1.5\n", "kernel.nu = 1.5x\n"),
         "run/config.txt: expected a number, got '1.5x' (key: kernel.nu) (line 2)"),
        (_edit_config("seeds = 0, 1, 2", "seeds = 0, 1, two"),
         "run/config.txt: expected an integer, got 'two' (key: seeds) (line 21)"),
        (_edit_config("seeds = 0, 1, 2, 3, 4", "seeds = 0, 1, 2, 3, 3"),
         "run/config.txt: seeds must be distinct replicates (key: seeds) (line 21)"),
        (_edit_config("objective.B = 2\n", "objective.B = -2\n"),
         "run/config.txt: must be positive, got -2 (key: objective.B) (line 20)"),
        # a dropped line reads as its default, which the writer writes out
        (_edit_config("objective.B = 2\n", ""),
         "run/config.txt: line 'seeds = 0, 1, 2, 3, 4' where the writer writes 'objective.B = 1' (line 20)"),
        (_edit_config("kernel.family = matern\n", ""),
         "run/config.txt: missing key 'kernel.family' (key: kernel.family)"),
        # a seed the run did not run has no trace to grade
        (_edit_config("seeds = 0, 1, 2, 3, 4", "seeds = 0, 1, 2, 3, 4, 5"),
         "run/trace_seed5.csv"),
        (_rename_column, "trace_seed1.csv: trace header 't,x_1,y,beta,sigma,mean,inst_regret,cum_regret,flag' is not "
                         "t, x_1..x_d, y, beta, sigma, mu, inst_regret, cum_regret, flag"),
        (_truncate_trace, "trace_seed1.csv"),
        (_skip_step, "non-consecutive t"),
        (_blank_line_then_skip, "trace_seed2.csv: ragged row at line 4: 1 fields, header has 9"),
        (_short_trace, "rows for horizon 64"),
        (_move_point, "not on the evaluation grid"),
        (_move_to_grid_row, "trace_seed1.csv: x at t=5, [0.03333333333333333], is not a candidate"),
        (_forge_flag, "trace_seed0.csv: flag at line 10 is '2', not 0 or 1"),
        (_forge_cum_regret, "trace_seed2.csv: cum_regret at t=20 is not the running sum"),
        (_forge_beta, "trace_seed4.csv: beta at t=7 is not the configured schedule"),
        (_forge_y, "trace_seed3.csv: y at t=1 is not f(x_t) plus the seed's noise draw"),
        (_forge_sigma_mu_flag, "trace_seed0.csv: flag at t=1 is 1, yet |f(x_t) - mu| exceeds sqrt(beta) * sigma"),
        (_cancelling_ragged_rows, "trace_seed1.csv: ragged row at line 6: 8 fields, header has 9"),
        (_flag_before_skipped_step, "trace_seed0.csv: flag at line 6 is '2', not 0 or 1"),
        # fields that are not numbers, named by line and column; float()
        # reads 1_000, which the writer never writes
        (_set_field(2, 30, "y", lambda v: "abc"), "trace_seed2.csv: y at line 30 is 'abc', not a number"),
        # with comments=None, a '#' is a fault rather than the start of a comment
        (_set_field(4, 17, "mu", lambda v: "0.5#2"), "trace_seed4.csv: mu at line 17 is '0.5#2', not a number"),
        (_set_field(0, 8, "beta", lambda v: "1_000"), "trace_seed0.csv: beta at line 8 is '1_000', not a number"),
        (_header_only, "trace_seed3.csv: 0 rows for horizon 64"),
    ])
    def test_damage_exits_4(self, suite, tmp_path, capsys, damage, message):
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        damage(cell)
        assert cmd_report(str(cell)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("failure", [
        OverflowError("K_nu overflows double precision at nu=150.3, z=0.015"),
        ArithmeticError("K_nu quadrature failed to converge at mu=0.3, z=1e-303"),
    ], ids=["overflow", "quadrature"])
    def test_kernel_build_failure_names_config_txt(self, suite, tmp_path, capsys, monkeypatch, failure):
        # a kernel that can fail is built whole where report constructs its
        # store of kernel rows, so its failure names config.txt and exits 4
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)

        def failing(spec, X, Y):
            raise failure

        monkeypatch.setattr("gpucb.kernels.KernelRows", failing)
        assert cmd_report(str(cell)) == 4
        assert capsys.readouterr().err == f"error: {cell / 'config.txt'}: {failure}\n"
        assert not (cell / "report.txt").exists() and not (cell / "report.csv").exists()

    def test_damaged_rerun_leaves_no_stale_verdicts(self, suite, tmp_path, capsys):
        # a report that exits 4 over an earlier one leaves no verdicts to read
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        assert cmd_report(str(cell)) == 0
        path = cell / "trace_seed2.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:10]))
        capsys.readouterr()
        assert cmd_report(str(cell)) == 4
        assert "9 rows for horizon 64" in capsys.readouterr().err
        assert not (cell / "report.txt").exists() and not (cell / "report.csv").exists()

    def test_undamaged_suite_reports(self, suite, tmp_path):
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        assert cmd_report(str(cell)) == 0

    @pytest.mark.parametrize("blocked", ["report.txt", "report.csv"])
    def test_unwritable_report_exits_2_leaving_no_verdicts(self, suite, tmp_path, capsys, blocked):
        # over an earlier report, a directory in the way of one output stops
        # the writes, and no report.txt is left to read as the verdicts
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        assert cmd_report(str(cell)) == 0
        (cell / blocked).unlink()
        (cell / blocked).mkdir()
        capsys.readouterr()
        assert cmd_report(str(cell)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {cell}: ") and captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not (cell / "report.txt").is_file()

    def test_verdicts_that_cannot_be_written_leave_no_report_csv(self, suite, tmp_path, capsys, monkeypatch):
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        write_text = Path.write_text

        def full_disk(path, *args, **kwargs):
            if path.name == "report.txt":
                raise OSError("no space left on device")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert cmd_report(str(cell)) == 2
        assert capsys.readouterr().err == f"error: cannot write {cell}: no space left on device\n"
        assert not (cell / "report.csv").exists() and not (cell / "report.txt").exists()

    def test_report_draws_each_objective_once_and_grades_its_values(self, suite, tmp_path, monkeypatch):
        # each seed's objective is drawn once from config.txt, as the run drew
        # it, and the grid values the report grades are those of the draws
        draw, values = ExperimentConfig.objective_for_seed, gpucb.rkhs._objective_values
        drawn, evaluated = [], []

        def redraw(config, seed):
            drawn.append((seed, draw(config, seed)))
            return drawn[-1][1]

        def evaluate(f, grid):
            evaluated.append(f)
            return values(f, grid)

        monkeypatch.setattr(ExperimentConfig, "objective_for_seed", redraw)
        monkeypatch.setattr(gpucb.rkhs, "_objective_values", evaluate)
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        assert cmd_report(str(cell)) == 0
        assert [seed for seed, _ in drawn] == [0, 1, 2, 3, 4]
        assert [id(f) for f in evaluated] == [id(f) for _, f in drawn]


def _edit_short_row(cell):
    # an observation of the 16-step cell moved by one ulp, the least change
    # to the value it parses to (a flipped 17th digit may parse to the same)
    path = cell / "horizon_16" / "trace_seed3.csv"
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    col = lines[0].split(",").index("y")
    row[col] = repr(float(np.nextafter(float(row[col]), np.inf)))
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _edit_short_config(cell):
    path = cell / "horizon_16" / "config.txt"
    path.write_text(path.read_text().replace("noise.sigma = 0.10000000000000001", "noise.sigma = 0.2"))


def _unknown_key_in_short_config(cell):
    path = cell / "horizon_16" / "config.txt"
    path.write_text(path.read_text() + "regret.slack = 0.5\n")


def _append_short_dead_key(cell):
    # a key this run does not read, which the parser ignores
    path = cell / "horizon_16" / "config.txt"
    path.write_text(path.read_text() + "beta.constant_value = 2\n")


def _cut_short_config_newline(cell):
    path = cell / "horizon_16" / "config.txt"
    path.write_text(path.read_text().rstrip("\n"))


def _in_cells(damage, *names):
    # one damage to the config.txt of each named cell of the sweep
    def damage_cells(cell):
        for name in names:
            damage(cell / name)
    return damage_cells


class TestSweepReport:
    """``report`` on a sweep grades one run cut at several horizons."""

    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("sweep")
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
        out = work / "sweep"
        assert cmd_sweep(write_config(work, text), "horizon", ["16", "64"], str(out)) == 0
        return out

    def test_cut_sweep_reports(self, sweep, tmp_path):
        out = tmp_path / "sweep"
        shutil.copytree(sweep, out)
        assert cmd_report(str(out)) == 0

    @pytest.mark.parametrize("damage, message", [
        (_edit_short_row, "horizon_16/trace_seed3.csv: not the first 16 rows of horizon_64's trace"),
        (_edit_short_config, "horizon_16/config.txt: differs from horizon_64, not only in horizon: line 'noise.sigma = 0.2' "
                             "where the writer writes 'noise.sigma = 0.10000000000000001' (line 9)"),
        (_cut_short_config_newline, "horizon_16/config.txt: differs from horizon_64, not only in horizon: "
                                   "the last line has no newline (line 21)"),
        (_append_short_dead_key, "horizon_16/config.txt: differs from horizon_64, not only in horizon: "
                                "line 'beta.constant_value = 2' after the writer's last line (line 22)"),
        (_unknown_key_in_short_config,
         "horizon_16/config.txt: unknown key 'regret.slack' (key: regret.slack) (line 22)"),
        # a short cell under another objective, or another kernel
        (_in_cells(_edit_config("objective.B = 2\n", "objective.B = 3\n"), "horizon_16"),
         "horizon_16/config.txt: differs from horizon_64, not only in horizon: "
         "line 'objective.B = 3' where the writer writes 'objective.B = 2' (line 20)"),
        (_in_cells(_set_config_nu(400.3), "horizon_16"),
         "horizon_16/config.txt: differs from horizon_64, not only in horizon: "
         "line 'kernel.nu = 400.30000000000001' where the writer writes 'kernel.nu = 1.5' (line 2)"),
    ])
    def test_shorter_cell_not_a_cut_exits_4(self, sweep, tmp_path, capsys, damage, message):
        out = tmp_path / "sweep"
        shutil.copytree(sweep, out)
        damage(out)
        assert cmd_report(str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("damage, message", [
        # configs whose objectives cannot be drawn, in every cell
        (_in_cells(_set_config_nu(400.3), "horizon_16", "horizon_64"),
         "horizon_64/config.txt: K_nu overflows double precision at nu=400.3"),
        (_in_cells(_negative_norm_objective, "horizon_16", "horizon_64"),
         "horizon_64/config.txt: negative squared norm"),
        # configs that do not parse, in the longest cell or a shorter one
        (_in_cells(_config_not_utf8, "horizon_64"),
         "horizon_64/config.txt: 'utf-8' codec can't decode byte 0xff in position 0"),
        (_in_cells(_config_not_utf8, "horizon_16"),
         "horizon_16/config.txt: 'utf-8' codec can't decode byte 0xff in position 0"),
        (_in_cells(_edit_config("seeds =", "regret.slack = 0.5\nseeds ="), "horizon_64"),
         "horizon_64/config.txt: unknown key 'regret.slack' (key: regret.slack) (line 21)"),
        (_in_cells(_edit_config("kernel.nu = 1.5\n", "kernel.nu = 1.5x\n"), "horizon_16"),
         "horizon_16/config.txt: expected a number, got '1.5x' (key: kernel.nu) (line 2)"),
        # the longest cell's config.txt is not the writer's text
        (_in_cells(_edit_config("kernel.family", "# a note\nkernel.family"), "horizon_64"),
         "horizon_64/config.txt: line '# a note' where the writer writes 'kernel.family = matern' (line 1)"),
        (_in_cells(_edit_config("seeds = 0, 1, 2, 3, 4\n", "seeds = 0, 1, 2, 3, 4\nbeta.constant_value = 2\n"),
                   "horizon_64"),
         "horizon_64/config.txt: line 'beta.constant_value = 2' after the writer's last line (line 22)"),
        # every cell under another objective: the longest cell's traces
        # are graded under the one its config.txt draws
        (_in_cells(_edit_config("objective.B = 2\n", "objective.B = 3\n"), "horizon_16", "horizon_64"),
         "horizon_64/trace_seed0.csv: inst_regret at t=1 is not f_star - f(x_t) under config.txt's objective"),
    ])
    def test_config_fault_names_its_cell(self, sweep, tmp_path, capsys, damage, message):
        out = tmp_path / "sweep"
        shutil.copytree(sweep, out)
        damage(out)
        assert cmd_report(str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}/") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("lost, message", [
        ("horizon_64/config.txt", "summary.csv: cell horizon_64 is listed ok but did not finish"),
        ("summary.csv", "summary.csv: missing, so the sweep did not finish"),
    ], ids=["longest_cell_lost", "summary_lost"])
    def test_unfinished_sweep_exits_4(self, sweep, tmp_path, capsys, lost, message):
        # without the longest cell, the 16-step cell alone would be graded
        out = tmp_path / "sweep"
        shutil.copytree(sweep, out)
        (out / lost).unlink()
        assert cmd_report(str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_merged_row_of_another_status_exits_4(self, sweep, tmp_path, capsys):
        # rows neither ok nor failed, read as not ok, would leave the 16-step
        # cell to be graded alone
        out = tmp_path / "sweep"
        shutil.copytree(sweep, out)
        path = out / "summary.csv"
        lines = [
            ln.replace(",ok,", ",okay,") if ln.startswith("horizon,64,") else ln
            for ln in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        assert cmd_report(str(out)) == 4
        first = next(ln for ln in lines if ",okay," in ln)
        assert capsys.readouterr().err == f"error: {path}: malformed row {first!r}\n"

    def test_merged_row_naming_a_path_out_of_the_sweep_exits_4(self, sweep, tmp_path, capsys):
        # through a directory named horizon_.., the row's cell would be a
        # finished run outside the sweep, graded with its verdicts written here
        out = tmp_path / "x" / "sweep"
        shutil.copytree(sweep / "horizon_64", tmp_path / "other")
        (out / "horizon_..").mkdir(parents=True)
        path = out / "summary.csv"
        row = "horizon,../../../../other,0,ok,1"
        path.write_text(f"axis,value,seed,status,cum_regret\n{row}\n")
        assert (out / "horizon_../../../../other" / "config.txt").is_file()
        assert cmd_report(str(out)) == 4
        assert capsys.readouterr().err == f"error: {path}: malformed row {row!r}\n"
        assert not (out / "report.txt").exists()

    def test_sweep_stopped_in_its_last_cell_is_not_graded(self, sweep, tmp_path, capsys, monkeypatch):
        # a rerun over a finished sweep that stops writing its last cell
        # leaves no merged summary, so report does not grade what is left
        out = tmp_path / "sweep"
        shutil.copytree(sweep, out)

        def full_disk(trace):
            if trace.horizon == 64:
                raise OSError("no space left on device")
            return trace_to_csv(trace)

        monkeypatch.setattr("gpucb.ucb.trace_to_csv", full_disk)
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
        assert cmd_sweep(write_config(tmp_path, text), "horizon", ["16", "64"], str(out)) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: no space left on device\n"
        assert (out / "horizon_16" / "config.txt").exists() and not (out / "summary.csv").exists()
        assert cmd_report(str(out)) == 4
        assert "summary.csv: missing, so the sweep did not finish" in capsys.readouterr().err

    @staticmethod
    def produce(tmp_path, out, command, horizons, rho):
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("\nrho = 1\n", f"\nrho = {rho}\n")
        if command == "run":
            return cmd_run(write_config(tmp_path, text.replace("horizon = 8", f"horizon = {horizons}")), str(out))
        return cmd_sweep(write_config(tmp_path, text), "horizon", horizons.split(","), str(out))

    @pytest.mark.parametrize("commands", [
        # a longer cell of a sweep at another rho is left over
        [("sweep", "16,128", "1"), ("sweep", "16,64", "0.5")],
        # a run's files are left over at the top level
        [("run", "128", "1"), ("sweep", "16,64", "1")],
        # a sweep's cells are left over
        [("sweep", "16,32", "1"), ("run", "64", "1")],
    ], ids=["resweep_at_another_rho", "sweep_over_a_run", "run_over_a_sweep"])
    def test_report_grades_the_last_command_alone(self, tmp_path, capsys, commands):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for command in commands:
            assert self.produce(tmp_path, out, *command) == 0
        assert self.produce(tmp_path, fresh, *commands[-1]) == 0
        assert cmd_report(str(fresh)) == 0
        capsys.readouterr()
        assert cmd_report(str(out)) == 0
        assert capsys.readouterr().err == ""
        assert (out / "report.txt").read_text() == (fresh / "report.txt").read_text()

    def test_report_finds_suites_through_their_markers(self, sweep, tmp_path, monkeypatch):
        # a finished run and a finished sweep, graded with no directory listed
        run, out = tmp_path / "run", tmp_path / "sweep"
        assert self.produce(tmp_path, run, "run", "64", "1") == 0
        shutil.copytree(sweep, out)

        def unlisted(self, *args, **kwargs):
            raise AssertionError("report lists a directory")

        monkeypatch.setattr(Path, "iterdir", unlisted)
        monkeypatch.setattr(Path, "glob", unlisted)
        assert cmd_report(str(run)) == 0
        assert cmd_report(str(out)) == 0

    def test_non_horizon_sweep_exits_4(self, tmp_path, capsys):
        # two cells of one horizon that differ in beta.c0 are not one run
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("horizon = 8", "horizon = 64")
        out = tmp_path / "cal"
        assert cmd_sweep(write_config(tmp_path, text), "beta.c0", ["0.2", "1"], str(out)) == 0
        capsys.readouterr()
        assert cmd_report(str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(
            "beta_c0_1/config.txt: differs from beta_c0_0.2, not only in horizon: "
            "line 'beta.c0 = 1' where the writer writes 'beta.c0 = 0.20000000000000001' (line 13)\n"
        )


README_EXAMPLE = """\
kernel.family = matern
kernel.nu = 1.5
kernel.lengthscale = 0.5
domain.dim = 1
domain.lower = 0
domain.upper = 1
rho = 1
noise.kind = normal
noise.sigma = 0.1
horizon = 4096
beta.kind = log_product
beta.delta = 0.1
beta.c0 = 0.39
beta.c_subg = 1
candidates.count = 256
candidates.method = lattice
eval_grid.count = 256
objective.kind = random
objective.m = 20
objective.B = 2
seeds = 0, 1, 2, 3, 4
"""


class TestConfigRoundTrip:
    def test_render_parse_identity(self, tmp_path):
        config = parse_config(MINIMAL)
        assert parse_config(render_config(config)) == config

    def test_readme_example_canonical_text(self):
        # the bytes the digest hashes, and so every run directory's config.txt
        config = parse_config(README_EXAMPLE)
        assert render_config(config) == (
            "kernel.family = matern\n"
            "kernel.nu = 1.5\n"
            "kernel.lengthscale = 0.5\n"
            "domain.dim = 1\n"
            "domain.lower = 0\n"
            "domain.upper = 1\n"
            "rho = 1\n"
            "noise.kind = normal\n"
            "noise.sigma = 0.10000000000000001\n"
            "horizon = 4096\n"
            "beta.kind = log_product\n"
            "beta.delta = 0.10000000000000001\n"
            "beta.c0 = 0.39000000000000001\n"
            "beta.c_subg = 1\n"
            "candidates.count = 256\n"
            "candidates.method = lattice\n"
            "eval_grid.count = 256\n"
            "objective.kind = random\n"
            "objective.m = 20\n"
            "objective.B = 2\n"
            "seeds = 0, 1, 2, 3, 4\n"
        )
        assert config.digest() == "2766402df7a1473c"

    def test_inapplicable_keys_are_ignored(self):
        text = MINIMAL.replace("kernel.family = matern", "kernel.family = squared_exponential")
        config = parse_config(text)
        assert config.kernel.nu is None
        assert "kernel.nu" not in render_config(config)

    def test_override_matches_file_text(self):
        config = parse_config(MINIMAL).with_override("beta.c0", " 0.39")
        assert config == parse_config(MINIMAL.replace("beta.delta = 0.1", "beta.delta = 0.1\nbeta.c0 = 0.39"))

    def test_explicit_objective_round_trip(self):
        text = MINIMAL.replace(
            "objective.kind = random\nobjective.m = 10\nobjective.B = 2",
            "objective.kind = explicit\n"
            "objective.centers = 0.25; 0.75\n"
            "objective.coeffs = 1.5, -0.5",
        )
        config = parse_config(text)
        assert config.objective.centers == ((0.25,), (0.75,))
        assert parse_config(render_config(config)) == config

    # per part, two configs built with different values of a field whose
    # text is the same: one its kind does not read, or a list for a tuple
    SE = KernelFamily.SQUARED_EXPONENTIAL
    EQUAL_TEXT = {
        "kernel": lambda base: (replace(base, kernel=KernelSpec(TestConfigRoundTrip.SE, nu=1.5, lengthscale=0.5)),
                                replace(base, kernel=KernelSpec(TestConfigRoundTrip.SE, lengthscale=0.5))),
        "domain": lambda base: (replace(base, domain=Box([0.0], [1.0])), base),
        "beta": lambda base: (make_config(constant_value=2.0), base),
        "objective": lambda base: tuple(
            make_config(objective_kind="explicit", centers=((0.5,),), coeffs=(1.0,), m=m) for m in (5, 1)
        ),
        "objective_lists": lambda base: (
            make_config(objective_kind="explicit", centers=[[0.5]], coeffs=[1.0]),
            make_config(objective_kind="explicit", centers=((0.5,),), coeffs=(1.0,)),
        ),
    }

    @pytest.mark.parametrize("part", sorted(EQUAL_TEXT))
    def test_equal_text_is_an_equal_config(self, part):
        # runs and sweep cells are grouped by config equality, so configs
        # with one text must be one config
        a, b = self.EQUAL_TEXT[part](make_config())
        assert render_config(a) == render_config(b) and a.digest() == b.digest()
        assert a == b and hash(a) == hash(b)


class TestMain:
    def test_validate_subcommand(self, tmp_path):
        assert main(["validate", "--config", write_config(tmp_path)]) == 0

    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        assert (out / "trace_seed0.csv").exists()

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--config", write_config(tmp_path),
            "--out", str(out), "--axis", "horizon", "--values", "8,16",
        ])
        assert code == 0
        assert (out / "summary.csv").exists()
