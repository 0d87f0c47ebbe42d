"""Command-line harness: exit codes, artifacts, determinism."""

import shutil

import numpy as np
import pytest

import gpucb.config
from gpucb import (
    Box,
    fit,
    kernel_matrix,
    logdet_information,
    parse_config,
    parse_objective_record,
    render_config,
    sample_random_rkhs,
    trace_from_csv,
    trace_to_csv,
)
from gpucb.cli import _flagged_from, cmd_report, cmd_run, cmd_sweep, cmd_validate, main
from gpucb.config import ExperimentConfig, halton_points
from gpucb.ucb import _seed_noise

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


class TestRun:
    def test_minimal_run_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path), str(out)) == 0
        trace = (out / "trace_seed0.csv").read_text()
        assert len(trace.splitlines()) == 9  # header + 8 steps
        assert (out / "config.txt").exists()
        assert (out / "objective.txt").exists()
        assert (out / "summary.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cmd_run(config, str(out1)) == 0
        assert cmd_run(config, str(out2)) == 0
        for name in ("config.txt", "objective.txt", "trace_seed0.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_multi_seed_and_jobs(self, tmp_path):
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2")
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        config = write_config(tmp_path, text)
        assert cmd_run(config, str(out_serial), jobs=1) == 0
        assert cmd_run(config, str(out_parallel), jobs=3) == 0
        # the objectives come back from the workers with the traces
        names = sorted(p.name for p in out_serial.iterdir())
        assert names == sorted(p.name for p in out_parallel.iterdir())
        assert names == ["config.txt", "objective.txt", "summary.csv"] + [
            f"trace_seed{k}.csv" for k in range(3)
        ]
        for name in names:
            assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()

    def test_each_objective_drawn_once(self, tmp_path, monkeypatch):
        draws = []

        def counted(spec, m, B, domain, seed):
            draws.append(seed)
            return sample_random_rkhs(spec, m, B, domain, seed)

        monkeypatch.setattr(gpucb.config, "sample_random_rkhs", counted)
        config = write_config(tmp_path, MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4"))
        assert cmd_run(config, str(tmp_path / "run")) == 0
        assert draws == [0, 1, 2, 3, 4]
        draws.clear()
        assert cmd_sweep(config, "horizon", ["8", "16", "32"], str(tmp_path / "sweep")) == 0
        assert draws == [0, 1, 2, 3, 4] * 3

    def test_summary_info_gain_matches_refit(self, tmp_path):
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1").replace("horizon = 8", "horizon = 48")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        config = parse_config(text)
        lines = (out / "summary.csv").read_text().splitlines()
        column = lines[0].split(",").index("info_gain")
        for line, seed in zip(lines[1:], (0, 1)):
            trace = trace_from_csv((out / f"trace_seed{seed}.csv").read_text(), config.kernel, 0.0)
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

        monkeypatch.setattr("gpucb.cli.trace_to_csv", stop_at_third)
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


class TestSharedKernelMatrix:
    def test_sweep_builds_the_candidates_kernel_matrix_once(self, tmp_path, monkeypatch):
        # the optimum is one of the 16 candidates, so both seeds of all three
        # cells run over the candidates alone and share one read-only matrix
        import gpucb.posterior

        built = []

        def counted(spec, X):
            built.append(np.array(X))
            return kernel_matrix(spec, X)

        monkeypatch.setattr(gpucb.posterior, "_KERNELS", {})
        monkeypatch.setattr(gpucb.posterior, "kernel_matrix", counted)
        config = write_config(tmp_path, MINIMAL.replace("seeds = 0", "seeds = 0, 1"))
        assert cmd_sweep(config, "horizon", ["8", "16", "32"], str(tmp_path / "sweep")) == 0
        cand = parse_config((tmp_path / "sweep" / "horizon_32" / "config.txt").read_text()).candidate_points()
        assert len(built) == 1 and np.array_equal(built[0], cand)
        (K,) = gpucb.posterior._KERNELS.values()
        with pytest.raises(ValueError, match="read-only"):
            K[0, 0] = 0.0


class TestSharedReportBlock:
    """``report`` builds the candidates' kernel rows against the evaluation
    grid once, and parses and evaluates each distinct objective once."""

    @staticmethod
    def report_counting(tmp_path, monkeypatch, text):
        import gpucb.analysis
        import gpucb.posterior
        import gpucb.rkhs
        from gpucb import kernel_cross
        from gpucb.rkhs import RkhsFunction

        out = tmp_path / "run"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        crosses, matrices, evaluated, norms = [], [], [], []

        def counted_cross(spec, X, Y):
            crosses.append((np.array(X), np.array(Y)))
            return kernel_cross(spec, X, Y)

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
        monkeypatch.setattr(gpucb.posterior, "_KERNELS", {})
        monkeypatch.setattr(gpucb.rkhs, "_SHARED", {})
        monkeypatch.setattr(gpucb.posterior, "kernel_cross", counted_cross)
        # analysis evaluates no kernel; were it to import kernel_cross again,
        # its calls would be counted too
        monkeypatch.setattr(gpucb.analysis, "kernel_cross", counted_cross, raising=False)
        monkeypatch.setattr(gpucb.posterior, "kernel_matrix", counted_matrix)
        monkeypatch.setattr(gpucb.rkhs, "kernel_matrix", counted_norm)
        monkeypatch.setattr(RkhsFunction, "on_points", counted_on_points)
        assert cmd_report(str(out)) == 0
        config = parse_config((out / "config.txt").read_text())
        return config, crosses, matrices, evaluated, norms, (out / "report.txt").read_text()

    def test_report_builds_the_candidates_block_once(self, tmp_path, monkeypatch):
        # 64 candidates on a grid of more points, 5 audited seeds and the
        # information gain: one m x n block, built by one call that shares
        # its square part, with no per-audit block and no candidates' matrix
        # of its own
        text = (
            MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
            .replace("horizon = 8", "horizon = 64")
            .replace("candidates.count = 16", "candidates.count = 64")
            .replace("eval_grid.count = 16", "eval_grid.count = 100")
        )
        config, crosses, matrices, evaluated, norms, report = self.report_counting(tmp_path, monkeypatch, text)
        cand, grid = config.candidate_points(), config.evaluation_points()
        assert cand.shape[0] < grid.shape[0]
        assert "PASS  error-ratio growth" in report and "SKIP  information-gain" not in report
        assert len(crosses) == 1
        assert np.array_equal(crosses[0][0], cand) and np.array_equal(crosses[0][1], grid)
        assert matrices == []
        assert len(evaluated) == 5 and len({id(f) for f in evaluated}) == 5
        assert len(norms) == 5

    def test_seeds_sharing_an_objective_evaluate_it_once(self, tmp_path, monkeypatch):
        text = (
            MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
            .replace("horizon = 8", "horizon = 64")
            .replace("objective.kind = random", "objective.kind = explicit")
            + "objective.centers = 0.2; 0.7\nobjective.coeffs = 1, -0.5\n"
        )
        _, _, _, evaluated, norms, _ = self.report_counting(tmp_path, monkeypatch, text)
        assert len(evaluated) == 1
        # one parse of the shared record, so one norm over its two centers
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

    def test_bessel_k_calls_per_command(self, tmp_path, monkeypatch):
        import gpucb.kernels
        import gpucb.posterior
        import gpucb.rkhs

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
            monkeypatch.setattr(gpucb.posterior, "_KERNELS", {})
            monkeypatch.setattr(gpucb.rkhs, "_SHARED", {})
            calls.clear()
            assert command() == 0
            counts.append(len(calls))
        config = parse_config((out / "config.txt").read_text())
        f = config.objective_for_seed(0)
        assert int(np.argmax(f.on_points(config.evaluation_points()))) == 0
        # the run: the objective's norm, its values over the grid and the
        # candidates' kernel matrix, once for all five seeds (11 calls when
        # each seed built its own objective and values); the report: the
        # record's norm, its grid values and the candidates-by-grid block
        assert counts == [3, 3]

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

    def test_c0_sweep(self, tmp_path):
        out = tmp_path / "cal"
        assert cmd_sweep(write_config(tmp_path), "beta.c0", ["0.5", "1", "2"], str(out)) == 0
        assert (out / "beta_c0_2" / "summary.csv").exists()

    def test_unknown_axis(self, tmp_path):
        assert cmd_sweep(write_config(tmp_path), "nonsense.key", ["1"], str(tmp_path / "s")) == 2

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

    def test_numeric_failure_while_grading_exits_3(self, tmp_path, capsys):
        # the README config at horizon 64 under a constant schedule, whose
        # beta column does not read rho, so the edit to rho = 1e-12 passes the
        # trace checks; an audit variance then cancels below -1e-12
        text = README_EXAMPLE.replace("horizon = 4096", "horizon = 64")
        text = text.replace("beta.kind = log_product", "beta.kind = constant")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        config = (out / "config.txt").read_text()
        assert "\nrho = 1\n" in config
        (out / "config.txt").write_text(config.replace("\nrho = 1\n", "\nrho = 1e-12\n"))
        capsys.readouterr()
        # an earlier checkpoint's sd cancels to exactly 0, which grades
        # without a numpy warning (filterwarnings = error would raise it)
        assert cmd_report(str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numeric failure: negative posterior variance")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "report.txt").exists() and not (out / "report.csv").exists()

    def test_zero_sd_fails_growth_naming_the_traces(self, tmp_path):
        # a genuine run at rho = 1e-12 under a constant schedule: at t = 128
        # the audit variance of seeds 0 and 3 cancels to exactly 0 where the
        # error is not 0, so their ratio is infinite
        text = README_EXAMPLE.replace("horizon = 4096", "horizon = 128").replace("\nrho = 1\n", "\nrho = 1e-12\n")
        text = text.replace("beta.kind = log_product", "beta.kind = constant")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        assert cmd_report(str(out)) == 0
        (row,) = [line for line in (out / "report.txt").read_text().splitlines() if "error-ratio growth" in line]
        assert row.startswith("FAIL  error-ratio growth: ")
        zero = [part for part in row.split(": ", 1)[1].split("; ") if "sd 0" in part]
        assert zero == ["inf<=6.000 (seed 0: sd 0 at t=128)", "inf<=6.000 (seed 3: sd 0 at t=128)"]

    def test_skip_row_names_flag_rate_and_flagged_tail(self, tmp_path):
        # a small exploration constant leaves no trace fully flagged
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("horizon = 8", "horizon = 64")
        out = tmp_path / "out"
        assert cmd_run(write_config(tmp_path, text + "beta.c0 = 0.2\n"), str(out)) == 0
        assert cmd_report(str(out)) == 0
        flags = [
            trace_from_csv((out / f"trace_seed{seed}.csv").read_text(), None, 0.0).flag for seed in range(5)
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
        assert [_flagged_from(np.array(f)) for f in ([True, False], [False, True, True], [True])] == [
            "never", "2", "1",
        ]

    def test_injected_superlinear_trace_fails(self, tmp_path):
        # forge a suite that agrees with its objectives but plays the worst
        # candidate from step 33 on: its cumulative regret grows linearly,
        # so the exponent row must FAIL against the reference band
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("horizon = 8", "horizon = 512")
        out = tmp_path / "forged"
        assert cmd_run(write_config(tmp_path, text), str(out)) == 0
        config = parse_config(text)
        cand, grid = config.candidate_points(), config.evaluation_points()
        for block in (out / "objective.txt").read_text().split("\n\n"):
            f, seed = parse_objective_record(block)
            f_star = float(np.max(f.on_points(grid)))
            worst = int(np.argmin(f.on_points(cand)))
            path = out / f"trace_seed{seed}.csv"
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            x_col, y_col, inst_col, cum_col = (header.index(c) for c in ("x_1", "y", "inst_regret", "cum_regret"))
            rows = [line.split(",") for line in lines[1:]]
            noise = _seed_noise(config, seed)
            for t, row in enumerate(rows[32:], start=32):
                row[x_col] = format(cand[worst, 0], ".17g")
                row[y_col] = format(f.on_points(cand[worst])[0] + noise[t], ".17g")
                row[inst_col] = format(f_star - f.on_points(cand[worst])[0], ".17g")
            cum = np.cumsum([float(row[inst_col]) for row in rows])
            for row, value in zip(rows, cum):
                row[cum_col] = format(value, ".17g")
            path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        assert cmd_report(str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "FAIL  cumulative-regret exponent" in report


def _drop_trace(cell):
    (cell / "trace_seed3.csv").unlink()


def _drop_objective(cell):
    path = cell / "objective.txt"
    blocks = path.read_text().split("\n\n")
    path.write_text("\n\n".join(b for b in blocks if "seed = 2\n" not in b))


def _drop_coeffs(cell):
    path = cell / "objective.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith("coeffs = ")))


def _nan_coeff(cell):
    path = cell / "objective.txt"
    text = path.read_text()
    start = text.index("coeffs = ") + len("coeffs = ")
    path.write_text(text[:start] + "nan" + text[text.index(",", start):])


def _widen_centers(cell):
    # 2-d centers in a 1-d run
    path = cell / "objective.txt"
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("centers = "):
            lines[i] = line.rstrip("\n").replace(";", ",0.5;") + ",0.5\n"
    path.write_text("".join(lines))


def _swap_seed_labels(cell):
    path = cell / "objective.txt"
    text = path.read_text().replace("seed = 0\n", "seed = x\n").replace("seed = 1\n", "seed = 0\n")
    path.write_text(text.replace("seed = x\n", "seed = 1\n"))


def _garbage_record_line(cell):
    path = cell / "objective.txt"
    path.write_text(path.read_text().replace("family = ", "garbage line here\nfamily = ", 1))


def _repeat_seed_line(cell):
    path = cell / "objective.txt"
    path.write_text(path.read_text().replace("seed = 3\n", "seed = 3\nseed = 4\n", 1))


def _repeat_record_key(cell):
    path = cell / "objective.txt"
    path.write_text(path.read_text().replace("family = matern\n", "family = matern\nfamily = matern\n", 1))


def _set_config_nu(value):
    def damage(cell):
        path = cell / "config.txt"
        path.write_text(path.read_text().replace("kernel.nu = 1.5\n", f"kernel.nu = {value}\n"))
    return damage


def _overflow_record_nu(cell):
    # a smoothness whose K_nu overflows at the first record's centers
    path = cell / "objective.txt"
    path.write_text(path.read_text().replace("nu = 1.5\n", "nu = 400.3\n", 1))


def _negative_norm_record(cell):
    # two nearly equal centers with opposite coefficients of 1e8: the norm's
    # quadratic form cancels to a negative value in floating point
    path = cell / "objective.txt"
    text = path.read_text()
    for key, value in (("centers = ", "0.5; 0.5000000001"), ("coeffs = ", "1e8, -1e8")):
        start = text.index(key) + len(key)
        text = text[:start] + value + text[text.index("\n", start):]
    path.write_text(text)


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
    # a blank line at line 4 of the file, and t = 99 at line 11: line numbers
    # count the file's own lines, the blank one included
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


def _move_to_grid_row(cell):
    # step 5 moved onto a grid point that is not a candidate, with y and the
    # regret columns made to match it
    config = parse_config((cell / "config.txt").read_text())
    grid = config.evaluation_points()
    row = config.candidate_points().shape[0]
    records = (cell / "objective.txt").read_text().split("\n\n")
    f, _ = parse_objective_record(next(r for r in records if r.startswith("seed = 1\n")))
    f_grid = f.on_points(grid)
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
        (_drop_objective, "seed 2"),
        (_drop_coeffs, "objective.txt: objective record has no coeffs field"),
        (_nan_coeff, "objective.txt: centers and coefficients must be finite"),
        (_widen_centers, "objective.txt: dimension mismatch: 2-d points against 1-d points"),
        (_swap_seed_labels, "trace_seed0.csv: inst_regret at t=1 is not f_star - f(x_t)"),
        (_garbage_record_line, "objective.txt: malformed line 'garbage line here'"),
        (_repeat_record_key, "objective.txt: duplicate key 'family'"),
        (_repeat_seed_line, "objective.txt: duplicate key 'seed'"),
        (_set_config_nu(1.7), "objective.txt: the record of seed 0 has another kernel than config.txt"),
        (_set_config_nu(400.3), "objective.txt: the record of seed 0 has another kernel than config.txt"),
        (_overflow_record_nu, "objective.txt: K_nu overflows double precision at nu=400.3"),
        (_negative_norm_record, "objective.txt: negative squared norm"),
        (_rename_column, "trace_seed1.csv: trace header has no mu column"),
        (_truncate_trace, "trace_seed1.csv"),
        (_skip_step, "non-consecutive t"),
        (_blank_line_then_skip, "trace_seed2.csv: non-consecutive t at line 11: '99' where 9 was expected"),
        (_short_trace, "rows for horizon 64"),
        (_move_point, "not on the evaluation grid"),
        (_move_to_grid_row, "trace_seed1.csv: x at t=5, [0.03333333333333333], is not a candidate"),
        (_forge_flag, "trace_seed0.csv: flag at line 10 is '2', not 0 or 1"),
        (_forge_cum_regret, "trace_seed2.csv: cum_regret at t=20 is not the running sum"),
        (_forge_beta, "trace_seed4.csv: beta at t=7 is not the configured schedule"),
        (_forge_y, "trace_seed3.csv: y at t=1 is not f(x_t) plus the seed's noise draw"),
    ])
    def test_damage_exits_4(self, suite, tmp_path, capsys, damage, message):
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        damage(cell)
        assert cmd_report(str(cell)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_undamaged_suite_reports(self, suite, tmp_path):
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        assert cmd_report(str(cell)) == 0

    def test_report_audits_the_recorded_objectives(self, suite, tmp_path, monkeypatch):
        def redraw(self, seed):
            raise AssertionError("report must read objective.txt, not draw again")

        monkeypatch.setattr(ExperimentConfig, "objective_for_seed", redraw)
        cell = tmp_path / "run"
        shutil.copytree(suite, cell)
        assert cmd_report(str(cell)) == 0


def _edit_short_row(cell):
    # one flipped digit in an observation of the 16-step cell
    path = cell / "horizon_16" / "trace_seed3.csv"
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    col = lines[0].split(",").index("y")
    row[col] = row[col][:-1] + ("1" if row[col][-1] != "1" else "2")
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _swap_short_objectives(cell):
    _swap_seed_labels(cell / "horizon_16")


def _edit_short_config(cell):
    path = cell / "horizon_16" / "config.txt"
    path.write_text(path.read_text().replace("noise.sigma = 0.10000000000000001", "noise.sigma = 0.2"))


def _cut_short_config_newline(cell):
    path = cell / "horizon_16" / "config.txt"
    path.write_text(path.read_text().rstrip("\n"))


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
        (_swap_short_objectives, "horizon_16/objective.txt: not the objectives of horizon_64"),
        (_edit_short_config, "horizon_16/config.txt: differs from horizon_64 in noise.sigma = 0.2, not only in horizon"),
        (_cut_short_config_newline, "horizon_16/config.txt: differs from horizon_64 in its length, not only in horizon"),
    ])
    def test_shorter_cell_not_a_cut_exits_4(self, sweep, tmp_path, capsys, damage, message):
        out = tmp_path / "sweep"
        shutil.copytree(sweep, out)
        damage(out)
        assert cmd_report(str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
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

    def test_sweep_stopped_in_its_last_cell_is_not_graded(self, sweep, tmp_path, capsys, monkeypatch):
        # a rerun over a finished sweep that stops writing its last cell
        # leaves no merged summary, so report does not grade what is left
        out = tmp_path / "sweep"
        shutil.copytree(sweep, out)

        def full_disk(trace):
            if trace.horizon == 64:
                raise OSError("no space left on device")
            return trace_to_csv(trace)

        monkeypatch.setattr("gpucb.cli.trace_to_csv", full_disk)
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
        assert cmd_sweep(write_config(tmp_path, text), "horizon", ["16", "64"], str(out)) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: no space left on device\n"
        assert (out / "horizon_16" / "config.txt").exists() and not (out / "summary.csv").exists()
        assert cmd_report(str(out)) == 4
        assert "summary.csv: missing, so the sweep did not finish" in capsys.readouterr().err

    def test_non_horizon_sweep_exits_4(self, tmp_path, capsys):
        # two cells of one horizon that differ in beta.c0 are not one run
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("horizon = 8", "horizon = 64")
        out = tmp_path / "cal"
        assert cmd_sweep(write_config(tmp_path, text), "beta.c0", ["0.2", "1"], str(out)) == 0
        capsys.readouterr()
        assert cmd_report(str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "beta_c0_1/config.txt: differs from beta_c0_0.2 in beta.c0 = 1, not only in horizon" in err


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
            "beta.constant_value = 1\n"
            "candidates.count = 256\n"
            "candidates.method = lattice\n"
            "eval_grid.count = 256\n"
            "objective.kind = random\n"
            "objective.m = 20\n"
            "objective.B = 2\n"
            "seeds = 0, 1, 2, 3, 4\n"
            "grid_gap = 0\n"
        )
        assert config.digest() == "ad94c1dadd668495"

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
