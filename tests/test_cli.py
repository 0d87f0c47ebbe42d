"""Command-line harness: exit codes, artifacts, determinism."""

import shutil

import numpy as np
import pytest

import gpucb.config
from gpucb import fit, logdet_information, parse_config, render_config, sample_random_rkhs, trace_from_csv
from gpucb.cli import cmd_report, cmd_run, cmd_sweep, cmd_validate, main
from gpucb.config import ExperimentConfig

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
    ])
    def test_bad_value_exits_2_before_any_cell(self, tmp_path, capsys, axis, good, bad):
        out = tmp_path / "s"
        assert cmd_sweep(write_config(tmp_path), axis, [good, bad], str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"(key: {axis})" in err
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

    def test_injected_superlinear_trace_fails(self, tmp_path):
        # forge a suite whose cumulative regret grows like t^0.9: the
        # exponent row must FAIL against the reference band
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4")
        config = write_config(tmp_path, text)
        out = tmp_path / "forged"
        assert cmd_sweep(config, "horizon", ["32", "512"], str(out)) == 0
        cell = out / "horizon_512"
        for seed in range(5):
            path = cell / f"trace_seed{seed}.csv"
            lines = path.read_text().splitlines()
            header = lines[0]
            rows = [l.split(",") for l in lines[1:]]
            cum_col = header.split(",").index("cum_regret")
            inst_col = header.split(",").index("inst_regret")
            prev = 0.0
            for i, row in enumerate(rows, start=1):
                cum = float(i) ** 0.9
                row[inst_col] = format(cum - prev, ".17g")
                row[cum_col] = format(cum, ".17g")
                prev = cum
            path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
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


def _truncate_trace(cell):
    path = cell / "trace_seed1.csv"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _skip_step(cell):
    path = cell / "trace_seed4.csv"
    lines = path.read_text().splitlines()
    del lines[10]
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


class TestDamagedRunReport:
    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("damaged")
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1, 2, 3, 4").replace("horizon = 8", "horizon = 64")
        out = work / "run"
        assert cmd_run(write_config(work, text), str(out)) == 0
        return out

    @pytest.mark.parametrize("damage, message", [
        (_drop_trace, "trace_seed3.csv"),
        (_drop_objective, "seed 2"),
        (_drop_coeffs, "objective.txt: objective record has no coeffs field"),
        (_nan_coeff, "objective.txt: centers and coefficients must be finite"),
        (_widen_centers, "objective.txt: dimension mismatch: 2-d points against 1-d points"),
        (_truncate_trace, "trace_seed1.csv"),
        (_skip_step, "non-consecutive t"),
        (_short_trace, "rows for horizon 64"),
        (_move_point, "not on the evaluation grid"),
        (_forge_cum_regret, "trace_seed2.csv: cum_regret at t=20 is not the running sum"),
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
