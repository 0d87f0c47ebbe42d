"""Suite outputs pinned across commits: three reduced suites, produced and
graded again and compared with the files ``tests/data/gen_pinned_outputs.py``
wrote.  Every file must match byte for byte, except the columns that carry
round-off (a trace's ``sigma`` and ``mu``, ``summary.csv``'s ``info_gain``),
which must match within 1e-10 * max(1, |v|)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("gen_pinned_outputs", DATA / "gen_pinned_outputs.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

# columns compared within a tolerance; every other column and file byte for byte
ROUNDED = {"sigma", "mu", "info_gain"}


def _files(top: Path) -> list[str]:
    return sorted(str(p.relative_to(top)) for p in top.rglob("*") if p.is_file())


def _first_difference(name: str, got: str, want: str) -> str | None:
    """Where the file ``name`` with text ``got`` first differs from ``want``:
    for a CSV row with the reference's fields, the column and the step (the
    row), otherwise the line; None when they match."""
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if len(got_lines) != len(want_lines):
        return f"{name}: {len(got_lines) - 1} lines where the reference has {len(want_lines) - 1}"
    header = want_lines[0].split(",")
    rows = [
        (i, a.split(","), b.split(","))
        for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b
    ]
    ragged = any(len(a) != len(header) or len(b) != len(header) for _, a, b in rows)
    if not name.endswith(".csv") or rows[0][0] == 0 or ragged:
        i = rows[0][0]
        return f"{name}: line {i + 1} is {got_lines[i]!r}, not {want_lines[i]!r}"
    for j, column in enumerate(header):
        for i, a, b in rows:
            if a[j] == b[j]:
                continue
            if column in ROUNDED and abs(float(a[j]) - float(b[j])) <= 1e-10 * max(1.0, abs(float(b[j]))):
                continue
            where = f"step {b[0]}" if header[0] == "t" else f"row {i}"
            return f"{name}: column {column} first differs at {where}: {a[j]!r}, not {b[j]!r}"
    return None


@pytest.mark.parametrize("case", sorted(gen.CASES))
def test_outputs_match_the_pinned_references(tmp_path, capsys, case):
    out = tmp_path / case
    gen.produce(case, out)
    capsys.readouterr()
    reference = gen.PINNED / case
    assert _files(out) == _files(reference)
    # the traces first: a fault there names the step where the outputs part
    for name in sorted(_files(reference), key=lambda name: "trace_seed" not in name):
        got = (out / name).read_text(encoding="utf-8")
        want = (reference / name).read_text(encoding="utf-8")
        fault = _first_difference(name, got, want)
        assert fault is None, fault


@pytest.mark.parametrize(
    "suite", sorted(str(p.parent.relative_to(gen.PINNED)) for p in gen.PINNED.glob("**/config.txt"))
)
def test_pinned_traces_pin_the_objectives_config_txt_draws(suite):
    # no file beside the traces records the objectives: each seed's is drawn
    # from config.txt, and the traces' regret and observations pin the draw
    # to the bit
    from gpucb.analysis import grid_columns
    from gpucb.config import parse_config
    from gpucb.rkhs import _objective_values
    from gpucb.ucb import _seed_noise, trace_from_csv

    top = gen.PINNED / suite
    config = parse_config((top / "config.txt").read_text(encoding="utf-8"))
    grid = config.evaluation_points()
    assert len(config.seeds) == 5
    for seed in config.seeds:
        f_grid = _objective_values(config.objective_for_seed(seed), grid)
        f_star = float(np.max(f_grid))
        trace = trace_from_csv((top / f"trace_seed{seed}.csv").read_text(encoding="utf-8"), config.kernel, f_star, seed)
        played = f_grid[grid_columns(grid, trace.X)]
        assert np.array_equal(trace.inst_regret, f_star - played)
        assert np.array_equal(trace.y, played + _seed_noise(config, seed)[: trace.horizon])


def test_the_halton_suite_tracks_a_shadow_column():
    # the objective peaks at a lattice point of the evaluation grid, off
    # the Halton candidates, so each run tracks the optimum past them
    from gpucb.config import parse_config

    config = parse_config(gen.CASES["nu12_halton2d"][0])
    grid = config.evaluation_points()
    assert int(np.argmax(config.objective_for_seed(0).on_points(grid))) >= config.candidates_count


def test_a_changed_column_names_the_file_the_column_and_the_step():
    want = "t,x_1,y,sigma\n1,0.5,0.25,1\n2,0.25,0.5,0.75\n"
    assert _first_difference("trace_seed0.csv", want, want) is None
    assert _first_difference("trace_seed0.csv", want.replace("0.75", "0.7500000000001"), want) is None
    assert _first_difference("trace_seed0.csv", want.replace("0.75", "0.7501"), want) == (
        "trace_seed0.csv: column sigma first differs at step 2: '0.7501', not '0.75'"
    )
    assert _first_difference("trace_seed0.csv", want.replace("2,0.25", "2,0.375"), want) == (
        "trace_seed0.csv: column x_1 first differs at step 2: '0.375', not '0.25'"
    )
    assert _first_difference("report.txt", "PASS a\nFAIL b\n", "PASS a\nPASS b\n") == (
        "report.txt: line 2 is 'FAIL b', not 'PASS b'"
    )
