"""Each public name has one import path, the module that defines it and
lists it in ``__all__``, and a bare ``import gpucb`` loads no module; the
CLI's commands enter every public function and property but the few named
here, each CLI command loads only the modules it reads, the CLI grades
through ``analysis.grade_suite`` alone, posterior.py holds all of its linear
algebra, config.py all of its ``key = value`` text, and posterior.py all of
the per-process state."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gpucb

MODULES = sorted(m.name for m in pkgutil.iter_modules(gpucb.__path__))
SRC = str(Path(gpucb.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
# the directories whose code imports from the package (its own modules by
# relative import)
_IMPORTERS = [
    Path(SRC) / "gpucb",
    Path(__file__).parent,
    Path(__file__).parent / "data",
    Path(__file__).parents[1] / "perfbench",
]


def test_bare_import_loads_no_module():
    # a fresh process: importing the package loads none of its modules
    code = "import sys, gpucb\nprint(sorted(m for m in sys.modules if m.startswith('gpucb.')))\n"
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("name", MODULES)
def test_every_declared_name_exists(name):
    # each name in __all__ exists and is defined in that module: no module
    # re-exports a name another defines
    module = importlib.import_module(f"gpucb.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"gpucb.{name}.__all__ names missing attributes: {missing}"
    foreign = [n for n in module.__all__ if getattr(module, n).__module__ != module.__name__]
    assert not foreign, f"gpucb.{name}.__all__ names objects defined elsewhere: {foreign}"


def _package_imports(tree: ast.AST):
    """(line, module, name) for each name a ``from`` import takes from the
    package: the module ``""`` for ``from gpucb import name``, else the
    submodule's name; a relative import is the package's own."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or ""
        elif node.module == "gpucb" or (node.module or "").startswith("gpucb."):
            module = node.module.removeprefix("gpucb").removeprefix(".")
        else:
            continue
        for alias in node.names:
            yield node.lineno, module, alias.name


def test_every_import_names_the_defining_module():
    # ``from gpucb import`` brings in submodules only, and a public name is
    # imported from the module whose __all__ lists it
    wrong = []
    for directory in _IMPORTERS:
        for path in sorted(directory.glob("*.py")):
            for line, module, name in _package_imports(ast.parse(path.read_text(encoding="utf-8"))):
                if module == "":
                    ok = name in MODULES
                else:
                    ok = name.startswith("_") or name in importlib.import_module(f"gpucb.{module}").__all__
                if not ok:
                    wrong.append(f"{path}:{line}: from {'.'.join(filter(None, ('gpucb', module)))} import {name}")
    assert not wrong, "import each public name from the module that defines it:\n" + "\n".join(wrong)


_CONFIG = """\
kernel.family = matern
kernel.nu = 1.5
kernel.lengthscale = 0.5
domain.dim = 1
domain.lower = 0
domain.upper = 1
rho = 1
noise.kind = normal
noise.sigma = 0.1
horizon = 64
beta.kind = log_product
candidates.count = 64
candidates.method = lattice
eval_grid.count = 64
objective.kind = random
objective.m = 20
objective.B = 2
seeds = 0, 1, 2, 3, 4
"""
# the shape of the bessel_halton2d benchmark: a general-order Matern kernel
# on Halton candidates in d = 2, with an explicit objective
_EXPLICIT = (
    _CONFIG.replace("kernel.nu = 1.5", "kernel.nu = 1.2")
    .replace("domain.dim = 1", "domain.dim = 2")
    .replace("candidates.method = lattice", "candidates.method = low_discrepancy")
    .replace("objective.kind = random\nobjective.m = 20\nobjective.B = 2",
             "objective.kind = explicit\n"
             "objective.centers = 0.25, 0.5; 0.75, 0.125\n"
             "objective.coeffs = 1.5, -0.5")
)
# the numeric modules, which validate must not load
_NUMERIC = ("numpy", "gpucb.kernels", "gpucb.posterior", "gpucb.rkhs", "gpucb.ucb", "gpucb.analysis")
# (config text or None for a bare import, modules it must not load, exit code, stderr)
_COMMANDS = {
    "import": (None, ("scipy",), 0, ""),
    "validate_random": (_CONFIG, _NUMERIC, 0, ""),
    "validate_explicit": (_EXPLICIT, _NUMERIC, 0, ""),
    "validate_malformed": (_CONFIG + "seeds 5\n", _NUMERIC, 2, "error: malformed line 'seeds 5' (line 19)\n"),
}


# the public functions that no command enters, each with why the package
# keeps it
_UNENTERED = {
    "posterior.fit": "perfbench/tracer.py patches it by name",
    "posterior.logdet_information": "perfbench/tracer.py patches it by name",
    "analysis.states_at_checkpoints": "perfbench/tracer.py patches it by name",
    "analysis.uniform_bound_audit": "perfbench/tracer.py patches it by name",
    "rkhs.grid_maximum": "perfbench/tracer.py patches it by name",
    "posterior.posterior_mean_at": "uniform_bound_audit calls it",
    "posterior.posterior_var_at": "uniform_bound_audit calls it",
    "analysis.calibrate_c0": "the calibrate command of ROADMAP item 14 is to call it",
    "posterior.PosteriorState.t": "uniform_bound_audit and logdet_information read it",
}


def _public_functions() -> dict:
    """The code of each function in a module's ``__all__``, and of each
    public method and property getter of a class there, by dotted name."""
    codes = {}
    for name in MODULES:
        module = importlib.import_module(f"gpucb.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for key, member in members:
                member = getattr(member, "__func__", member)  # a static or class method
                member = getattr(member, "fget", member)  # a property
                if not key.startswith("_") and inspect.isfunction(member):
                    codes[member.__code__] = ".".join(filter(None, (name, attr, key)))
    return codes


def test_the_commands_enter_every_public_function_but_the_named_few(tmp_path, fresh_memo):
    # in one process under sys.setprofile, each config validated, run (or
    # swept over the horizon) and reported, each command on an empty memo
    # as its own process starts: a Matern 3/2 lattice, the bessel_halton2d
    # shape, whose general order enters bessel_k, and an SE horizon sweep
    from gpucb.cli import main

    se = _CONFIG.replace("kernel.family = matern\nkernel.nu = 1.5\n", "kernel.family = squared_exponential\n")
    assert se != _CONFIG
    suites = {
        "lattice": (_CONFIG, ["run"]),
        "halton": (_EXPLICIT, ["run"]),
        "sweep": (se, ["sweep", "--axis", "horizon", "--values", "16, 64"]),
    }
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = _public_functions()
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name, (text, produce) in suites.items():
            config, out = tmp_path / f"{name}.txt", str(tmp_path / name)
            config.write_text(text, encoding="utf-8")
            for argv in (["validate", "--config", str(config)], [*produce, "--config", str(config), "--out", out], ["report", "--out", out]):
                fresh_memo.clear()
                assert main(argv) == 0, argv
    finally:
        sys.setprofile(before)
    assert "kernels.bessel_k" in codes.values()
    unentered = sorted(name for code, name in codes.items() if code not in entered)
    assert unentered == sorted(_UNENTERED), "a function no command enters belongs in tests/reference.py"


@pytest.mark.parametrize("case", sorted(_COMMANDS))
def test_cli_loads_only_the_modules_it_reads(tmp_path, case):
    # ``-X importtime`` names on stderr every module the process imports
    text, unloaded, code, err = _COMMANDS[case]
    if text is None:
        argv = ["-c", "import gpucb.cli"]
    else:
        path = tmp_path / "config.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["-m", "gpucb.cli", "validate", "--config", str(path)]
    done = subprocess.run([sys.executable, "-X", "importtime", *argv], env=ENV, capture_output=True, text=True)
    lines = done.stderr.splitlines(keepends=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    assert "gpucb.config" in imported
    assert done.returncode == code
    assert "".join(line for line in lines if not line.startswith("import time:")) == err
    assert done.stdout == ("config ok\n" if text is not None and code == 0 else "")
    loaded = sorted(m for m in imported if m.split(".")[0] in unloaded or m in unloaded)
    assert not loaded, f"{case} loads {loaded}"


def test_cli_grades_through_grade_suite_alone():
    # every band, threshold and verdict lives in analysis; the CLI reaches
    # only the grader and the two helpers that loading and summaries need
    tree = ast.parse(Path(gpucb.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("analysis"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any(a.name.endswith("analysis") for a in node.names), "cli.py imports the analysis module"
    assert names == {"grade_suite", "grid_columns", "trace_information_gain"}


def _linalg_references(tree: ast.AST) -> list[int]:
    """Lines that reach ``numpy.linalg``: an attribute ``.linalg``, or an
    import of it or from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
            "linalg" in (node.module or "") or any(a.name == "linalg" for a in node.names)
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_only_posterior_refers_to_linalg(name):
    # posterior.py itself is checked too, so the check cannot be vacuous
    path = Path(gpucb.__file__).with_name(f"{name}.py")
    lines = _linalg_references(ast.parse(path.read_text(encoding="utf-8")))
    if name == "posterior":
        assert lines
    else:
        assert not lines, f"gpucb/{name}.py refers to np.linalg at line(s) {lines}; posterior.py owns the linear algebra"


def _key_value_splits(tree: ast.AST) -> list[int]:
    """Lines that split a ``key = value`` line: a ``.partition("=")`` call."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "partition"
        and any(isinstance(arg, ast.Constant) and arg.value == "=" for arg in node.args)
    ]


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_only_config_splits_key_value_lines(name):
    # config.py itself is checked too, so the check cannot be vacuous
    path = Path(gpucb.__file__).with_name(f"{name}.py")
    lines = _key_value_splits(ast.parse(path.read_text(encoding="utf-8")))
    if name == "config":
        assert lines
    else:
        assert not lines, f"gpucb/{name}.py splits key = value lines at line(s) {lines}; config.py owns that text"


# the containers that start empty: a displayed {}, [] or set(), or a call
_CONTAINERS = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
_CACHES = {"cache", "lru_cache", "cached_property"}


def _empty_containers(tree: ast.Module) -> dict[int, str]:
    """The module-level names bound to an empty container, by line."""
    bound = {}
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        empty = (isinstance(value, ast.Dict) and not value.keys) or (isinstance(value, (ast.List, ast.Set)) and not value.elts)
        if isinstance(value, ast.Call) and not value.args and not value.keywords:
            func = value.func
            empty = (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in _CONTAINERS
        if empty:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound[node.lineno] = ", ".join(ast.unparse(t) for t in targets)
    return bound


def _functools_caches(tree: ast.Module) -> list[int]:
    """Lines that reach a ``functools`` cache, as a decorator or otherwise."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _CACHES and getattr(node.value, "id", None) == "functools"
        or isinstance(node, ast.ImportFrom) and node.module == "functools" and any(a.name in _CACHES for a in node.names)
    ]


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_only_posterior_holds_state_across_calls(name):
    # what a process builds once is held by posterior._held alone, in its
    # one container _HELD; posterior.py is checked too, so the check cannot
    # be vacuous
    tree = ast.parse(Path(gpucb.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    caches = _functools_caches(tree)
    assert not caches, f"gpucb/{name}.py uses a functools cache at line(s) {caches}; posterior._held holds what is built once"
    bound = _empty_containers(tree)
    if name == "posterior":
        assert list(bound.values()) == ["_HELD"], f"gpucb/posterior.py binds {bound} (line: name); _HELD alone holds state"
    else:
        assert not bound, f"gpucb/{name}.py binds a module-level empty container at {bound} (line: name); posterior._held holds state"
