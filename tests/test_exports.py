"""The package exports only what its modules declare public, every
declared name exists, and the CLI runs on numpy alone."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gpucb

MODULES = sorted(m.name for m in pkgutil.iter_modules(gpucb.__path__))


def test_every_package_import_is_declared_public():
    tree = ast.parse(Path(gpucb.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES, f"gpucb imports from outside the package: {node.module}"
        public = importlib.import_module(f"gpucb.{node.module}").__all__
        for alias in node.names:
            assert alias.name in public, f"gpucb exports {node.module}.{alias.name}, which is not in its __all__"


@pytest.mark.parametrize("name", MODULES)
def test_every_declared_name_exists(name):
    module = importlib.import_module(f"gpucb.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"gpucb.{name}.__all__ names missing attributes: {missing}"


def test_cli_import_loads_no_scipy_module():
    src = str(Path(gpucb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, gpucb.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
