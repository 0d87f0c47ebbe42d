"""The package exports only what its modules declare public, and every
declared name exists."""

import ast
import importlib
import pkgutil
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
