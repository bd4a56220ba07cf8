"""Export hygiene: every module's __all__ resolves, and the package
re-exports only names its modules declare public."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import flockspc

MODULES = sorted(m.name for m in pkgutil.iter_modules(flockspc.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"flockspc.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"duplicate names in flockspc.{name}.__all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"flockspc.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_are_public_names():
    tree = ast.parse(Path(flockspc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports, "the package re-exports nothing"
    for node in imports:
        assert node.level == 1 and node.module in MODULES, ast.unparse(node)
        module = importlib.import_module(f"flockspc.{node.module}")
        for alias in node.names:
            assert hasattr(flockspc, alias.asname or alias.name), alias.name
            assert alias.name in module.__all__, (
                f"flockspc re-exports {node.module}.{alias.name}, which is not in its __all__")
