"""Export hygiene: every module's __all__ resolves, and the package
re-exports exactly the names its modules declare public."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from dataclasses import replace
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


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_only_what_it_defines(name):
    # A class or function is public in the module that defines it, so each
    # public name has one home and no module re-exports another's.
    module = importlib.import_module(f"flockspc.{name}")
    foreign = [n for n in getattr(module, "__all__", ())
               if inspect.isclass(obj := getattr(module, n)) or inspect.isroutine(obj)
               if obj.__module__ != module.__name__]
    assert not foreign, f"flockspc.{name}.__all__ lists names defined elsewhere: {foreign}"


def test_config_error_keeps_its_import_paths():
    # model exports ConfigError; config, which raises it, still binds it.
    from flockspc.config import ConfigError

    assert ConfigError is flockspc.model.ConfigError is flockspc.ConfigError


def test_package_imports_are_public_names():
    # The package surface is its modules' __all__ lists, star-imported: no
    # hand-kept list of names can drift from what the modules declare.
    tree = ast.parse(Path(flockspc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports, "the package re-exports nothing"
    for node in imports:
        assert isinstance(node, ast.ImportFrom), ast.unparse(node)
        assert node.level == 1 and node.module in MODULES, ast.unparse(node)
        assert [alias.name for alias in node.names] == ["*"], ast.unparse(node)
    modules = [importlib.import_module(f"flockspc.{node.module}") for node in imports]
    declared = [name for module in modules for name in module.__all__]
    assert flockspc.__all__ == declared
    assert len(set(declared)) == len(declared), "two modules declare the same public name"
    for module in modules:
        for name in module.__all__:
            assert getattr(flockspc, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_package_error_catches_a_diverged_rollout():
    # A library caller catches a diverged run by the package's name for the
    # error; noise of 1e308 makes this rollout diverge at tick 0.
    cfg = replace(flockspc.build_scenario(3, "none", "PFC", "B", 0, duration=12.0),
                  noise_sigma=1e308)
    with pytest.raises(flockspc.DivergenceError, match=r"^tick 0 "):
        flockspc.run_scenario(cfg)
