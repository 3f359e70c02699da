"""Every exported name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import damage_sim

MODULES = sorted(m.name for m in pkgutil.iter_modules(damage_sim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(f"damage_sim.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(damage_sim.__file__).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        source = importlib.import_module(f"damage_sim.{module}")
        assert getattr(damage_sim, name) is getattr(source, name), name
