"""The package's public names: a deleted or renamed function must fail here, not leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import femtogame

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(femtogame.__path__))


def _package_imports():
    """(submodule, name) for every ``from .submodule import name`` in ``femtogame/__init__.py``."""
    tree = ast.parse(Path(femtogame.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"femtogame.{module}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_the_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports  # the parse found the package's imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if name not in getattr(importlib.import_module(f"femtogame.{module}"), "__all__", ())
    ]
    assert missing == []
