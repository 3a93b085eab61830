"""The public surface: every exported name exists, and the package imports
only what its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import leafgauge

MODULES = sorted(m.name for m in pkgutil.iter_modules(leafgauge.__path__))


def exported(name: str) -> list[str]:
    """The names `from leafgauge.<name> import *` binds: its __all__, else
    its public names."""
    module = importlib.import_module(f"leafgauge.{name}")
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"leafgauge.{name}")
    names = exported(name)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(leafgauge.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES
        names = exported(node.module)
        assert [a.name for a in node.names if a.name not in names] == [], node.module
