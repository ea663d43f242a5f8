"""Every exported name resolves: a deleted function must not leave its export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lofiq

MODULES = sorted(m.name for m in pkgutil.iter_modules(lofiq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"lofiq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"lofiq.{name}.__all__ names what it does not define"


def test_package_imports_name_what_exists():
    tree = ast.parse(Path(lofiq.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"lofiq.{node.module}")
        for alias in node.names:
            assert hasattr(source, alias.name), (node.module, alias.name)
            assert hasattr(lofiq, alias.asname or alias.name), alias.name
    for name in getattr(lofiq, "__all__", ()):
        assert hasattr(lofiq, name), name


def test_oracles_import_nothing_from_lofiq():
    # the oracles are a second route to each result, so none may reuse library code
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "numpy" in imported
    assert [m for m in imported if m.startswith(".") or m.split(".")[0] == "lofiq"] == []
