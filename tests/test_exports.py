"""Every exported name resolves: each module's ``__all__`` and the package's
re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repeated_games

# the package's modules that declare ``__all__``
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(repeated_games.__path__)
    if hasattr(importlib.import_module(f"repeated_games.{m.name}"), "__all__")
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_name_in_all(name):
    exported = importlib.import_module(f"repeated_games.{name}").__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    namespace = {}
    exec(f"from repeated_games.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_resolve():
    tree = ast.parse(Path(repeated_games.__file__).read_text())
    reexported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexported
    for module, name in reexported:
        source = importlib.import_module(f"repeated_games.{module}")
        assert getattr(repeated_games, name) is getattr(source, name)
        assert name in getattr(source, "__all__", [name]), f"{module}.__all__ lacks {name}"
