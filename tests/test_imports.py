"""Every name a module of the package or of the tests imports is used in it.

The package has no linter; this is the one lint rule the suite keeps.  A
name counts as used if any Name node of the module reads it, annotations
included; a name listed in the module's __all__ is a re-export and counts
too.
"""

import ast
from pathlib import Path

import pytest

import rubymag

_PACKAGE = Path(rubymag.__file__).resolve().parent
_MODULES = (sorted(_PACKAGE.glob("*.py"))
            + sorted(Path(__file__).resolve().parent.glob("*.py")))


def _module_id(path: Path) -> str:
    """The module's stem, prefixed with tests. for a test module."""
    return path.stem if path.parent == _PACKAGE else f"tests.{path.stem}"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", _MODULES, ids=_module_id)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_unused_import_check_sees_unused_names():
    """The check itself: an unused name is found with its line, a used
    one, a __future__ import and a re-export in __all__ are not."""
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\n"
                     "import os.path\n"
                     "from json import dumps as d, loads\n"
                     "from . import constants as CONST\n"
                     "__all__ = ['CONST']\n"
                     "def f(x: loads) -> float:\n"
                     "    return math.pi\n")
    assert _unused_imports(tree) == [(3, "os"), (4, "d")]
