import ast
from pathlib import Path

import rubymag

SRC = Path(rubymag.__file__).parent


def _raised_names() -> set:
    """Names of the exceptions raised anywhere in src/rubymag, whether raised
    as a class or as an instance, bare or module-qualified."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    """A class in errors.py that no raise statement names is dead surface."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)}
    assert classes
    assert sorted(classes - _raised_names()) == []
