"""Layout rules of the package source, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphereframe"


def private_imports(source: str) -> list:
    """(line, module, name) of every `from .x import _name` or
    `from sphereframe.x import _name` of a private name of another module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 0 and not node.module.startswith("sphereframe."):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                out.append((node.lineno, node.module, alias.name))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_private_import_rule_catches_both_forms():
    source = ("from .quadrature import _grid_size, sphere_size\n"
              "from sphereframe.frames import _Degree\n"
              "from . import _config\n"
              "from ._config import node_cap\n"
              "from numpy import _core\n")
    assert private_imports(source) == [(1, "quadrature", "_grid_size"),
                                       (2, "sphereframe.frames", "_Degree")]
