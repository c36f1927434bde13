"""Layout rules of the package source, checked on its syntax trees."""

import ast
import json
import os
import subprocess
import sys
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


def unreferenced_public_names(sources: dict) -> list:
    """(file, name) of every public module-level function or class, and every
    public method or nested class, that no Name or Attribute node of the
    sources refers to, apart from those inside its own definition.  Imports
    alone are not references."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = []
    for file, tree in trees.items():
        scopes = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        defined += [(file, node) for body in scopes for node in body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
    refs = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for file, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        if not any(name == definition.name and id(node) not in own for node, name in refs):
            unused.append((file, definition.name))
    return unused


# Public names with no caller in the package, each the other half of an
# interface outside it.
UNREFERENCED_BY_DESIGN = {
    "eval_angles": "bench/tracing.py wraps ExpansionEvaluator.eval_angles by name",
    "read_grid": "reads the grid files that `quadinfo --out` writes",
    "read_report": "reads the reports that the commands' --out writes",
    "write_signal": "writes the signal files that `reconstruct --signal` reads",
}


def test_every_public_name_has_a_caller_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    unused = unreferenced_public_names(sources)
    assert sorted(name for _, name in unused) == sorted(UNREFERENCED_BY_DESIGN), unused


def test_public_name_rule_catches_an_unused_name():
    sources = {
        "a.py": ("def used():\n    pass\n\n"
                 "def unused():\n    return unused()\n\n"
                 "class Box:\n"
                 "    def method(self):\n        return helper()\n\n"
                 "    def _private(self):\n        pass\n\n"
                 "    def idle(self):\n        pass\n\n"
                 "def helper():\n    pass\n"),
        "b.py": "from .a import unused\nx = used() and Box().method\n",
    }
    assert unreferenced_public_names(sources) == [("a.py", "unused"), ("a.py", "idle")]


def unbounded_memos(source: str) -> list:
    """Line of every use of functools' `lru_cache` or `cache` that does not
    give maxsize as an integer literal: a bare `@lru_cache`, `@lru_cache()`,
    `maxsize=None` or a computed size, and every `cache`, under any name the
    source imports them by."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in ("lru_cache", "cache")}

    def memo(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr in ("lru_cache", "cache")):
            return node.attr
        return None

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and memo(node.func) == "lru_cache":
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if size and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                bounded.add(id(node.func))
    return sorted(node.lineno for node in ast.walk(tree) if memo(node) and id(node) not in bounded)


def test_every_lru_memo_is_bounded():
    # the ladder stems and the accepted keys are plain dicts with their own bound tests
    found = {path.name: unbounded_memos(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert found == {name: [] for name in found}


def test_memo_bound_rule_catches_every_unbounded_form():
    source = ("import functools\n"
              "import functools as ft\n"
              "from functools import cache, cached_property, lru_cache, lru_cache as memo\n"
              "@lru_cache(maxsize=128)\n"
              "def a(): pass\n"
              "@functools.lru_cache(8)\n"
              "def b(): pass\n"
              "@lru_cache\n"
              "def c(): pass\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def d(): pass\n"
              "@cache\n"
              "def e(): pass\n"
              "@ft.cache\n"
              "def f(): pass\n"
              "@memo()\n"
              "def g(): pass\n"
              "h = ft.lru_cache(maxsize=SIZE)(len)\n"
              "k = lru_cache(2.0)(len)\n"
              "class A:\n"
              "    @cached_property\n"
              "    def x(self): pass\n"
              "    @memo(maxsize=4)\n"
              "    def y(self): pass\n")
    assert unbounded_memos(source) == [8, 10, 12, 14, 16, 18, 19]


def scipy_imports(source: str) -> list:
    """Line of every import of scipy or a scipy submodule, at any depth:
    module level, class bodies, conditional blocks and function bodies."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_is_imported_only_on_first_use_and_only_by_quadrature(path):
    # scipy is a test-only dependency: no module imports it, not even on first use
    assert scipy_imports(path.read_text()) == []


def test_scipy_import_rule_catches_every_form():
    source = ("import scipy\n"
              "import numpy, scipy.linalg as la\n"
              "from scipy.linalg import eigh_tridiagonal\n"
              "from numpy import scipy\n"
              "from . import scipy\n"
              "import scipyx\n"
              "if True:\n"
              "    from scipy import special\n"
              "class A:\n"
              "    import scipy.fft\n"
              "def f():\n"
              "    from scipy.linalg import eigh\n"
              "    def g():\n"
              "        import scipy\n"
              "    return lambda: __import__('scipy')\n")
    assert scipy_imports(source) == [1, 2, 3, 8, 10, 12, 14]


# Runs in a fresh interpreter: which commands load scipy.
SCIPY_CHILD = """\
import contextlib, io, json, sys
from sphereframe import cli
loaded = {"import": "scipy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[argv[0]] = (code, "scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    # all eight commands: quadinfo --out, reconstruct and autocorr build Gauss rules,
    # and reconstruct also the SO(3) plane basis
    commands = [
        ["build", "--kind", "wavelet", "--d", "4", "--K", "4", "--J", "3", "--window", "kappa2",
         "--out", "w.json"],
        ["check", "--spec", "w.json", "--n-max", "8"],
        ["dual", "--spec", "w.json", "--out", "dual.json"],
        ["figure", "--spec", "w.json", "--j", "2", "--resolution", "16",
         "--format", "pgm", "--out", "f.pgm"],
        ["localize", "--spec", "w.json"],
        ["quadinfo", "--d", "3", "--N", "2", "--out", "grid.json"],
        ["reconstruct", "--spec", "w.json", "--random", "4"],
        ["autocorr", "--spec", "w.json", "--j", "1", "--angles", "4"],
    ]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", SCIPY_CHILD, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False,
                                       **{argv[0]: [0, False] for argv in commands}}
