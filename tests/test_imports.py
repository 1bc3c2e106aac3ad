"""Every name an import binds in the package is read in its scope."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gasket_szego"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _imports_in(scope):
    """The import statements of `scope` itself, not of the functions or
    classes defined inside it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_imports(source):
    """(line, name) of every name bound by an import, at module level or
    inside a function, that its scope never reads; `from __future__` is
    exempt.  A module-level name is read anywhere in the module."""
    tree = ast.parse(source)
    unread = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, functions))]:
        reads = {
            n.id for n in ast.walk(scope)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in _imports_in(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in reads:
                    unread.append((node.lineno, name))
    return sorted(unread)


def test_no_unused_import_in_the_package():
    found = {
        path.name: unread_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_unread_imports_sees_both_scopes():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "def f():\n"
        "    from math import log, exp\n"
        "    def g():\n"
        "        return exp(1.0)\n"
        "    return np.zeros(1), g\n"
        "def h():\n"
        "    return os.sep\n"
    )
    assert unread_imports(source) == [(2, "sys"), (5, "log")]
