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


def _reads(node):
    """The names `node` reads: loaded names, attributes, and names
    imported from another module."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
    return found


def _binds(node):
    """The names a module-level statement binds: a function, a class or an
    assignment to plain names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else []
    )
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_private_names(sources):
    """(module, name) of every private name that a module of `sources`
    (name -> source) binds at module level and that no other module-level
    statement of any of them reads; a function that only calls itself is
    unread.  Dunder names are exempt."""
    statements = [
        (module, node)
        for module, source in sources.items()
        for node in ast.parse(source).body
    ]
    reads = [_reads(node) for _, node in statements]
    unread = []
    for i, (module, node) in enumerate(statements):
        for name in _binds(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unread.append((module, name))
    return sorted(unread)


def test_every_private_name_in_the_package_is_read():
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
    }
    assert unread_private_names(sources) == []


def test_unread_private_names_sees_every_binding():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "__all__ = []\n"
            "def _loop(n):\n"
            "    return _loop(n - 1)\n"
            "class _Orphan:\n"
            "    pass\n"
            "def _helper():\n"
            "    return _USED\n"
        ),
        "b.py": "from .a import _helper\nimport a\nx = a._USED\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", "_Orphan"), ("a.py", "_UNUSED"), ("a.py", "_loop"),
    ]
