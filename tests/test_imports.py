"""Every name a termbus module imports is read somewhere in that module,
and every private name the package defines is read somewhere in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "termbus"
MODULES = sorted(SRC.glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """The names source imports and never reads, with their lines.

    ``import a.b`` binds ``a``; ``from __future__ import ...`` binds nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def unread_privates(sources: dict[str, str]) -> list[str]:
    """The private names (``_x``, not ``__x``) that a module of sources
    defines at module or class level and that no module of them reads.

    A read is a name or attribute loaded, or updated in place (``+=``).
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                node = node.target
            elif not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for name, tree in trees.items():
        bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for node in (n for body in bodies for n in body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{name}: {d} (line {node.lineno})" for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    return unread


def test_the_check_sees_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .x import a, b as c, d\n"
        "def f(v: d) -> None:\n"
        "    return os.path.join(a, v)\n"
    )
    assert unread_imports(source) == ["j (line 3)", "c (line 4)"]


def test_there_are_modules_to_check():
    assert {"address.py", "mailbox.py", "runtime.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": (
            "_used = 1\n"
            "_unused = 2\n"
            "_counter: int = 0\n"
            "def _helper():\n"
            "    _local = _used\n"
            "    return _local\n"
            "class _Gone:\n"
            "    _slot = 3\n"
            "    def __init__(self):\n"
            "        self._bumped = 0\n"
            "    def _method(self):\n"
            "        global _counter\n"
            "        _counter += 1\n"
            "    def _dead(self):\n"
            "        del self._bumped\n"
        ),
        "b.py": "from .a import _helper\n_helper()\nx._method()\n",
    }
    assert unread_privates(sources) == [
        "a.py: _unused (line 2)",
        "a.py: _Gone (line 7)",
        "a.py: _slot (line 8)",
        "a.py: _dead (line 14)",
    ]


def test_every_private_name_is_read():
    assert unread_privates({p.name: p.read_text() for p in MODULES}) == []
