"""Every name a termbus module imports is read somewhere in that module."""

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
