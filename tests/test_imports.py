"""Every imported name is read: an import that nothing reads is dead code."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted([*(ROOT / "src" / "polarcheck").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """Names bound by the imports of a module that it never reads.

    A name counts as read where it is loaded (an attribute chain loads its
    first name) or listed in __all__.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\n", [(1, "np")]),
    ("from a import b, c as d\nb()\n", [(1, "d")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n    return b\n", []),
    ("from a import b\nb = 1\n", [(1, "b")]),
])
def test_the_scan(source, unused):
    assert unused_imports(source) == unused
