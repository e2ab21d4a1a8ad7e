"""Source hygiene: every name a library module imports is read somewhere in
that module.  ``__init__`` is exempt, because it imports to re-export."""

import ast
from pathlib import Path

import pytest

import ixm

MODULES = sorted(
    p for p in Path(ixm.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py"
)


def _unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_scan_sees_an_unread_import():
    assert _unread_imports("import os\nfrom x import y as z\nprint(os)\n") == ["z (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []
