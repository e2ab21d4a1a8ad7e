"""Source hygiene: every name a library module imports is read somewhere in
that module, every top-level function is called or named somewhere, every
module-level name it assigns is read somewhere outside the tests, and the
package root holds every name the benchmark reads from it.  ``__init__`` is
exempt from the first three, because it imports to re-export."""

import ast
import importlib.util
from pathlib import Path

import pytest

import ixm

MODULES = sorted(
    p for p in Path(ixm.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py"
)
BENCH = sorted((Path(ixm.__file__).resolve().parents[2] / "ixmbench").glob("*.py"))


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


def _names_read(source: str, strings: bool = False) -> set[str]:
    """Names loaded, attributes read and, if ``strings``, string constants
    (the tracer patches functions by name)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_the_benchmark_is_scanned():
    assert {"round.py", "tracer.py"} <= {p.name for p in BENCH}


def _library_and_benchmark_reads() -> set[str]:
    read = set()
    for path in MODULES:
        read |= _names_read(path.read_text())
    for path in BENCH:
        read |= _names_read(path.read_text(), strings=True)
    return read


def _assigned_names(node: ast.stmt) -> list[str]:
    """The names a top-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        n.id
        for t in targets
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    ]


def test_the_scan_sees_module_level_names():
    tree = ast.parse("A = 1\nB, C = 2, 3\nD: int = 4\nA.x = 5\n")
    assert [name for node in tree.body for name in _assigned_names(node)] == ["A", "B", "C", "D"]


def test_every_top_level_function_is_used():
    read = _library_and_benchmark_reads()
    unused = [
        f"{path.name}: {node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in read
    ]
    assert unused == []


def test_every_module_level_name_is_read():
    read = _library_and_benchmark_reads()
    unread = [
        f"{path.name}: {name}"
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for name in _assigned_names(node)
        if name not in read
    ]
    assert unread == []


def test_the_root_holds_every_name_the_benchmark_reads():
    read = {
        node.attr
        for path in BENCH
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ixm"
    }
    assert {"parse_epset", "render_epset", "render_card"} <= read
    missing = [
        name
        for name in sorted(read)
        if not hasattr(ixm, name) and importlib.util.find_spec(f"ixm.{name}") is None
    ]
    assert missing == []
