"""Every name a coinv module imports at top level is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "coinv").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Top-level imported names that no Name node or attribute chain reads.

    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    assert _unused_imports("from __future__ import annotations\n"
                           "import os.path\nfrom x import a, b as c\nprint(a)\n") == [
        "line 2: os", "line 3: c"]


def _imported_names(source: str) -> set[str]:
    """The names a module's top-level and function-level imports bind."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem not in ("cli", "hopf")],
                         ids=lambda p: p.name)
def test_only_the_cli_builds_a_cover(path):
    """The engine takes the run's one HopfCover: no module but `cli` turns an
    F into a cover, and `hopf` defines build_hf."""
    assert "build_hf" not in _imported_names(path.read_text())
