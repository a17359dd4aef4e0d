"""Source hygiene: no module of the gclose package imports a name it never uses.

A name counts as used when the module reads it anywhere, including inside a
quoted annotation, or lists it in ``__all__`` (so the package's re-exports
in ``__init__.py`` pass).  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import gclose

SOURCES = sorted(Path(gclose.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        ((name, line) for name, line in _imported(tree).items() if name not in used),
        key=lambda item: item[1],
    )


def test_scanner_flags_unused_and_accepts_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import gcd, lcm as least\n"
        "from .circle import CirclePoint\n"
        "from .duality import Character\n"
        "__all__ = ['Character']\n"
        "def f(x: 'CirclePoint') -> int:\n"
        "    return sys.maxsize + least(x, 2)\n"
    )
    assert unused_imports(source) == [("os", 2), ("gcd", 3)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
