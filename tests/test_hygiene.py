"""Source hygiene: the gclose package carries no unused names.

Two scans.  No module imports a name it never uses: a name counts as used
when the module reads it anywhere, including inside a quoted annotation, or
lists it in ``__all__`` (so the package's re-exports in ``__init__.py``
pass); ``from __future__`` imports are exempt.  And no module defines, at
module level, a function, class or assigned name that nothing references
outside its own definition, in any module of the package, unless the
module exports it in ``__all__``; dunder names are exempt.

The traced benchmark run wraps the kernel functions that
``perfbench/spans.py`` lists in ``TRACED`` and looks each one up in its own
module's (or class's) namespace, so every listed name must be defined
there, not merely imported from elsewhere.
"""

import ast
import importlib
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


def _definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Module-level function, class and assigned name -> its line span."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                out[name] = (node.lineno, node.end_lineno)
    return out


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """Every name the module reads, as a bare name, an attribute, an import
    or inside a quoted annotation, with its line."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                quoted = ast.walk(ast.parse(ann.value, mode="eval"))
                refs.extend((n.id, node.lineno) for n in quoted if isinstance(n, ast.Name))
    return refs


def unreferenced_definitions(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each module-level definition nothing else uses."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = {module: _references(tree) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        exported = _all_names(tree)
        for name, (first, last) in _definitions(tree).items():
            if name in exported:
                continue
            if any(
                ref == name and (other != module or not first <= line <= last)
                for other, found in refs.items()
                for ref, line in found
            ):
                continue
            dead.append((module, name, first))
    return sorted(dead)


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_definition_scan_flags_unreferenced_names():
    sources = {
        "a": (
            "__all__ = ['public']\n"
            "VERBS = ('x', 'y')\n"
            "_TABLE = {'x': 1}\n"
            "def public():\n"
            "    return _TABLE\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Unused:\n"
            "    pass\n"
            "def _used_elsewhere():\n"
            "    pass\n"
        ),
        "b": "from .a import _used_elsewhere\n_used_elsewhere()\n",
    }
    assert unreferenced_definitions(sources) == [
        ("a", "VERBS", 2),
        ("a", "_Unused", 8),
        ("a", "_recursive", 6),
    ]


def test_no_unreferenced_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_definitions(sources) == []


def _traced_names() -> list[tuple[str, str | None, str]]:
    """The TRACED tuple of perfbench/spans.py, read without importing it."""
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    for node in ast.parse(spans.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_traced_names_live_in_their_own_module():
    traced = _traced_names()
    assert traced
    for module_name, cls_name, func_name in traced:
        module = importlib.import_module(f"gclose.{module_name}")
        owner = getattr(module, cls_name) if cls_name else module
        assert func_name in vars(owner), (module_name, cls_name, func_name)
        if cls_name is None:
            assert vars(owner)[func_name].__module__ == module.__name__, func_name
