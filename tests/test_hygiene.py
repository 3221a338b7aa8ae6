"""Leftovers in src/ssbl, found from the syntax tree alone: an imported name
that its module never uses, and a private module-level name that no module
of the package references."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ssbl"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def imported_names(tree: ast.Module) -> set[str]:
    """The names the imports of a module bind, `__future__` features aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """The names a module reads, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def private_definitions(tree: ast.Module) -> set[str]:
    """The module-level names a module binds that begin with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_import_is_used():
    unused = {name: sorted(imported_names(tree) - referenced_names(tree))
              for name, tree in MODULES.items()
              if name != "__init__.py"}    # the package's imports are its API
    assert {name: u for name, u in unused.items() if u} == {}


def test_every_private_name_is_referenced():
    used = set().union(*map(referenced_names, MODULES.values()))
    unused = {name: sorted(private_definitions(tree) - used)
              for name, tree in MODULES.items()}
    assert {name: u for name, u in unused.items() if u} == {}
