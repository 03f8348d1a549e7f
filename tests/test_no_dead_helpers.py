"""Every private module-level helper of the package is used: a function,
class or constant whose name has one leading underscore must be loaded
somewhere in the package, by name, as an attribute or by a ``from``
import.  Nothing outside a module may need its private names, so one
that no code loads is dead."""

import ast
from pathlib import Path

import bandsplit

PACKAGE = Path(bandsplit.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module):
    """The private names a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (name for name in names if _is_private(name))


def _loaded(tree: ast.Module):
    """Every name a module reads: a name load, an attribute or a name
    imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_helper_is_loaded_somewhere_in_the_package():
    trees = {
        path.relative_to(PACKAGE): ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    loaded = {name for tree in trees.values() for name in _loaded(tree)}
    dead = [f"{path}: {name}" for path, tree in trees.items() for name in _defined(tree) if name not in loaded]
    assert len(trees) >= 10
    assert dead == []
