"""Every private module-level helper of the package is used: a function,
class or constant whose name has one leading underscore must be loaded
somewhere in the package, by name, as an attribute or by a ``from``
import.  Nothing outside a module may need its private names, so one
that no code loads is dead.

Every ``__slots__`` entry of a package class is read somewhere in the
package or its tests: a slot that is only ever written is dead state."""

import ast
from pathlib import Path

import bandsplit

PACKAGE = Path(bandsplit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def _slots(tree: ast.Module):
    """(class, slot) for each entry of each ``__slots__`` tuple or list of
    strings that a class of the module declares."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
                and isinstance(stmt.value, (ast.Tuple, ast.List))
            ):
                yield from ((node.name, elt.value) for elt in stmt.value.elts if isinstance(elt, ast.Constant))


def _read_attributes(tree: ast.Module, own_classes: bool = True):
    """Every attribute a module reads: loaded, or updated in place
    (``x.a += 1`` reads ``a`` before it writes it).  With
    ``own_classes`` false, a class's reads of its own attributes
    (``self.a`` in its body) are left out: a test-side class such as the
    loop oracle's ``LoopBand`` reads only its own state that way."""
    skip = set()
    if not own_classes:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                skip.update(
                    id(node)
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"
                )
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute) and id(node.target) not in skip:
            yield node.target.attr


def _parse(root: Path) -> dict:
    return {
        path.relative_to(root): ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(root.rglob("*.py"))
    }


def test_every_private_helper_is_loaded_somewhere_in_the_package():
    trees = _parse(PACKAGE)
    loaded = {name for tree in trees.values() for name in _loaded(tree)}
    dead = [f"{path}: {name}" for path, tree in trees.items() for name in _defined(tree) if name not in loaded]
    assert len(trees) >= 10
    assert dead == []


def test_every_slot_is_read_somewhere_in_the_package_or_its_tests():
    package = _parse(PACKAGE)
    read = {attr for tree in package.values() for attr in _read_attributes(tree)}
    read.update(attr for tree in _parse(TESTS).values() for attr in _read_attributes(tree, own_classes=False))
    slots = [(path, cls, slot) for path, tree in package.items() for cls, slot in _slots(tree)]
    unread = [f"{path}: {cls}.{slot}" for path, cls, slot in slots if slot not in read]
    assert len(slots) >= 40
    assert unread == []
