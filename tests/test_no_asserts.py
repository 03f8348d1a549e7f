"""Invariants in the package are explicit errors, not ``assert``
statements, which ``python -O`` strips."""

import ast
from pathlib import Path

import bandsplit

PACKAGE = Path(bandsplit.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(PACKAGE.rglob("*.py"))) >= 10
    assert found == []
