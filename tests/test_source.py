"""Guards on the library source itself."""

import ast
from pathlib import Path

import branchcover


def test_no_module_rests_on_assert():
    """`python -O` strips assert statements, so no library guarantee may
    rest on one: every check in the package raises explicitly."""
    package = Path(branchcover.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
