"""Guards on the library source itself."""

import ast
from pathlib import Path

import branchcover
from branchcover.perm import Permutation


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


def test_only_perm_reads_the_stored_form():
    """How a `Permutation` is stored is `perm`'s decision: no other module
    reads a private attribute of one (a slot, `_fill` or `_of`), except the
    0-based index table that `groups` walks."""
    private = {
        name
        for name in (*Permutation.__slots__, "_fill", "_of")
        if name.startswith("_")
    }
    allowed = {"groups.py": {"_table"}}
    package = Path(branchcover.__file__).parent
    modules = [path for path in sorted(package.rglob("*.py")) if path.name != "perm.py"]
    assert modules
    found = [
        f"{path.relative_to(package)}:{node.lineno}: {node.attr}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in private - allowed.get(path.name, set())
    ]
    assert found == []
