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


def test_no_module_imports_namedtuple_from_typing_or_re():
    """Set-up stays cheap: records are `collections.namedtuple` classes,
    which `typing.NamedTuple` would build only after reading every field
    annotation, and no text is read with a compiled regular expression."""
    package = Path(branchcover.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [
                f"{path.relative_to(package)}:{node.lineno}: {name}"
                for name in names
                if name in ("typing.NamedTuple", "re") or name.startswith("re.")
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


# Public names that no command reaches, kept on purpose, each with its reason.
UNREACHED_ON_PURPOSE = {
    "brute_force_two_datum": "documented brute-force oracle: witnesses by class-wide search",
    "exhaustive_blocks": "documented brute-force oracle: every block system by enumeration",
}


def _referenced(tree) -> set[str]:
    """Every name, attribute and string constant that ``tree`` mentions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_is_reached():
    """Library code is what the package or the benchmark reaches: each
    public top-level function and class of a module is referenced by code
    elsewhere in the package (outside its own body; an `__init__` export
    is no reference) or named in `perfbench/*.py`.  Reference code that
    only tests call belongs to the tests."""
    package = Path(branchcover.__file__).parent
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    named = set()
    for path in sorted(perfbench.glob("*.py")):
        named |= _referenced(ast.parse(path.read_text(), filename=str(path)))
    public = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(node, "name", None)
            named |= _referenced(node) - {own}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                public.add(own)
    assert perfbench.is_dir() and public
    assert sorted(public - named) == sorted(UNREACHED_ON_PURPOSE)
