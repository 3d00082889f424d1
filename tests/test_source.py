"""Guards on the library source itself."""

import ast
import importlib
import subprocess
import sys
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


SEARCHES = {
    "_search_merge",
    "_search_defect",
    "_pair_search_fallback",
    "_full_cycle_partner_search",
}


def test_no_construction_step_falls_back_on_a_search():
    """Each construction step has one deterministic route: no library code
    calls, or otherwise names, a seeded search.  The searches stay defined
    only because the benchmark's layer tracer binds them by name."""
    package = Path(branchcover.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    defined, found = set(), []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name in SEARCHES:
                    found.append(f"{path.relative_to(package)}:{node.lineno}: {name}")
    assert SEARCHES <= defined
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


def test_every_exported_name_resolves_to_its_home_module():
    """The lazy namespace hands out the object that its home module defines."""
    assert branchcover.__all__
    for name in branchcover.__all__:
        home = importlib.import_module(f"branchcover.{branchcover._HOMES[name]}")
        value = getattr(branchcover, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


VERIFIER_SIDE = ("verify.py", "perm.py", "groups.py", "errors.py")
BUILDER_SIDE = {"construct", "eks", "oracle", "realize", "cli"}


def _library_imports(node) -> set[str]:
    """The branchcover submodules that an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ("branchcover." if node.level else "") + (node.module or "")
        names = [base] if node.module else [f"branchcover.{a.name}" for a in node.names]
    else:
        return set()
    return {name.split(".")[1] for name in names if name.startswith("branchcover.")}


def test_the_verifier_side_imports_no_builder():
    """`verify` and what it imports (`perm`, `groups`, `errors`) import
    nothing from the builder, the oracles, certificate assembly or the CLI."""
    package = Path(branchcover.__file__).parent
    found = [
        f"{name}:{node.lineno}: {module}"
        for name in VERIFIER_SIDE
        for node in ast.walk(ast.parse((package / name).read_text(), filename=name))
        for module in sorted(_library_imports(node) & BUILDER_SIDE)
    ]
    assert found == []


def _loaded(code: str, *args: str) -> list[str]:
    """The branchcover modules a fresh interpreter holds after ``code``."""
    src = str(Path(branchcover.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        f"{code}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'branchcover'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_the_package_import_loads_no_submodule():
    assert _loaded("import branchcover") == ["branchcover"]
    assert _loaded("import branchcover\nbranchcover.load_appendix_table()") == [
        "branchcover",
        "branchcover.construct",
        "branchcover.eks",
        "branchcover.errors",
        "branchcover.groups",
        "branchcover.perm",
    ]


def test_the_verifier_loads_no_builder():
    assert _loaded("import branchcover.verify") == [
        "branchcover",
        "branchcover.errors",
        "branchcover.groups",
        "branchcover.perm",
        "branchcover.verify",
    ]


def test_the_verify_command_loads_no_builder(tmp_path):
    cert = tmp_path / "cert.txt"
    cert.write_text(
        "base: rp2\ndegree: 5\ndatum: [3,2];[3,2]\n"
        "a: (1 3 5)\nu[1]: (1 2 3)(4 5)\nu[2]: (1 5 4)(2 3)\n"
    )
    loaded = _loaded(
        "from branchcover import cli\n"
        "assert cli.main(['verify', '--certificate', sys.argv[1]]) == 0",
        str(cert),
    )
    assert "branchcover.verify" in loaded
    builders = {f"branchcover.{m}" for m in ("construct", "eks", "oracle", "realize")}
    assert builders.isdisjoint(loaded)
