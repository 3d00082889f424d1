"""Command-line interface: exit codes and byte-exact determinism."""

import ast
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from branchcover import cli, construct, groups, oracle, realize, verify
from branchcover.cli import main
from branchcover.construct import BranchDatum
from branchcover.perm import Partition, Permutation, compose, from_cycles
from branchcover.realize import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DECOMPOSABLE_CERT = (
    "base: rp2\n"
    "degree: 9\n"
    "datum: [9]\n"
    "a: (1 5 9 4 8 3 7 2 6)\n"
    "u[1]: (1 2 3 4 5 6 7 8 9)\n"
)


def test_admissible_ok(capsys):
    code, out, _ = run(
        capsys, "admissible", "--degree", "5", "--base", "rp2", "--datum", "[3,2];[3,2]"
    )
    assert code == 0
    assert out.strip() == "nu=6 chi=-1 admissible strict"


def test_admissible_parity_violation(capsys):
    code, out, _ = run(
        capsys, "admissible", "--degree", "3", "--base", "rp2", "--datum", "[2,1];[3]"
    )
    assert code == 2
    assert "parity" in out


def test_admissible_malformed(capsys):
    code, _, err = run(
        capsys, "admissible", "--degree", "5", "--base", "rp2", "--datum", "[3,2"
    )
    assert code == 3
    assert "parse error" in err


def test_realize_and_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "cert.txt"
    code, _, err = run(
        capsys,
        "realize",
        "--base",
        "rp2",
        "--datum",
        "[3,2];[3,2]",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "valid-indecomposable" in err
    text = out_file.read_bytes()
    assert text.startswith(b"base: rp2\ndegree: 5\n")
    assert b"\r" not in text

    code, out, _ = run(capsys, "verify", "--certificate", str(out_file))
    assert code == 0
    assert "valid-indecomposable" in out


def test_realize_deterministic_output(tmp_path, capsys):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for f in (f1, f2):
        code, _, _ = run(
            capsys,
            "realize",
            "--base",
            "rp2",
            "--datum",
            "[3,2];[3,2];[2,2,1]",
            "--seed",
            "7",
            "--out",
            str(f),
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_realize_sphere(capsys):
    code, out, err = run(
        capsys, "realize", "--base", "s2", "--datum", "[3,1,1];[3,2];[3,2]"
    )
    assert code == 0
    assert "base: s2" in out


def test_realize_out_of_scope(capsys):
    code, _, err = run(capsys, "realize", "--base", "rp2", "--datum", "[9]")
    assert code == 2
    assert "decomposable" in err

    code, _, err = run(capsys, "realize", "--base", "rp2", "--datum", "[2,2];[2,2]")
    assert code == 2
    assert "even degree" in err


def test_verify_tampered(tmp_path, capsys):
    out_file = tmp_path / "cert.txt"
    run(
        capsys,
        "realize",
        "--base",
        "rp2",
        "--datum",
        "[3,2];[3,2]",
        "--out",
        str(out_file),
    )
    tampered = out_file.read_text().replace("a: (1 3 5)", "a: (1 2 3)")
    out_file.write_text(tampered)
    code, out, _ = run(capsys, "verify", "--certificate", str(out_file))
    assert code == 1
    assert "relation" in out


def test_verify_decomposable_certificate(tmp_path, capsys):
    f = tmp_path / "cyclic.txt"
    f.write_text(DECOMPOSABLE_CERT)
    code, out, _ = run(capsys, "verify", "--certificate", str(f))
    assert code == 1
    assert "valid-decomposable" in out


# u[1]'s 6-cycle is a power of u[1], but gcd(6, 8) = 2: the group keeps the
# blocks {1,2},{3,4},{5,6},{7,8}
EVEN_CYCLE_CERT = (
    "base: s2\n"
    "degree: 8\n"
    "datum: [6,1,1];[2,2,1,1,1,1];[8]\n"
    "u[1]: (1 3 5 2 4 6)\n"
    "u[2]: (1 7)(2 8)\n"
    "u[3]: (1 7 6 4 2 8 5 3)\n"
)


def test_verify_an_isolated_cycle_that_proves_nothing(tmp_path, capsys):
    """A (d-2)-cycle with gcd(d-2, d) > 1 settles nothing: the exact test
    finds the blocks, and `verify` exits 1."""
    cert = realize.certificate_from_text(EVEN_CYCLE_CERT)
    report = realize.verify_certificate(cert)
    assert report.relation_ok and report.cycle_types_ok and report.transitive
    assert report.verdict == "valid-decomposable"
    _, blocks = groups.is_primitive(cert.u_images)
    assert blocks.blocks == ((1, 2), (3, 4), (5, 6), (7, 8))
    f = tmp_path / "even.txt"
    f.write_text(EVEN_CYCLE_CERT)
    code, out, _ = run(capsys, "verify", "--certificate", str(f))
    assert code == 1
    assert out.startswith("verdict=valid-decomposable ")


def _cycle_text(images):
    """The cycle notation and the cycle type of x -> images[x] on 1..d
    (``images[0]`` unused), each cycle from its smallest label."""
    seen = bytearray(len(images))
    cycles = []
    for start in range(1, len(images)):
        if not seen[start]:
            cycle = [start]
            seen[start] = 1
            while not seen[images[cycle[-1]]]:
                cycle.append(images[cycle[-1]])
                seen[cycle[-1]] = 1
            cycles.append(cycle)
    text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles if len(c) > 1)
    parts = sorted((len(c) for c in cycles), reverse=True)
    return text, "[" + ",".join(map(str, parts)) + "]"


def test_verify_at_degree_9999_runs_no_block_closure(tmp_path, capsys, monkeypatch):
    """An rp2 certificate whose a-image is a (d-2)-cycle, built here by list
    arithmetic, verifies at d = 9999 with no block closure: the cycle
    settles primitivity."""
    d = 9999
    a = [0, *range(2, d - 1), 1, d - 1, d]  # (1 2 ... d-2)
    u1 = list(range(d + 1))
    u1[d - 2], u1[d - 1], u1[d] = d - 1, d, d - 2
    u2 = [0] * (d + 1)
    for x in range(d + 1):  # u2 closes a a u1 u2 = 1
        u2[u1[a[a[x]]]] = x
    (a_text, _), (u1_text, t1), (u2_text, t2) = map(_cycle_text, (a, u1, u2))
    f = tmp_path / "large.txt"
    f.write_text(
        f"base: rp2\ndegree: {d}\ndatum: {t1};{t2}\n"
        f"a: {a_text}\nu[1]: {u1_text}\nu[2]: {u2_text}\n"
    )

    def refuse(*args):
        raise AssertionError("block closure run")

    monkeypatch.setattr(groups, "_block_closure", refuse)
    code, out, err = run(capsys, "verify", "--certificate", str(f))
    assert (code, err) == (0, "")
    assert out.startswith("verdict=valid-indecomposable relation=True types=True ")


def _prime_cycle_images(rng, d, p, fixes):
    """Images on 1..d, by list arithmetic, of an rp2 certificate like
    verify-large's prime-cycle kind: u1 is a p-cycle, a is random and u2
    closes a a u1 u2 = 1; a and u1 are redrawn until they are transitive.
    With ``fixes`` the p-cycle misses point 1; otherwise no generator fixes
    point 1."""
    while True:
        if fixes:
            support = rng.sample(range(2, d + 1), p)
        else:
            support = [1, *rng.sample(range(2, d + 1), p - 1)]
        u1 = list(range(d + 1))
        for x, y in zip(support, support[1:] + support[:1]):
            u1[x] = y
        a = [0, *rng.sample(range(1, d + 1), d)]
        u2 = [0] * (d + 1)
        for x in range(d + 1):
            u2[u1[a[a[x]]]] = x
        orbit, seen = [1], {1}
        for x in orbit:  # the list grows while it is walked
            for y in (a[x], u1[x]):
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        if len(orbit) == d and (fixes or (a[1] != 1 and u2[1] != 1)):
            return a, u1, u2


@pytest.mark.parametrize(
    "d, p, fixes",
    [
        (45, 41, True),
        (45, 41, False),
        (91, 83, True),
        (91, 83, False),
        pytest.param(1001, 997, True, marks=pytest.mark.slow),
        pytest.param(1001, 997, False, marks=pytest.mark.slow),
    ],
)
def test_verify_closes_only_the_orbit_minima(tmp_path, capsys, monkeypatch, d, p, fixes):
    """A primitive certificate without a (d-2)-cycle, built here by list
    arithmetic, goes to the closure scan.  When u1, a p-cycle, fixes point
    1, only the least point of each of its orbits on the other points is
    closed: at most d - p + 1 closures.  When no generator fixes point 1,
    every one of the d - 1 points is.  At d = 1001 parse plus verify stays
    under 1 s with at most 5 closures and under 10 s with 1000."""
    a, u1, u2 = _prime_cycle_images(random.Random(2 * d + fixes), d, p, fixes)
    (a_text, _), (u1_text, t1), (u2_text, t2) = map(_cycle_text, (a, u1, u2))
    f = tmp_path / "prime-cycle.txt"
    f.write_text(
        f"base: rp2\ndegree: {d}\ndatum: {t1};{t2}\n"
        f"a: {a_text}\nu[1]: {u1_text}\nu[2]: {u2_text}\n"
    )
    cert = realize.certificate_from_text(f.read_text())
    assert not groups._witness_cycle((cert.a_image, *cert.u_images), d - 2)
    closures = []
    closure = groups._block_closure

    def counting(*args):
        closures.append(args[3])
        return closure(*args)

    monkeypatch.setattr(groups, "_block_closure", counting)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--certificate", str(f))
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out.startswith("verdict=valid-indecomposable relation=True types=True ")
    if fixes:
        assert len(closures) <= d - p + 1
    else:
        assert closures == list(range(1, d))
    if d > 1000:
        assert elapsed < (1.0 if fixes else 10.0)


@pytest.mark.parametrize(
    "text, code, line",
    [
        (  # the relation forces u_1 = 1, which is kept as the one generator
            "base: s2\ndegree: 3\ndatum: [3]\nu[1]: ()\n",
            1,
            "verdict=invalid relation=True types=False transitive=False primitive=False"
            " chi=4 reason='cycle type mismatch'",
        ),
        (  # {[d]} at prime d: <a> is cyclic of prime order
            "base: rp2\ndegree: 7\ndatum: [7]\na: (1 4 7 3 6 2 5)\nu[1]: (1 2 3 4 5 6 7)\n",
            0,
            "verdict=valid-indecomposable relation=True types=True transitive=True"
            " primitive=True chi=1",
        ),
        (  # {[d]} at composite d: <a> is cyclic of order 9, with blocks of 3
            DECOMPOSABLE_CERT,
            1,
            "verdict=valid-decomposable relation=True types=True transitive=True"
            " primitive=False chi=1 reason='monodromy imprimitive'",
        ),
    ],
)
def test_verify_one_generator_left(tmp_path, capsys, monkeypatch, text, code, line):
    """Certificates whose relation leaves one generator once u_s is dropped:
    the verifier keeps at least one, and prints the line it printed when it
    used every image."""
    spans = []
    original = verify.is_primitive

    def counting(gens):
        spans.append(len(gens))
        return original(gens)

    monkeypatch.setattr(verify, "is_primitive", counting)
    f = tmp_path / "cert.txt"
    f.write_text(text)
    assert run(capsys, "verify", "--certificate", str(f)) == (code, line + "\n", "")
    assert spans == [1]


def _python_process(*args, optimize=False, preexec_fn=None):
    """Run a fresh interpreter with the library on its path, with -O if asked."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True,
        env=env,
        timeout=60,
        preexec_fn=preexec_fn,
    )


def _cli_process(*argv, optimize=False):
    """Run the branchcover command in a fresh interpreter, with -O if asked."""
    return _python_process("-m", "branchcover.cli", *argv, optimize=optimize)


def test_verify_without_asserts(tmp_path):
    f = tmp_path / "cyclic.txt"
    f.write_text(DECOMPOSABLE_CERT)
    proc = _cli_process("verify", "--certificate", str(f), optimize=True)
    assert proc.returncode == 1
    assert b"primitive=False" in proc.stdout


def _limit_address_space():
    """In the child: 1.5 GB of address space, so that building a claimed
    domain of 10^9 points fails instead of exhausting the machine."""
    limit = 1_500_000_000
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "base: rp2\ndegree: 1000000000\ndatum: [1000000000]\nu[1]: ()\n",
            "a-image present iff the base is the projective plane",
        ),
        (
            "base: s2\ndegree: 1000000000\ndatum: [999999998,1,1];[1000000000]\n"
            "u[1]: ()\n",
            "one u-image per branch point required",
        ),
    ],
    ids=["rp2-without-a", "s2-one-u-line-short"],
)
def test_verify_reads_the_structure_before_any_cycle(tmp_path, text, message):
    """A certificate whose lines contradict its base or its datum fails on
    the text alone: no u-line is built on the 10^9 points it claims."""
    f = tmp_path / "cert.txt"
    f.write_text(text)
    start = time.perf_counter()
    proc = _python_process(
        "-m", "branchcover.cli", "verify", "--certificate", str(f),
        preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (3, b""), proc.stderr
    assert proc.stderr == f"parse error: {message}\n".encode()
    assert elapsed < 0.5


def _is_assert(node) -> bool:
    """An `assert` statement, or a `raise AssertionError` in either form."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    package = Path(cli.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_assert(node)
    ]
    assert found == []


@pytest.mark.parametrize(
    "base, datum",
    [
        ("rp2", "[3];[3]"),  # d = 3, contains the full cycle [3]
        ("rp2", "[5,2];[4,3]"),  # case1
        ("rp2", "[3,2];[3,2]"),  # case2-table
        ("rp2", "[3,3,3,3,1];[3,3,3,3,1]"),  # case2-general
        ("rp2", "[6,1];[2,2,2,1]"),  # case3
        ("rp2", "[3,2];[3,2];[2,2,1]"),  # s = 3: reduction, then a pair
        ("rp2", "[3,1,1];[5]"),  # contains the full cycle [5]
        ("s2", "[3,1,1];[3,2];[3,2]"),  # sphere
    ],
)
def test_realize_output_is_the_same_under_optimize(base, datum):
    argv = ("realize", "--base", base, "--datum", datum)
    plain = _cli_process(*argv)
    optimized = _cli_process(*argv, optimize=True)
    assert plain.returncode == optimized.returncode == 0, plain.stderr
    assert plain.stdout == optimized.stdout
    assert plain.stdout.startswith(f"base: {base}\n".encode())


def _count_verifications(monkeypatch):
    """Count verify_certificate calls through every module binding of it."""
    calls = []
    original = realize.verify_certificate

    def counting(cert):
        calls.append(cert)
        return original(cert)

    for module in (realize, cli, oracle):
        if getattr(module, "verify_certificate", None) is original:
            monkeypatch.setattr(module, "verify_certificate", counting)
    return calls


def test_each_certificate_verified_once(monkeypatch, capsys):
    calls = _count_verifications(monkeypatch)
    constructed = sum(r.classification == "constructed" for r in oracle.census(7, 3))
    assert constructed > 0 and len(calls) == constructed

    calls.clear()
    code, _, err = run(capsys, "realize", "--base", "rp2", "--datum", "[3,2];[3,2]")
    assert code == 0 and len(calls) == 1
    assert err == "verified valid-indecomposable chi=-1\n"


def test_realize_failed_self_verification(monkeypatch, capsys):
    def decomposable(cert):
        return VerificationReport(True, True, True, False, 0, "valid-decomposable")

    monkeypatch.setattr(realize, "verify_certificate", decomposable)
    code, out, err = run(capsys, "realize", "--base", "rp2", "--datum", "[3,2];[3,2]")
    assert code == 1 and out == ""
    assert "self-verification failed: valid-decomposable" in err


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_each_result_checked_once(monkeypatch, capsys):
    """realize and census leave the check of a result to the verifier; only a
    pair (inside `two_datum_construct`) and the public `fundamental_construct`
    run the construction's own exit check."""
    construct.load_appendix_table()  # its rows are checked once, when loaded
    verifications = _count_verifications(monkeypatch)
    checks = _count_calls(monkeypatch, construct, "_check_construction")
    pairs = _count_calls(monkeypatch, construct, "two_datum_construct")

    constructed = sum(r.classification == "constructed" for r in oracle.census(7, 3))
    assert len(verifications) == constructed
    assert 0 < len(checks) == len(pairs) < constructed

    for log in (verifications, checks, pairs):
        log.clear()
    code, _, _ = run(capsys, "realize", "--base", "rp2", "--datum", "[3,2];[3,2];[2,2,1]")
    assert code == 0 and len(verifications) == 1 and len(checks) <= 1

    checks.clear()
    pairs.clear()
    P = Partition
    s4 = BranchDatum("rp2", 7, (P([3, 2, 2]), P([2, 2, 2, 1]), P([3, 3, 1]), P([2, 2, 2, 1])))
    construct.fundamental_construct(s4)
    assert len(pairs) == 1 and len(checks) == 2  # its own check and its pair's


def _even_cycle_product(us):
    """Join the product's two fixed points into a 2-cycle: [d-2,2] has no
    square root."""
    product = compose(*us)
    x, y = (p for p in product.domain if product(p) == p)
    return (*us[:-1], compose(us[-1], from_cycles([(x, y)], product.degree)))


def _rootless(product):
    """The same change made to a reported product."""
    return _even_cycle_product((product,))[0]


def _factor_out_of_class(us):
    """The same product, with the first two factors fused and an identity."""
    return (compose(us[0], us[1]), Permutation.identity(us[0].degree), *us[2:])


@pytest.mark.parametrize(
    "base, datum, fault",
    [
        ("rp2", "[3,2];[3,2];[2,2,1]", _even_cycle_product),
        ("rp2", "[3,2];[3,2];[2,2,1]", _factor_out_of_class),
        ("rp2", "[3,2];[3,2];[2,2,1]", "broken relation"),
        ("rp2", "[3,2,2];[2,2,2,1];[3,3,1];[2,2,2,1]", "misordered factors"),
        ("rp2", "[3,2];[3,2];[2,2,1]", "wrong product"),
        ("rp2", "[3,2];[3,2];[2,2,1]", "rootless product"),
        ("s2", "[3,1,1];[3,2];[3,2];[2,2,1]", _even_cycle_product),
        ("s2", "[3,1,1];[3,2];[3,2];[2,2,1]", _factor_out_of_class),
        ("s2", "[3,1,1];[3,2];[3,2];[2,2,1]", "wrong product"),
    ],
    ids=[
        "rp2-even-cycle",
        "rp2-out-of-class",
        "rp2-relation",
        "rp2-misordered",
        "rp2-wrong-product",
        "rp2-rootless-product",
        "s2-even-cycle",
        "s2-out-of-class",
        "s2-wrong-product",
    ],
)
def test_builder_defect_on_the_realize_path_exits_1(monkeypatch, capsys, base, datum, fault):
    """realize runs no construction check of its own on s >= 3 data, so a
    defect of the unchecked builder must meet the verifier: exit 1, no
    certificate, and never the parse error exit 3."""
    if fault == "broken relation":
        # the a-image no longer squares to the inverse of the product
        monkeypatch.setattr(realize, "sqrt_odd_cycle", lambda p: p)
    elif fault == "misordered factors":
        # every unwind step of the s = 4 loop leaves its factors reversed
        unwind = construct._unwind_step

        def misordered(stack, merged, h1, h2):
            unwind(stack, merged, h1, h2)
            stack.reverse()

        monkeypatch.setattr(construct, "_unwind_step", misordered)
    elif fault in ("wrong product", "rootless product"):
        # honest factors, but the product handed back with them is not theirs
        build = realize._build
        wrong = Permutation.inverse if fault == "wrong product" else _rootless

        def wrong_product(*args):
            us, product = build(*args)
            return us, wrong(product)

        monkeypatch.setattr(realize, "_build", wrong_product)
    else:
        # corrupted factors, reported with the honest product
        build = realize._build

        def corrupted(*args):
            us, product = build(*args)
            return fault(us), product

        monkeypatch.setattr(realize, "_build", corrupted)
    code, out, err = run(capsys, "realize", "--base", base, "--datum", datum)
    assert code == 1 and out == ""
    assert err.startswith("verification failure")


def test_check_table(capsys):
    code, out, _ = run(capsys, "check-table")
    assert code == 0
    assert "19/19" in out


def test_check_table_checks_each_row_once(capsys, monkeypatch):
    """A fresh load checks each golden row as it loads it, one primitivity
    verdict per row, and check-table checks nothing a second time."""
    calls = {"primitivity": 0, "is_transitive": 0}

    def counting(key, check):
        def wrapper(*args):
            calls[key] += 1
            return check(*args)

        return wrapper

    names = {
        "is_primitive": "primitivity",
        "primitivity_fast_path": "primitivity",
        "is_transitive": "is_transitive",
    }
    for module in (cli, construct, oracle, realize):
        for name, key in names.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    construct.load_appendix_table.cache_clear()
    code, out, _ = run(capsys, "check-table")
    assert (code, out) == (0, "19/19 appendix rows verified\n")
    assert calls == {"primitivity": 19, "is_transitive": 0}


def test_census_cli(capsys):
    code, out, _ = run(capsys, "census", "--degree", "5", "--max-s", "2", "--quiet")
    assert code == 0
    assert "6 constructed" in out

    code, _, err = run(capsys, "census", "--degree", "4", "--max-s", "2")
    assert code == 2


def test_census_out_streams_the_rows(tmp_path, capsys):
    out_file = tmp_path / "census.tsv"
    code, out, _ = run(
        capsys, "census", "--degree", "5", "--max-s", "2", "--out", str(out_file)
    )
    assert code == 0
    rows = out.splitlines()[:-1]
    assert out_file.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_census_unwritable_out_fails_before_any_datum(monkeypatch, tmp_path, capsys):
    calls = []
    original = oracle.realize_rp2

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "realize_rp2", counting)
    missing = tmp_path / "missing" / "x.tsv"
    code, out, err = run(capsys, "census", "--degree", "7", "--max-s", "3", "--out", str(missing))
    assert code == 3 and out == ""
    assert err.startswith("parse error:")
    assert calls == []


def test_single_branch_cli(capsys):
    code, out, _ = run(capsys, "single-branch", "--degree", "9")
    assert code == 0 and out.strip() == "decomposable"
    code, out, _ = run(capsys, "single-branch", "--degree", "7")
    assert code == 0 and out.strip() == "indecomposable"
    code, out, _ = run(capsys, "realize", "--base", "rp2", "--datum", "[5]")
    assert code == 0
    assert out == "base: rp2\ndegree: 5\ndatum: [5]\na: (1 3 5 2 4)\nu[1]: (1 2 3 4 5)\n"


def test_missing_certificate_file(capsys):
    code, _, err = run(capsys, "verify", "--certificate", "/nonexistent/cert.txt")
    assert code == 3


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_certificate_is_a_parse_error(tmp_path, capsys, kind):
    path = tmp_path / "cert"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(DECOMPOSABLE_CERT.encode().replace(b"rp2", b"rp\xff2"))
    code, out, err = run(capsys, "verify", "--certificate", str(path))
    assert code == 3 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_verify_cycle_repeating_a_label_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "cert"
    path.write_text(
        DECOMPOSABLE_CERT.replace("u[1]: (1 2 3 4 5 6 7 8 9)", "u[1]: (1 2 1 3 4 5 6 7 8 9)")
    )
    code, out, err = run(capsys, "verify", "--certificate", str(path))
    assert code == 3 and out == ""
    assert err.startswith("parse error: ") and "label 1 repeated" in err


@pytest.mark.parametrize(
    "line, field",
    [("a: (1 2)\n", "a"), ("degree: 7\n", "degree")],
    ids=["a", "degree"],
)
def test_verify_repeated_field_is_a_parse_error(tmp_path, capsys, line, field):
    """A wrong line ahead of the correct one is refused, not overwritten."""
    text = realize.certificate_to_text(
        realize.realize_rp2(construct.parse_datum("[3,2];[3,2]", "rp2"))
    )
    at = text.index(f"{field}: ")
    path = tmp_path / "cert"
    path.write_text(text[:at] + line + text[at:])
    code, out, err = run(capsys, "verify", "--certificate", str(path))
    assert code == 3 and out == ""
    assert err.startswith("parse error: ") and f"repeated field {field!r}" in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("u[1]:", "u[+1]:"),
        ("u[2]:", "u[0_2]:"),
        ("u[1]: (1 2)", "u[1]: (1 \uff12)"),
        ("degree: 4", "degree: +4"),
        ("[2,1,1];", "[2,+1,1];"),
    ],
    ids=["sign", "underscore", "fullwidth", "degree", "datum"],
)
def test_verify_numbers_are_ascii_digits(tmp_path, capsys, old, new):
    """Every number of a certificate is written in ASCII digits: a sign, an
    underscore or a non-ASCII digit, which `int` would take, is a parse
    error."""
    text = "base: s2\ndegree: 4\ndatum: [2,1,1];[2,1,1]\nu[1]: (1 2)\nu[2]: (1 2)\n"
    path = tmp_path / "cert"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--certificate", str(path))
    assert code == 1 and out.startswith("verdict=invalid ")  # intransitive
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--certificate", str(path))
    assert code == 3 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line, field",
    [("A: (1 2)\n", "A"), ("signature: trust me\n", "signature")],
    ids=["A", "signature"],
)
def test_verify_unknown_field_is_a_parse_error(tmp_path, capsys, line, field):
    """A line the format does not define is refused, not ignored."""
    text = realize.certificate_to_text(
        realize.realize_rp2(construct.parse_datum("[3,2];[3,2]", "rp2"))
    )
    path = tmp_path / "cert"
    path.write_text(text + line)
    code, out, err = run(capsys, "verify", "--certificate", str(path))
    assert code == 3 and out == ""
    assert err.startswith("parse error: ") and f"unknown field {field!r}" in err


def test_single_branch_negative_degree(capsys):
    code, out, err = run(capsys, "single-branch", "--degree", "-3")
    assert code == 2 and out == ""
    assert err.startswith("inadmissible: ")


@pytest.mark.parametrize(
    "args",
    [("--degree", "-3"), ("--degree", "5", "--max-s", "0"), ("--degree", "5", "--max-s", "-2")],
    ids=["negative-degree", "max-s-0", "max-s-negative"],
)
def test_census_negative_degree(capsys, args):
    code, out, err = run(capsys, "census", *args)
    assert code == 2 and out == ""
    assert err.startswith("inadmissible: census caps")


@pytest.mark.parametrize(
    "base, datum, reason",
    [
        ("rp2", "[2,2];[2,2]", "even degree out of scope"),
        ("rp2", "[3,1,1];[2,1,1,1]", "parity violation: nu=3 is odd"),
        ("rp2", "[2,1,1,1];[2,1,1,1]", "nu=2 below d-1=4"),
        ("rp2", "[3,1,1]", "nu=2 below d-1=4"),
        ("rp2", "[3,1,1];[3,1,1]", "boundary defect nu = d-1 without a full-cycle"),
        ("s2", "[3,1,1];[3,1,1];[2,2,1]", "nu=6 below 2d-2=8"),
    ],
)
def test_realize_names_the_gate_rejection(capsys, base, datum, reason):
    code, out, err = run(capsys, "realize", "--base", base, "--datum", datum)
    assert code == 2 and out == ""
    assert err.startswith("inadmissible: ") and reason in err


_CORRUPT_TABLE_THEN_CHECK = """\
import sys
from branchcover import cli, construct

parse = construct._parse_table

def corrupted(text):  # the first row's beta replaced by its lambda
    first, *rest = parse(text)
    return (first._replace(beta=first.lam), *rest)

construct._parse_table = corrupted
construct.load_appendix_table.cache_clear()
sys.exit(cli.main(["check-table"]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_corrupted_table_row_fails_check_table(optimize):
    proc = _python_process("-c", _CORRUPT_TABLE_THEN_CHECK, optimize=optimize)
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"table row 1" in proc.stderr
