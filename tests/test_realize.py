"""Gates, certificate assembly, the verifier, and the text format."""

import math
import random
import signal
from itertools import combinations_with_replacement

import pytest

from branchcover import construct, groups
from branchcover.construct import BranchDatum, parse_datum
from branchcover.errors import InadmissibleError, ParseError
from branchcover.oracle import census, partitions_of
from branchcover.perm import Partition, compose, identity, parse_cycles, sqrt_odd_cycle
from branchcover.realize import (
    HurwitzCertificate,
    admissible,
    certificate_from_text,
    certificate_to_text,
    euler_characteristic,
    realize_rp2,
    realize_sphere,
    verify_certificate,
)

P = Partition


def test_admissible_examples():
    ok, reason = admissible(parse_datum("[3,2];[3,2]", "rp2"))
    assert ok and reason == "strict"
    ok, reason = admissible(parse_datum("[3,1,1];[3,1,1]", "rp2"))
    assert ok and reason == "boundary"
    ok, reason = admissible(parse_datum("[2,1];[3]", "rp2"))
    assert not ok and "parity" in reason
    ok, reason = admissible(parse_datum("[3,1,1];[3,2];[3,2]", "s2"))
    assert ok
    ok, reason = admissible(parse_datum("[3,2];[3,2]", "s2"))
    assert not ok and "2d-2" in reason


def test_euler_characteristic_examples():
    assert euler_characteristic("rp2", 5, 6) == -1
    assert euler_characteristic("rp2", 5, 4) == 1  # boundary nu = d-1
    assert euler_characteristic("s2", 3, 4) == 2


def test_realize_rp2_line_one():
    cert = realize_rp2(parse_datum("[3,2];[3,2]", "rp2"))
    assert cert.a_image == parse_cycles("(1 3 5)", 5)
    product = compose(*cert.u_images)
    assert compose(cert.a_image, cert.a_image) == product.inverse()
    report = verify_certificate(cert)
    assert report.verdict == "valid-indecomposable"
    assert report.chi_M == -1


def test_realize_rp2_line_seven():
    cert = realize_rp2(parse_datum("[3,3,3];[3,3,3]", "rp2"))
    assert compose(*cert.u_images) == parse_cycles("(1 4 7 9 6 3 8)", 9)
    assert verify_certificate(cert).verdict == "valid-indecomposable"


def test_realize_rp2_gates():
    with pytest.raises(InadmissibleError):
        realize_rp2(parse_datum("[2,2];[2,2]", "rp2"))  # even degree
    with pytest.raises(InadmissibleError):
        realize_rp2(parse_datum("[3,1,1];[3,1,1]", "rp2"))  # boundary, no [d]
    with pytest.raises(InadmissibleError):
        realize_rp2(parse_datum("[9]", "rp2"))  # composite single branch point
    with pytest.raises(InadmissibleError):
        realize_rp2(parse_datum("[3,2];[3,2]", "s2"))  # wrong base tag


def test_realize_rp2_full_cycle_routes():
    for text, d in (("[5]", 5), ("[5];[5]", 5), ("[3,1,1];[5]", 5), ("[7];[2,2,1,1,1]", 7)):
        cert = realize_rp2(parse_datum(text, "rp2"))
        report = verify_certificate(cert)
        assert report.verdict == "valid-indecomposable", text
        total = compose(cert.a_image, cert.a_image, *cert.u_images)
        assert total.is_identity()


def _within(seconds, fn, *args):
    """fn(*args), failing with TimeoutError after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _random_partition(rng, d):
    """A partition of d with a log-uniform number of parts in 2..d-1."""
    k = min(max(round(math.exp(rng.uniform(math.log(2), math.log(d - 1)))), 2), d - 1)
    cuts = sorted(rng.sample(range(1, d), k - 1))
    return P([b - a for a, b in zip([0, *cuts], [*cuts, d])])


def _admissible_stream(seed, d, s):
    rng = random.Random(seed)
    while True:
        parts = tuple(_random_partition(rng, d) for _ in range(s))
        nu = sum(p.nu for p in parts)
        if nu % 2 == 0 and nu > d - 1:
            yield BranchDatum(base="rp2", degree=d, partitions=parts)


def test_realize_rp2_without_schedule_search_stalls():
    # [5,2^(4+j),1,1];[3^5,2^j], d = 15..31: no threading schedule exists
    # for the split route's piece, and finding that out must take no search
    for j in range(9):
        d = 15 + 2 * j
        datum = BranchDatum(
            base="rp2",
            degree=d,
            partitions=(P([5] + [2] * (4 + j) + [1, 1]), P([3] * 5 + [2] * j)),
        )
        cert = _within(10, realize_rp2, datum)
        assert verify_certificate(cert).verdict == "valid-indecomposable", d
    # s = 3 at d = 301: on data 1, 5 and 8 of this stream an exhaustive
    # schedule search runs for more than 10 s each
    stream = _admissible_stream(301, 301, 3)
    data = [next(stream) for _ in range(9)]
    for datum in (data[1], data[5], data[8]):
        cert = _within(10, realize_rp2, datum)
        assert cert.degree == 301 and cert.datum == datum


def test_realize_rp2_odd_reduction_needs_no_search():
    # datum 13 of a seeded s = 3, d = 101 stream: merging its first two
    # partitions needs an odd-r reduction, which a random defect search
    # cannot find at this degree
    datum = BranchDatum(
        base="rp2",
        degree=101,
        partitions=(
            P([6] + [4] * 3 + [3] * 3 + [2] * 9 + [1] * 56),
            P([12, 11, 9, 7, 6, 6, 5, 5, 4] + [3] * 7 + [2] * 4 + [1] * 7),
            P([44, 27, 16, 14]),
        ),
    )
    cert = _within(10, realize_rp2, datum)
    assert verify_certificate(cert).verdict == "valid-indecomposable"


def test_realize_sphere_example():
    cert = realize_sphere(parse_datum("[3,1,1];[3,2];[3,2]", "s2"))
    assert cert.u_images[0] == parse_cycles("(1 5 3)", 5)
    assert compose(*cert.u_images).is_identity()
    report = verify_certificate(cert)
    assert report.verdict == "valid-indecomposable"


def test_realize_sphere_bigger():
    cert = realize_sphere(parse_datum("[7,1,1];[7,1,1];[3,3,3]", "s2"))
    assert verify_certificate(cert).verdict == "valid-indecomposable"


def test_realize_sphere_gates():
    with pytest.raises(InadmissibleError):
        realize_sphere(parse_datum("[3,1,1]", "s2"))  # nu below 2d-2
    with pytest.raises(InadmissibleError):
        realize_sphere(parse_datum("[3,2];[3,2];[3,2]", "s2"))  # wrong head
    with pytest.raises(InadmissibleError):
        realize_sphere(parse_datum("[3,1,1];[3,2];[3,2]", "rp2"))


def test_verifier_tamper_detection():
    cert = realize_rp2(parse_datum("[3,2];[3,2]", "rp2"))
    # replace one u-image by the identity-conjugate of the wrong class
    bad = HurwitzCertificate(
        base=cert.base,
        degree=cert.degree,
        datum=cert.datum,
        a_image=cert.a_image,
        u_images=(cert.u_images[0], parse_cycles("(1 2 3 4 5)", 5)),
    )
    report = verify_certificate(bad)
    assert report.verdict.startswith("invalid")

    # tampered a-line: relation must fail
    bad_a = HurwitzCertificate(
        base=cert.base,
        degree=cert.degree,
        datum=cert.datum,
        a_image=parse_cycles("(1 2)", 5),
        u_images=cert.u_images,
    )
    report = verify_certificate(bad_a)
    assert not report.relation_ok
    assert report.verdict == "invalid" and report.reason == "relation violated"


def test_verifier_valid_decomposable_cyclic():
    gamma = parse_cycles("(1 2 3 4 5 6 7 8 9)", 9)
    a = sqrt_odd_cycle(gamma.inverse())
    cert = HurwitzCertificate(
        base="rp2",
        degree=9,
        datum=parse_datum("[9]", "rp2"),
        a_image=a,
        u_images=(gamma,),
    )
    report = verify_certificate(cert)
    assert report.relation_ok and report.transitive and not report.primitive
    assert report.verdict == "valid-decomposable"


def test_verdicts_search_orbits_once(monkeypatch):
    searches = []
    original = groups.orbits

    def counting(gens):
        searches.append(gens)
        return original(gens)

    monkeypatch.setattr(groups, "orbits", counting)
    cert = realize_rp2(parse_datum("[3,2];[3,2]", "rp2"))
    searches.clear()
    assert verify_certificate(cert).verdict == "valid-indecomposable"
    assert len(searches) == 1
    searches.clear()
    gamma = parse_cycles("(1 2 3 4 5 6 7 8 9)", 9)
    assert groups.decomposability_verdict([gamma])[0] == "decomposable"
    assert len(searches) == 1


def test_verifier_chi_arithmetic():
    cert = realize_rp2(parse_datum("[3,2];[3,2];[2,2,1]", "rp2"))
    report = verify_certificate(cert)
    assert report.chi_M == 5 - 8 == -3
    assert report.chi_M <= 0


def test_certificate_text_round_trip():
    for text, base in (("[3,2];[3,2]", "rp2"), ("[3,1,1];[3,2];[3,2]", "s2")):
        datum = parse_datum(text, base)
        cert = realize_rp2(datum) if base == "rp2" else realize_sphere(datum)
        blob = certificate_to_text(cert)
        assert blob.endswith("\n") and "\r" not in blob
        back = certificate_from_text(blob)
        assert back == cert
        assert certificate_to_text(back) == blob


def test_certificate_format_exact():
    cert = realize_rp2(parse_datum("[3,2];[3,2]", "rp2"))
    assert certificate_to_text(cert) == (
        "base: rp2\n"
        "degree: 5\n"
        "datum: [3,2];[3,2]\n"
        "a: (1 3 5)\n"
        "u[1]: (1 2 3)(4 5)\n"
        "u[2]: (1 5 4)(2 3)\n"
    )


def test_certificate_parse_errors():
    with pytest.raises(ParseError):
        certificate_from_text("degree: 5\n")
    with pytest.raises(ParseError):
        certificate_from_text("base: rp2\ndegree: 5\ndatum: [3,2];[3,2]\nnonsense\n")
    with pytest.raises(ParseError):
        certificate_from_text(
            "base: rp2\ndegree: 5\ndatum: [3,2];[3,2]\na: ()\nu[2]: ()\n"
        )


def test_certificate_structural_invariants():
    datum = parse_datum("[3,2];[3,2]", "rp2")
    with pytest.raises(ParseError):
        HurwitzCertificate(
            base="rp2", degree=5, datum=datum, a_image=None, u_images=(identity(5),) * 2
        )
    with pytest.raises(ParseError):
        HurwitzCertificate(
            base="s2",
            degree=5,
            datum=BranchDatum("s2", 5, datum.partitions),
            a_image=identity(5),
            u_images=(identity(5),) * 2,
        )


def _gate_rejects(datum):
    try:
        construct._require_constructible(datum)
    except InadmissibleError:
        return True
    return False


def _census_class(datum):
    ok, kind = admissible(datum)
    if not ok:
        return "inadmissible"
    return "boundary" if kind == "boundary" else "constructed"


def test_realize_and_census_agree_with_the_gate():
    """Over every rp2 datum with d <= 9 and s <= 3: realize_rp2 raises
    InadmissibleError exactly when the gate rejects the datum, or when it is
    a single branch point [d] of composite degree; census classifies
    each datum as admissible() does."""
    checked = 0
    for d in range(2, 10):
        if d % 2 == 0:  # census refuses even degrees
            usable = [p for p in partitions_of(d) if not p.is_trivial()]
            data = [
                BranchDatum("rp2", d, combo)
                for s in (1, 2, 3)
                for combo in combinations_with_replacement(usable, s)
            ]
            built = set()
        else:
            rows = list(census(d, 3))
            data = [parse_datum(row.datum, "rp2") for row in rows]
            assert [row.classification for row in rows] == list(map(_census_class, data))
            built = {row.datum for row in rows if row.classification == "constructed"}
        for datum in data:
            try:
                if str(datum) not in built:  # census realized the others
                    realize_rp2(datum)
                raised = False
            except InadmissibleError:
                raised = True
            # [9] is the only single branch point of composite odd degree here
            assert raised == (_gate_rejects(datum) or str(datum) == "[9]"), str(datum)
            checked += 1
    assert checked > 5000
