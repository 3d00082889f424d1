"""Brute-force oracles and the census."""

import hashlib
import random
from itertools import combinations_with_replacement

import pytest

from branchcover import construct, eks, groups, oracle, perm, realize
from branchcover.construct import parse_datum
from branchcover.errors import InadmissibleError
from branchcover.groups import is_primitive, is_transitive
from branchcover.oracle import (
    brute_force_two_datum,
    census,
    exhaustive_blocks,
    partitions_of,
)
from branchcover.perm import Partition, Permutation, compose, parse_cycles
from branchcover.realize import certificate_to_text, realize_rp2

P = Partition


def test_partitions_of():
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(partitions_of(11)) == 56


def test_brute_force_examples():
    got = brute_force_two_datum(P([3, 2]), P([3, 2]), P([3, 1, 1]))
    assert got is not None
    lam, beta = got
    assert compose(lam, beta).cycle_type() == P([3, 1, 1])
    assert is_transitive([lam, beta])

    assert brute_force_two_datum(P([2, 1]), P([2, 1]), P([1, 1, 1])) is None

    got = brute_force_two_datum(P([3]), P([3]), P([1, 1, 1]))
    assert got is not None
    lam, beta = got
    assert beta == lam.inverse()

    with pytest.raises(ValueError):
        brute_force_two_datum(P([11]), P([11]), P([9, 1, 1]))


def test_brute_force_deterministic():
    a = brute_force_two_datum(P([3, 2, 2]), P([3, 2, 2]), P([5, 1, 1]))
    b = brute_force_two_datum(P([3, 2, 2]), P([3, 2, 2]), P([5, 1, 1]))
    assert a == b


def test_exhaustive_blocks_examples():
    g4 = [parse_cycles("(1 2 3 4)", 4)]
    systems = exhaustive_blocks(g4)
    sizes = sorted(s.block_size for s in systems)
    assert sizes == [1, 2, 4]
    two = next(s for s in systems if s.block_size == 2)
    assert set(two.blocks) == {(1, 3), (2, 4)}

    sym = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
    assert sorted(s.block_size for s in exhaustive_blocks(sym)) == [1, 4]

    g6 = [parse_cycles("(1 2 3 4 5 6)", 6)]
    assert sorted(s.block_size for s in exhaustive_blocks(g6)) == [1, 2, 3, 6]

    with pytest.raises(ValueError):
        exhaustive_blocks([parse_cycles("(1 2)", 9)])


def test_blocks_agree_with_primitivity_on_random_sets():
    rng = random.Random(42)
    for _ in range(200):
        d = rng.randint(2, 8)
        while True:
            gens = [
                Permutation(tuple(rng.sample(range(1, d + 1), d)))
                for _ in range(rng.randint(1, 3))
            ]
            if is_transitive(gens):
                break
        systems = exhaustive_blocks(gens)
        nontrivial = [s for s in systems if 1 < s.block_size < d]
        prim, witness = is_primitive(gens)
        assert prim == (not nontrivial)
        if witness is not None:
            assert any(set(s.blocks) == set(witness.blocks) for s in systems)


def _wreath(m, k):
    """Generators of S_m wr S_k on k blocks of m consecutive labels."""
    d = m * k
    swap = {j + 1: m + j + 1 for j in range(m)}
    swap.update({y: x for x, y in swap.items()})
    return [
        Permutation.from_mapping({1: 2, 2: 1}, d),
        Permutation.from_mapping({j + 1: (j + 1) % m + 1 for j in range(m)}, d),
        Permutation.from_mapping(swap, d),
        Permutation.from_mapping({x: (x + m - 1) % d + 1 for x in range(1, d + 1)}, d),
    ]


def _dihedral_regular(n):
    """D_n acting on itself by right multiplication; r^k s^f has label
    k + n*f + 1."""
    r = {k + n * f + 1: (k + (1 - 2 * f)) % n + n * f + 1 for k in range(n) for f in (0, 1)}
    s = {k + n * f + 1: k + n * (1 - f) + 1 for k in range(n) for f in (0, 1)}
    return [Permutation.from_mapping(r, 2 * n), Permutation.from_mapping(s, 2 * n)]


def _assert_invariant(witness, gens):
    blocks = set(witness.blocks)
    for g in gens:
        for block in witness.blocks:
            assert tuple(sorted(g(x) for x in block)) in blocks


def test_exact_primitivity_on_imprimitive_groups():
    groups = [_wreath(2, 3), _wreath(3, 2), _wreath(2, 4)]
    groups += [
        [Permutation.from_mapping({x: x % d + 1 for x in range(1, d + 1)}, d)]
        for d in range(2, 9)
    ]
    groups += [_dihedral_regular(n) for n in (2, 3, 4)]
    for gens in groups:
        d = gens[0].degree
        assert is_transitive(gens)
        systems = exhaustive_blocks(gens)
        nontrivial = [s for s in systems if 1 < s.block_size < d]
        prim, witness = is_primitive(gens)
        assert prim == (not nontrivial)
        if witness is not None:
            assert witness in systems
            _assert_invariant(witness, gens)


def test_exact_primitivity_on_a_large_wreath_product():
    gens = _wreath(3, 67)
    prim, witness = is_primitive(gens)
    assert not prim
    assert witness.block_size == 3
    assert witness.blocks == tuple((x, x + 1, x + 2) for x in range(1, 202, 3))
    _assert_invariant(witness, gens)


def test_verify_appendix_table():
    construct.load_appendix_table.cache_clear()  # each load checks every row
    rows = construct.load_appendix_table()
    assert len(rows) == 19
    assert all(is_primitive([r.lam, r.beta])[0] for r in rows)


def test_census_small():
    rows = list(census(5, 2))
    by_class = {}
    for row in rows:
        by_class.setdefault(row.classification, []).append(row)
    assert len(by_class["constructed"]) == 6
    assert all(r.nu > 4 and r.nu % 2 == 0 for r in by_class["constructed"])
    boundary = {r.datum for r in by_class["boundary"]}
    assert "[5]" in boundary
    assert "[3,1,1];[3,1,1]" in boundary
    assert all(r.millis >= 0 for r in rows)


def test_census_caps():
    with pytest.raises(InadmissibleError):
        list(census(4, 2))
    with pytest.raises(InadmissibleError):
        list(census(15, 2))
    with pytest.raises(InadmissibleError):
        list(census(5, 5))


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_memo_keeps_certificates_byte_identical(seed):
    """One memo shared across a whole census sweep changes no certificate."""
    rows = census(7, 3)
    data = [parse_datum(r.datum, "rp2") for r in rows if r.classification == "constructed"]
    shared = {}
    for datum in data:
        alone = certificate_to_text(realize_rp2(datum, seed))
        assert certificate_to_text(realize_rp2(datum, seed, memo=shared)) == alone
    assert shared  # the sweep went through the memo


def test_census_row_text_is_the_datum_text():
    rows = list(census(9, 3))
    columns = "\n".join(f"{r.datum}|{r.nu}|{r.classification}" for r in rows)
    # pinned, so formatting the row text another way cannot move a column
    digest = "7ece2a127affc61578115e048d36a9884525fc9707803aedda8eab3eb8f475ed"
    assert hashlib.sha256(columns.encode()).hexdigest() == digest
    for r in rows:
        assert r.datum == str(parse_datum(r.datum, "rp2"))


@pytest.mark.parametrize("d", [5, 7, 9])
def test_census_classifies_as_admissible_does(monkeypatch, d):
    """The census classifies a row from nu before it builds anything; its
    rows are those of a sweep that classifies each datum through
    `admissible(BranchDatum(...))`, and it makes a `BranchDatum` only for a
    row that it constructs."""
    usable = [p for p in partitions_of(d) if not p.is_trivial()]
    reference = []
    for s in (1, 2, 3):
        for combo in combinations_with_replacement(usable, s):
            datum = construct.BranchDatum("rp2", d, combo)
            ok, kind = construct.admissible(datum)
            cls = "constructed" if ok and kind == "strict" else kind if ok else "inadmissible"
            reference.append((str(datum), datum.nu, cls))
    made = []

    def counting(*args, **kwargs):
        made.append(construct.BranchDatum(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(oracle, "BranchDatum", counting)
    rows = [(r.datum, r.nu, r.classification) for r in census(d, 3)]
    assert rows == reference
    assert len(made) == sum(cls == "constructed" for _, _, cls in rows) > 0


def test_census_shares_pairs_within_one_call_only(monkeypatch):
    calls = []
    original = construct.two_datum_construct

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(construct, "two_datum_construct", counting)
    first = sum(row.classification == "constructed" for row in census(7, 3))
    per_call = len(calls)
    calls.clear()
    assert sum(row.classification == "constructed" for row in census(7, 3)) == first
    assert len(calls) == per_call
    # within a call each distinct pair is built once
    assert 0 < per_call == len(set(calls)) < first


def test_census_settles_most_verdicts_from_a_shared_subgroup(monkeypatch):
    """The census no longer shares subgroup verdicts between certificates:
    each certificate's own (d-2)-cycle settles its verdict, so over a
    `census(7, 3)` call the verifier runs the exact test for none of the
    certificates, fewer than half of them, and a second call does the same."""
    calls = []
    original = realize.is_primitive

    def counting(gens):
        calls.append(gens)
        return original(gens)

    monkeypatch.setattr(realize, "is_primitive", counting)
    constructed = sum(row.classification == "constructed" for row in census(7, 3))
    per_call = len(calls)
    calls.clear()
    assert sum(row.classification == "constructed" for row in census(7, 3)) == constructed
    assert len(calls) == per_call
    assert 0 == per_call < constructed / 2


def _counted(log, fn):
    def counting(*args):
        log.append(args)
        return fn(*args)

    return counting


def test_census_verifies_each_certificate_with_one_orbit_walk(monkeypatch):
    """Every census certificate carries the construction's (d-2)-cycle, so
    over a `census(9, 3)` call the verifier settles each one with one orbit
    walk: no block closure and no `is_primitive` run, and the verifier
    composes no product."""
    verifying, closures, tests, walks, products = [], [], [], [], []
    original = realize.verify_certificate

    def verify(*args, **kwargs):
        verifying.append(args)
        try:
            return original(*args, **kwargs)
        finally:
            verifying.pop()

    def inside(log, fn):
        def counting(*args):
            if verifying:
                log.append(args)
            return fn(*args)

        return counting

    monkeypatch.setattr(realize, "verify_certificate", verify)
    monkeypatch.setattr(groups, "_block_closure", _counted(closures, groups._block_closure))
    monkeypatch.setattr(realize, "is_primitive", _counted(tests, realize.is_primitive))
    monkeypatch.setattr(groups, "_reaches_all", inside(walks, groups._reaches_all))
    for module in (perm, groups, eks, construct, realize):
        if getattr(module, "compose", None) is perm.compose:
            monkeypatch.setattr(module, "compose", inside(products, perm.compose))
    constructed = sum(row.classification == "constructed" for row in census(9, 3))
    assert constructed == 2322
    assert closures == [] and tests == [] and products == []
    assert len(walks) == constructed


def test_census_derives_each_relabelling_and_square_root_once_per_call(monkeypatch):
    """Within one census call `conjugator_matching` (the relabelling of a
    merged pair), `sqrt_odd_cycle` (the a-image) and `eks_merge` (the merge
    of a reduction step; an odd step's merge onto B' is the even step's
    merge onto B') run once per distinct input, fewer times than there are
    constructed s = 3 data."""
    calls = {}
    targets = (
        (construct, "conjugator_matching"),
        (realize, "sqrt_odd_cycle"),
        (eks, "eks_merge"),
    )
    for module, name in targets:
        calls[name] = []
        monkeypatch.setattr(module, name, _counted(calls[name], getattr(module, name)))

    def sweep():
        rows = list(census(7, 3))
        s3 = sum(r.classification == "constructed" and r.datum.count(";") == 2 for r in rows)
        counts = {name: len(log) for name, log in calls.items()}
        for name, log in calls.items():
            assert 0 < len(log) == len(set(log)) < s3, name
            log.clear()
        return counts

    assert sweep() == sweep()  # a second call derives everything again


def test_verifier_composes_once_per_distinct_subgroup(monkeypatch):
    """The verifier keeps no merged-subgroup verdicts, so it composes no
    merged product at all: over each of two `census(7, 3)` calls it composes
    none, fewer than once per distinct subgroup, while the census still
    constructs and verifies its s = 3 data."""
    verifying, products = [], []
    original, product = realize.verify_certificate, perm.compose

    def verify(*args, **kwargs):
        verifying.append(args)
        try:
            return original(*args, **kwargs)
        finally:
            verifying.pop()

    def composing(*perms):
        if verifying:
            products.append(perms)
        return product(*perms)

    monkeypatch.setattr(realize, "verify_certificate", verify)
    for module in (perm, groups, eks, construct, realize):
        if getattr(module, "compose", None) is product:
            monkeypatch.setattr(module, "compose", composing)

    def sweep():
        rows = list(census(7, 3))
        s3 = sum(r.classification == "constructed" and r.datum.count(";") == 2 for r in rows)
        assert 0 == len(products) < s3
        return s3

    assert sweep() == sweep()


def test_census_builds_each_nu_ordered_pair_once(monkeypatch):
    """Above degree 3 `two_datum_construct(D1, D2)` with nu(D1) < nu(D2)
    builds the pair for (D2, D1) and swaps it, so one census call builds
    each pair once for both orders: as many pair builds as distinct
    nu-ordered pairs, none of them with the smaller defect first."""
    calls = []
    original = construct.two_datum_construct

    def counting(D1, D2, seed=0):
        calls.append((D1, D2, seed))
        return original(D1, D2, seed)

    monkeypatch.setattr(construct, "two_datum_construct", counting)
    rows = list(census(9, 3))
    ordered = {(D2, D1, s) if D1.nu < D2.nu else (D1, D2, s) for D1, D2, s in calls}
    assert len(calls) == len(ordered) == 157
    assert all(D1.nu >= D2.nu for D1, D2, _ in calls)
    assert sum(r.classification == "constructed" for r in rows) == 2322
