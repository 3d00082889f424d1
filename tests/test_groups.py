"""Orbits, blocks, primitivity, and the decomposability verdict."""

import random

import pytest

from branchcover import groups
from branchcover.groups import (
    GroupError,
    IntransitiveError,
    _block_closure,
    decomposability_verdict,
    is_primitive,
    is_transitive,
    minimal_block,
    orbits,
    primitivity_fast_path,
)
from branchcover.perm import Permutation, identity, parse_cycles


def gens(*texts, d):
    return [parse_cycles(t, d) for t in texts]


def test_orbits_examples():
    assert orbits(gens("(1 2 3)(4 5)", d=5)) == ((1, 2, 3), (4, 5))
    assert orbits([identity(3)]) == ((1,), (2,), (3,))
    line1 = gens("(1 2 3)(4 5)", "(5 4 1)(3 2)", d=5)
    assert orbits(line1) == ((1, 2, 3, 4, 5),)


def test_is_transitive_examples():
    line7 = gens("(1 2 3)(4 5 6)(7 8 9)", "(3 2 4)(6 5 7)(1 8 9)", d=9)
    assert is_transitive(line7)
    assert not is_transitive([identity(2)])
    assert not is_transitive(gens("(1 2)", "(3 4)", d=4))


def test_minimal_block_examples():
    assert minimal_block(gens("(1 2 3 4)", d=4), (1, 3)) == (1, 3)
    sym = gens("(1 2)", "(1 2 3 4)", d=4)
    assert minimal_block(sym, (1, 2)) == (1, 2, 3, 4)
    assert minimal_block(gens("(1 2 3 4 5 6)", d=6), (1, 4)) == (1, 4)
    with pytest.raises(GroupError):
        minimal_block(gens("(1 2)", d=4), (1, 2))
    with pytest.raises(GroupError):
        minimal_block(sym, (2, 2))


def test_minimal_block_closure_invariant():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(3, 8)
        while True:
            gs = [
                Permutation(tuple(rng.sample(range(1, d + 1), d))) for _ in range(2)
            ]
            if is_transitive(gs):
                break
        x = rng.randint(2, d)
        block = set(minimal_block(gs, (1, x)))
        for g in gs:
            image = {g(y) for y in block}
            assert image == block or not (image & block)


def test_is_primitive_examples():
    prim, witness = is_primitive(gens("(1 2 3 4)", d=4))
    assert not prim
    assert witness.block_size == 2
    assert set(witness.blocks) == {(1, 3), (2, 4)}
    prim, witness = is_primitive(gens("(1 2)", "(1 2 3)", d=3))
    assert prim and witness is None
    line13 = gens(
        "(1 2 3)(4 5 6)(7 8 9)(10 11)", "(3 2 4)(6 5 7)(8 9 10)(1 11)", d=11
    )
    assert is_primitive(line13)[0]


def test_is_primitive_preconditions():
    with pytest.raises(GroupError):
        is_primitive(gens("(1 2)", d=4))
    with pytest.raises(GroupError):
        is_primitive([identity(1)])


def test_every_entry_raises_intransitive_error_for_an_intransitive_span():
    gs = gens("(1 2)", d=4)
    with pytest.raises(IntransitiveError):
        is_primitive(gs)
    with pytest.raises(IntransitiveError):
        minimal_block(gs, (1, 2))
    with pytest.raises(IntransitiveError):
        primitivity_fast_path(gs, 3)
    with pytest.raises(IntransitiveError):
        decomposability_verdict(gs)


def _reference_classes(gs, a, b):
    """The finest equivalence with a ~ b that is closed under every generator
    and its inverse, grown naively to a fixpoint; None when it is one class."""
    dom = gs[0].domain
    cls = {x: x for x in dom}
    maps = list(gs) + [g.inverse() for g in gs]

    def merge(u, v):
        old, new = cls[v], cls[u]
        for x in dom:
            if cls[x] == old:
                cls[x] = new

    merge(a, b)
    changed = True
    while changed:
        changed = False
        for g in maps:
            for x in dom:
                for y in dom:
                    if cls[x] == cls[y] and cls[g(x)] != cls[g(y)]:
                        merge(g(x), g(y))
                        changed = True
    classes = {}
    for x in dom:
        classes.setdefault(cls[x], []).append(x)
    if len(classes) == 1:
        return None
    return tuple(sorted(tuple(sorted(c)) for c in classes.values()))


def _random_gens(rng, dom, k):
    """k random permutations of dom; about half the time, when len(dom) has
    a proper divisor m, all of them keep one random system of m-blocks."""
    d = len(dom)
    sizes = [m for m in range(2, d) if d % m == 0]
    if not sizes or rng.random() < 0.5:
        return [Permutation(tuple(rng.sample(dom, d)), dom) for _ in range(k)]
    m = rng.choice(sizes)
    shuffled = rng.sample(dom, d)
    blocks = [shuffled[i : i + m] for i in range(0, d, m)]
    out = []
    for _ in range(k):
        mapping = {}
        for src, dst in zip(blocks, rng.sample(blocks, len(blocks))):
            mapping.update(zip(src, rng.sample(dst, m)))
        out.append(Permutation.from_mapping(mapping, dom))
    return out


@pytest.mark.parametrize("gapped", [False, True])
def test_forward_closure_matches_the_two_sided_reference(gapped):
    """`_block_closure` on forward tables alone gives the classes of the
    closure under generators and inverses, and `is_primitive`'s witness is
    the reference system of the first x in scan order."""
    primes = (2, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    rng = random.Random(29 if gapped else 23)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        d = rng.randint(2, 10)
        dom = list(primes[:d] if gapped else range(1, d + 1))
        gs = _random_gens(rng, dom, rng.randint(1, 3))
        tables = [g._index_table() for g in gs]
        i, j = rng.sample(range(d), 2)
        ref = _reference_classes(gs, dom[i], dom[j])
        assert _block_closure(tables, tuple(dom), i, j) == ref
        if d < 3 or not is_transitive(gs):
            continue
        expected = None
        for x in dom[1:]:
            expected = _reference_classes(gs, dom[0], x)
            if expected is not None:
                break
        prim, witness = is_primitive(gs)
        verdicts[prim] += 1
        assert prim == (expected is None)
        if not prim:
            assert witness.blocks == expected
            assert witness.block_size == len(expected[0])
    assert min(verdicts.values()) >= 20


@pytest.mark.parametrize("gapped", [False, True])
@pytest.mark.parametrize("d", [5, 7, 11, 13])
def test_prime_degree_needs_no_closure(monkeypatch, d, gapped):
    """At prime d the verdict of a transitive set is the closure scan's
    without running a closure; an intransitive set still raises."""
    dom = tuple(range(3, 3 * d + 3, 3)) if gapped else tuple(range(1, d + 1))
    rng = random.Random(d)
    sets = []
    while len(sets) < 10:
        gs = _random_gens(rng, list(dom), rng.randint(1, 3))
        if is_transitive(gs):
            sets.append(gs)
    scans = []
    for gs in sets:
        tables = [g._index_table() for g in gs]
        scans.append(all(_block_closure(tables, dom, 0, x) is None for x in range(1, d)))

    def no_closure(*args):
        raise AssertionError("closure run at prime degree")

    monkeypatch.setattr(groups, "_block_closure", no_closure)
    assert [is_primitive(gs) for gs in sets] == [(prim, None) for prim in scans]
    transposition = Permutation.from_mapping({dom[0]: dom[1], dom[1]: dom[0]}, dom)
    with pytest.raises(IntransitiveError):
        is_primitive([transposition])


def test_primitivity_fast_path_examples():
    gens5 = gens("(1 2 3)", "(1 2 3 4 5)", d=5)
    assert primitivity_fast_path(gens5, 3) is True
    gens9 = gens("(1 2 3 4 5 6 7)", "(1 2 3 4 5 6 7 8 9)", d=9)
    assert primitivity_fast_path(gens9, 7) is True
    assert primitivity_fast_path(gens9, 3) is None
    assert primitivity_fast_path(gens9, 9) is None


def test_fast_path_needs_an_l_cycle_in_the_group():
    # l is coprime to d and above every proper divisor, but no element
    # checked holds an l-cycle: the cyclic groups here are imprimitive
    for texts, d, l in (("(1 2 3 4 5 6 7 8 9)", 9, 5), ("(1 2 3 4)", 4, 3)):
        gs = gens(texts, d=d)
        assert not is_primitive(gs)[0]
        assert primitivity_fast_path(gs, l) is None
    # (1 2 3 4 5)(6 7) squared is a 5-cycle
    assert primitivity_fast_path(gens("(1 2 3 4 5)(6 7)", "(1 7)", d=7), 5) is True
    # the product (1 2 3)(4 5 6) * (1 3 2 4)(5 7) has type [5,1,1]
    assert primitivity_fast_path(gens("(1 2 3)(4 5 6)", "(1 3 2 4)(5 7)", d=7), 5) is True
    # two 5-cycles in one generator: no power isolates one
    assert primitivity_fast_path(gens("(1 2 3 4 5)(6 7 8 9 10)", "(1 6 11)", d=11), 5) is None


def test_fast_path_never_contradicts_exact():
    rng = random.Random(13)
    for _ in range(150):
        d = rng.randint(3, 8)
        while True:
            gs = [
                Permutation(tuple(rng.sample(range(1, d + 1), d))) for _ in range(2)
            ]
            if is_transitive(gs):
                break
        for g in gs:
            for cyc in g.nontrivial_cycles():
                fast = primitivity_fast_path(gs, len(cyc))
                if fast is True:
                    assert is_primitive(gs)[0]


def test_decomposability_verdict_examples():
    verdict, witness = decomposability_verdict(gens("(1 2 3 4 5 6 7 8 9)", d=9))
    assert verdict == "decomposable"
    assert witness.block_size in (3,)
    line1 = gens("(1 2 3)(4 5)", "(5 4 1)(3 2)", d=5)
    assert decomposability_verdict(line1) == ("indecomposable", None)
    assert decomposability_verdict(gens("(1 2 3 4 5)", d=5)) == ("indecomposable", None)
    with pytest.raises(GroupError):
        decomposability_verdict(gens("(1 2)", d=4))
