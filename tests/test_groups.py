"""Transitivity, blocks and primitivity."""

import random

import pytest

from branchcover import groups
from branchcover.groups import (
    GroupError,
    IntransitiveError,
    _block_closure,
    is_primitive,
    is_transitive,
    primitivity_fast_path,
)
from branchcover.perm import Permutation, compose, identity, parse_cycles


def gens(*texts, d):
    return [parse_cycles(t, d) for t in texts]


def orbits(gs):
    """Orbit partition of the points under the generated group, as sorted
    label tuples ordered by their smallest label: the reference that the
    counting walk of `is_transitive` is compared against."""
    dom = gs[0].domain
    tables = [g._table for g in gs]
    seen = bytearray(len(dom))
    out = []
    for start in range(len(dom)):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for x in orbit:  # the list grows while it is walked
            for t in tables:
                y = t[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        orbit.sort()
        out.append(tuple(dom[i] for i in orbit))
    return tuple(out)


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
        classes = _block_closure([g._table for g in gs], gs[0].domain, 0, x - 1)
        # classes[0] is the class of the first point, 1
        block = set(range(1, d + 1)) if classes is None else set(classes[0])
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
        primitivity_fast_path(gs, 3)


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
    if not any(d % m == 0 for m in range(2, d)) or rng.random() < 0.5:
        return [Permutation(tuple(rng.sample(dom, d)), dom) for _ in range(k)]
    return _wreath_gens(rng, dom, k)


def _wreath_gens(rng, dom, k):
    """k random permutations of dom that all keep one random system of
    m-blocks, m a random proper divisor of len(dom)."""
    d = len(dom)
    m = rng.choice([m for m in range(2, d) if d % m == 0])
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
        tables = [g._table for g in gs]
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
        tables = [g._table for g in gs]
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


def _witness_gen(rng, d, kind, blocks):
    """A random permutation of 1..d of one kind: a (d-2)-cycle, any
    permutation, or one that keeps the system ``blocks``."""
    if kind == "cycle":
        pts = rng.sample(range(1, d + 1), d - 2)
        return Permutation.from_mapping(dict(zip(pts, pts[1:] + pts[:1])), d)
    if kind == "blocks" and blocks:
        mapping = {}
        for src, dst in zip(blocks, rng.sample(blocks, len(blocks))):
            mapping.update(zip(src, rng.sample(dst, len(dst))))
        return Permutation.from_mapping(mapping, d)
    return Permutation(tuple(rng.sample(range(1, d + 1), d)), d)


def test_witness_cycle_never_calls_an_imprimitive_group_primitive():
    """On transitive sets of (d-2)-cycles, random and block-keeping
    permutations at odd d from 5 to 27, `_witness_cycle` answers True for
    no length l of a group that `is_primitive` finds imprimitive.  Each
    guard matters: in a block-keeping set a d-cycle has gcd(d, d) = d, and
    a transposition or an m-cycle inside a block of size m has l no larger
    than a proper divisor of d."""
    rng = random.Random(27)
    transitive = imprimitive = hits = 0
    for d in range(5, 28, 2):
        sizes = [m for m in range(2, d) if d % m == 0]
        for _ in range(300):
            blocks = None
            if sizes:
                m = rng.choice(sizes)
                shuffled = rng.sample(range(1, d + 1), d)
                blocks = [shuffled[i : i + m] for i in range(0, d, m)]
            kinds = rng.choices(("cycle", "random", "blocks"), (1, 1, 6), k=rng.randint(2, 3))
            gs = [_witness_gen(rng, d, kind, blocks) for kind in kinds]
            if not is_transitive(gs):
                continue
            transitive += 1
            prim = is_primitive(gs)[0]
            imprimitive += not prim
            hits += groups._witness_cycle(gs, d - 2)
            for l in range(1, d + 1):
                assert prim or not groups._witness_cycle(gs, l), (d, l, gs)
    assert transitive > 2000 and imprimitive > 400 and hits > 1000


def _reference_is_primitive(gs):
    """`is_primitive` with transitivity taken from the orbit partition, as it
    was decided before the counting walk: the orbits, the prime exit, then
    the closure scan over x = 1..d-1."""
    dom = gs[0].domain
    d = len(dom)
    if d < 2:
        raise GroupError("primitivity needs at least two points")
    if len(orbits(gs)) != 1:
        raise IntransitiveError("primitivity is defined for transitive groups only")
    if groups._largest_proper_divisor(d) == 1:
        return True, None
    tables = [g._table for g in gs]
    for x in range(1, d):
        classes = _block_closure(tables, dom, 0, x)
        if classes is None:
            continue
        sizes = {len(c) for c in classes}
        if len(sizes) != 1:
            raise GroupError("closure classes of a transitive group differ in size")
        size = sizes.pop()
        if d % size != 0:
            raise GroupError(f"block size {size} does not divide the degree {d}")
        return False, groups.BlockSystem(degree=d, blocks=classes, block_size=size)
    return True, None


def _outcome(test, gs):
    try:
        return test(gs)
    except GroupError as exc:
        return type(exc), str(exc)


def _split_gens(rng, dom, k):
    """k random permutations of dom that each keep one random split of dom
    into two parts, so the span is intransitive."""
    shuffled = rng.sample(dom, len(dom))
    cut = rng.randint(1, len(dom) - 1)
    parts = shuffled[:cut], shuffled[cut:]
    out = []
    for _ in range(k):
        mapping = {}
        for part in parts:
            mapping.update(zip(part, rng.sample(part, len(part))))
        out.append(Permutation.from_mapping(mapping, dom))
    return out


@pytest.mark.parametrize("gapped", [False, True])
def test_counting_walk_matches_the_orbit_partition(gapped):
    """`is_transitive` agrees with the orbit count, and `is_primitive` gives
    the verdict, witness and errors of the orbit-then-scan reference, on
    seeded generator sets with one or no orbit."""
    primes = (2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    rng = random.Random(47 if gapped else 43)
    counts = {"transitive": 0, "intransitive": 0, "imprimitive": 0}
    for _ in range(320):
        d = rng.randint(0, 12)
        dom = list(primes[:d] if gapped else range(1, d + 1))
        k = rng.randint(1, 3)
        if d >= 2 and rng.random() < 0.3:
            gs = _split_gens(rng, dom, k)
        elif d:
            gs = _random_gens(rng, dom, k)
        else:
            gs = [Permutation(())] * k
        transitive = len(orbits(gs)) == 1
        assert is_transitive(gs) == transitive
        counts["transitive" if transitive else "intransitive"] += 1
        got = _outcome(is_primitive, gs)
        assert got == _outcome(_reference_is_primitive, gs)
        if got[0] is False:
            counts["imprimitive"] += 1
    assert counts["intransitive"] >= 50
    assert counts["transitive"] >= 50 and counts["imprimitive"] >= 20


def _first_point_gens(rng, dom, k, blocks):
    """k random permutations of dom, each fixing dom[0] with probability 1/2;
    with ``blocks`` (a system of equal blocks, the first holding dom[0])
    every one keeps that system."""
    out = []
    for _ in range(k):
        fix = rng.random() < 0.5
        if blocks is None:
            rest = dom[1:] if fix else dom
            images = rng.sample(rest, len(rest))
            mapping = dict(zip(rest, images))
        else:
            if fix:
                targets = blocks[:1] + rng.sample(blocks[1:], len(blocks) - 1)
            else:
                targets = rng.sample(blocks, len(blocks))
            mapping = {}
            for src, dst in zip(blocks, targets):
                if fix and src is blocks[0]:
                    mapping[src[0]] = src[0]
                    src, dst = src[1:], dst[1:]
                mapping.update(zip(src, rng.sample(dst, len(dst))))
        out.append(Permutation.from_mapping(mapping, dom))
    return out


@pytest.mark.parametrize("gapped", [False, True])
def test_orbit_minima_scan_matches_the_plain_scan(gapped):
    """`is_primitive`, which closes only the least point of each orbit of
    the generators fixing the first point, gives the verdict and witness
    block system of the plain closure scan over x = 1..d-1, on seeded sets
    at composite degrees up to 45.  In most sets a generator fixes the
    first point, and in some it moves the point whose closure is the
    witness, which a scan skipping every point it moves would miss."""
    rng = random.Random(53 if gapped else 59)
    primes = [p for p in range(2, 400) if groups._largest_proper_divisor(p) == 1]
    degrees = [d for d in range(4, 46) if groups._largest_proper_divisor(d) > 1]
    verdicts = {True: 0, False: 0}
    fixing = 0
    for _ in range(70):
        d = rng.choice(degrees)
        dom = primes[:d] if gapped else list(range(1, d + 1))
        blocks = None
        if rng.random() < 0.6:
            m = rng.choice([m for m in range(2, d) if d % m == 0])
            shuffled = [dom[0], *rng.sample(dom[1:], d - 1)]
            blocks = [shuffled[i : i + m] for i in range(0, d, m)]
        while True:
            gs = _first_point_gens(rng, dom, rng.randint(2, 3), blocks)
            if is_transitive(gs):
                break
        fixing += any(g(dom[0]) == dom[0] for g in gs)
        got = is_primitive(gs)
        assert got == _reference_is_primitive(gs), (d, gs)
        verdicts[got[0]] += 1
    assert min(verdicts.values()) >= 20
    assert fixing >= 35


def _keeping_gens(rng, dom, k, kind):
    """k random permutations of dom that keep a system of blocks (wreath),
    a split of dom in two (intransitive), or nothing (random)."""
    if kind == "wreath":
        return _wreath_gens(rng, dom, k)
    if kind == "intransitive":
        return _split_gens(rng, dom, k)
    return [Permutation(tuple(rng.sample(dom, len(dom))), dom) for _ in range(k)]


@pytest.mark.parametrize("gapped", [False, True])
def test_relation_makes_the_last_image_redundant(gapped):
    """For generator images under the relation a^2 u_1 ... u_s = 1 (rp2) or
    u_1 ... u_s = 1 (s2), dropping u_s keeps the group: transitivity agrees,
    and `is_primitive` gives the same verdict and witness block system, on
    seeded random, wreath-product and intransitive sets at d <= 61, with
    one to three images left."""
    rng = random.Random(3001 if gapped else 3003)
    primes = [p for p in range(2, 400) if groups._largest_proper_divisor(p) == 1]
    counts = {"primitive": 0, "imprimitive": 0, "intransitive": 0}
    for i in range(150):
        d = rng.randint(4, 61)
        dom = primes[:d] if gapped else list(range(1, d + 1))
        kind = ("random", "wreath", "intransitive")[i % 3]
        if kind == "wreath" and groups._largest_proper_divisor(d) == 1:
            kind = "random"
        base = rng.choice(("rp2", "s2"))
        s = rng.randint(1, 3) if base == "rp2" else rng.randint(2, 4)
        while True:  # random and wreath sets are drawn until transitive
            head = _keeping_gens(rng, dom, s if base == "rp2" else s - 1, kind)
            relation = [head[0], *head] if base == "rp2" else head  # a a u_1 ... u_{s-1}
            images = [*head, compose(*relation).inverse()]
            if kind == "intransitive" or is_transitive(images):
                break
        assert compose(*relation, images[-1]).is_identity()
        reduced = images[:-1]
        transitive = is_transitive(images)
        assert is_transitive(reduced) == transitive
        got = _outcome(is_primitive, images)
        assert _outcome(is_primitive, reduced) == got, (base, d, kind)
        if not transitive:
            counts["intransitive"] += 1
        else:
            counts["primitive" if got[0] else "imprimitive"] += 1
    assert min(counts.values()) >= 20, counts
