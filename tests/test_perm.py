"""Permutation arithmetic, partitions, and the projection calculus."""

import pickle
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from branchcover.oracle import partitions_of
from branchcover.perm import (
    Partition,
    PermError,
    Permutation,
    canonical_in_class,
    compose,
    conjugate,
    conjugator_matching,
    embed,
    format_cycles,
    from_cycles,
    identity,
    parse_cycles,
    project,
    random_in_class,
    sqrt_odd_cycle,
)
from reference import insertion_recombine, regex_parse_cycles


def test_from_cycles_appendix_line_one():
    p = from_cycles([(1, 2, 3), (4, 5)], 5)
    assert p.images == (2, 3, 1, 5, 4)
    assert format_cycles(p) == "(1 2 3)(4 5)"


def test_from_cycles_identity_and_errors():
    assert from_cycles([], 4).is_identity()
    assert parse_cycles("()", 4).is_identity()
    with pytest.raises(PermError):
        from_cycles([(1, 2), (1, 3)], 3)
    with pytest.raises(PermError):
        from_cycles([(1, 9)], 3)
    with pytest.raises(PermError):
        parse_cycles("(1 2", 3)
    with pytest.raises(PermError, match="label 1 repeated"):
        parse_cycles("(1 2 1)", 3)
    with pytest.raises(PermError, match="label 1 repeated"):
        from_cycles([(1, 2, 3, 1, 2)], 3)


def test_cycles_of_a_table_that_is_not_a_bijection_raise():
    """A defect in a table writer raises in the walk instead of looping on:
    a repeated image (2 also goes to 0), and a walk from 0 that falls into
    the cycle (1 2), which misses 0."""
    with pytest.raises(PermError, match="not a bijection"):
        Permutation._of((1, 0, 0), (1, 2, 3)).cycles()
    with pytest.raises(PermError, match="not a bijection"):
        Permutation._of((1, 2, 1), (1, 2, 3)).cycles()


def test_cycle_string_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randint(1, 9)
        imgs = list(range(1, d + 1))
        rng.shuffle(imgs)
        p = Permutation(tuple(imgs))
        assert parse_cycles(format_cycles(p), d) == p


def test_compose_convention_anchor():
    # golden product fixing the left-to-right convention
    p = parse_cycles("(1 2 3)(4 5)", 5)
    q = parse_cycles("(5 4 1)(3 2)", 5)
    prod = compose(p, q)
    assert prod(1) == 3
    assert prod.cycle_type() == Partition([3, 1, 1])
    assert format_cycles(prod) == "(1 3 5)"


def test_compose_identity_and_involution():
    p = parse_cycles("(1 2 3)(4 5)", 5)
    assert compose(p, identity(5)) == p
    t = parse_cycles("(1 2)", 2)
    assert compose(t, t).is_identity()
    with pytest.raises(PermError):
        compose(p, identity(4))


def test_cycle_type_examples():
    assert parse_cycles("(1 3 5)", 5).cycle_type() == Partition([3, 1, 1])
    assert identity(4).cycle_type() == Partition([1, 1, 1, 1])
    p = parse_cycles("(1 2 3)(4 5 6)(7 8 9)", 9)
    assert p.cycle_type() == Partition([3, 3, 3])
    assert p.cycle_type().nu == 6


def test_conjugate_examples():
    assert conjugate(parse_cycles("(1 2)", 3), parse_cycles("(2 3)", 3)) == parse_cycles(
        "(1 3)", 3
    )
    p = parse_cycles("(1 4)(2 3)", 4)
    assert conjugate(p, identity(4)) == p
    rng = random.Random(1)
    for _ in range(100):
        imgs = list(range(1, 10))
        rng.shuffle(imgs)
        p = Permutation(tuple(imgs))
        rng.shuffle(imgs)
        lam = Permutation(tuple(imgs))
        assert conjugate(p, lam).cycle_type() == p.cycle_type()


def test_conjugate_is_group_conjugation():
    rng = random.Random(2)
    for _ in range(50):
        imgs = list(range(1, 8))
        rng.shuffle(imgs)
        p = Permutation(tuple(imgs))
        rng.shuffle(imgs)
        lam = Permutation(tuple(imgs))
        assert conjugate(p, lam) == compose(compose(lam, p), lam.inverse())


def test_conjugator_matching():
    p = parse_cycles("(1 2 3)", 6)
    q = parse_cycles("(4 5 6)", 6)
    lam = conjugator_matching(p, q)
    assert conjugate(p, lam) == q
    assert conjugate(p, conjugator_matching(p, p)) == p
    with pytest.raises(PermError):
        conjugator_matching(parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3))


def _shuffled(rng, dom):
    imgs = list(dom)
    rng.shuffle(imgs)
    return Permutation(tuple(imgs), dom)


@pytest.mark.parametrize("d", range(1, 14))
def test_conjugate_matches_the_inverse_route(d):
    """conjugate relabels p's index table through an inverse index list; it
    equals by * p * by^-1 composed with the inverse permutation, on 1..d and
    on a gapped domain."""
    rng = random.Random(d)
    gapped = tuple(sorted(rng.sample(range(1, 5 * d + 2), d)))
    for dom in (tuple(range(1, d + 1)), gapped):
        for _ in range(20):
            p, by = _shuffled(rng, dom), _shuffled(rng, dom)
            got = conjugate(p, by)
            assert got == compose(by, p, by.inverse())
            assert type(got.images) is tuple and got.domain == dom


def _matching_by_mapping(p, q):
    """conjugator_matching by the validated point map and its inverse."""
    key = lambda c: (-len(c), c[0])
    point_map = {}
    for a, b in zip(sorted(p.cycles(), key=key), sorted(q.cycles(), key=key)):
        point_map.update(zip(a, b))
    return Permutation.from_mapping(point_map, p.domain).inverse()


@pytest.mark.parametrize("d", range(1, 10))
def test_conjugator_matching_matches_the_mapping_route(d):
    """For seeded pairs of every class of degree d, on 1..d and on a gapped
    domain, the matching conjugates p onto q and equals the inverse of the
    validated point map."""
    rng = random.Random(100 + d)
    gapped = tuple(sorted(rng.sample(range(1, 5 * d + 2), d)))
    for dom in (tuple(range(1, d + 1)), gapped):
        for cls in partitions_of(d):
            for _ in range(3):
                p = random_in_class(cls, dom, rng)
                q = random_in_class(cls, dom, rng)
                lam = conjugator_matching(p, q)
                assert conjugate(p, lam) == q
                assert lam == _matching_by_mapping(p, q)


def test_nu_parity_exhaustive_small():
    for d in (2, 3, 4, 5):
        perms = [Permutation(imgs) for imgs in permutations(range(1, d + 1))]
        for p in perms:
            for q in perms:
                assert (compose(p, q).nu() - p.nu() - q.nu()) % 2 == 0


def test_nu_parity_randomized_degree_eleven():
    rng = random.Random(3)
    for _ in range(300):
        imgs = list(range(1, 12))
        rng.shuffle(imgs)
        p = Permutation(tuple(imgs))
        rng.shuffle(imgs)
        q = Permutation(tuple(imgs))
        assert (compose(p, q).nu() - p.nu() - q.nu()) % 2 == 0


def test_sqrt_odd_cycle_examples():
    assert sqrt_odd_cycle(parse_cycles("(1 2 3 4 5)", 5)) == parse_cycles(
        "(1 4 2 5 3)", 5
    )
    assert sqrt_odd_cycle(identity(4)).is_identity()
    assert sqrt_odd_cycle(parse_cycles("(1 2 3)", 3)) == parse_cycles("(1 3 2)", 3)
    with pytest.raises(PermError):
        sqrt_odd_cycle(parse_cycles("(1 2 3 4)", 4))
    with pytest.raises(PermError):
        sqrt_odd_cycle(parse_cycles("(1 2 3)(4 5 6)", 6))


def test_sqrt_odd_cycle_all_lengths_to_fifteen():
    rng = random.Random(0)
    for r in range(3, 16, 2):
        for d in (r, r + 2):
            for _ in range(20):
                pts = rng.sample(range(1, d + 1), r)
                p = from_cycles([pts], d)
                root = sqrt_odd_cycle(p)
                assert compose(root, root) == p
                assert root.support() == p.support()
                assert root.cycle_type() == p.cycle_type()


def test_project_examples():
    p = parse_cycles("(1 2 3)(4 5)", 5)
    pr = project(p, [1, 3, 5])
    assert pr.domain == (1, 3, 5)
    assert pr(1) == 3 and pr(3) == 1 and pr(5) == 5
    assert project(identity(5), [2, 4]).is_identity()
    full = parse_cycles("(1 2 3 4 5)", 5)
    assert project(full, [1, 2, 3, 4, 5]) == full
    with pytest.raises(PermError):
        project(p, [])


def test_embed_examples():
    b = from_cycles([(1, 3)], [1, 3, 5])
    e = embed(b, 5)
    assert e == parse_cycles("(1 3)", 5)
    assert embed(identity([2, 4]), 5).is_identity()
    with pytest.raises(PermError):
        embed(b, 2)


def test_project_embed_round_trip_exhaustive():
    for d in (1, 2, 3, 4, 5):
        dom = tuple(range(1, d + 1))
        for imgs in permutations(dom):
            lam = Permutation(imgs)
            for r in range(1, d + 1):
                for keep in combinations(dom, r):
                    pl = project(lam, keep)
                    assert project(embed(pl, d), keep) == pl


def test_insertion_recombine_equals_composition_exhaustive():
    rng = random.Random(7)
    for d in (1, 2, 3, 4, 5, 6):
        dom = tuple(range(1, d + 1))
        for imgs in permutations(dom):
            lam = Permutation(imgs)
            for r in range(1, d + 1):
                for keep in combinations(dom, r):
                    sub = list(keep)
                    rng.shuffle(sub)
                    b = Permutation(tuple(sub), keep)
                    downstairs = compose(project(lam, keep), b)
                    assert insertion_recombine(lam, downstairs, keep) == compose(
                        lam, embed(b, d)
                    )


def test_insertion_recombine_trivial_and_passthrough():
    lam = parse_cycles("(1 2 3)(4 5)", 5)
    keep = (1, 3, 5)
    # downstairs the bare projection means b is the identity
    assert insertion_recombine(lam, project(lam, keep), keep) == lam
    # a cycle of lam wholly inside keep passes through unchanged
    lam2 = parse_cycles("(1 3)(2 4)", 5)
    keep2 = (1, 3, 5)
    down = compose(project(lam2, keep2), identity(keep2))
    out = insertion_recombine(lam2, down, keep2)
    assert out == lam2
    with pytest.raises(PermError):
        insertion_recombine(lam, identity(3), keep)


def test_partition_normalization_and_literal():
    p = Partition([1, 3, 2, 1])
    assert p.parts == (3, 2, 1, 1)
    assert p.degree == 7 and p.nu == 3
    assert str(p) == "[3,2,1,1]"
    assert Partition.parse("[3,2,1,1]") == p
    with pytest.raises(PermError):
        Partition.parse("[]")
    with pytest.raises(PermError):
        Partition.parse("3,2")
    with pytest.raises(PermError):
        Partition([0, 2])


def test_partition_keeps_a_non_increasing_tuple():
    """A plain non-increasing tuple is kept as it is; any other iterable
    gets a sorted plain-tuple copy.  Either way the partition compares,
    hashes, pickles and prints by its parts, and the checks still run."""

    class Parts(tuple):
        pass

    kept = (5, 3, 3, 1)
    assert Partition(kept).parts is kept
    for given in ([3, 5, 1, 3], (3, 5, 1, 3), Parts((5, 3, 3, 1)), iter((1, 3, 3, 5))):
        p = Partition(given)
        assert p.parts is not given and type(p.parts) is tuple
        assert p.parts == kept
    for p in (Partition(kept), Partition([1, 3, 5, 3]), Partition(Parts(kept))):
        assert p == Partition((1, 3, 3, 5)) and hash(p) == hash(kept)
        assert repr(p) == "Partition([5, 3, 3, 1])" and str(p) == "[5,3,3,1]"
        assert p.degree == 12 and p.nu == 8
        q = pickle.loads(pickle.dumps(p))
        assert q == p and type(q.parts) is tuple
    for bad in ((), [], (2, 0), (3, -1), [0, 2]):
        with pytest.raises(PermError):
            Partition(bad)


@pytest.mark.parametrize(
    "text",
    ["(1 +2)", "(1 -2)", "(1 0_2)", "(1 \uff12)", "(\u0661 2)", "(1 \u00b2)"],
)
def test_cycle_labels_are_ascii_digits(text):
    """`int` takes a sign, an underscore and any Unicode decimal digit; a
    label takes ASCII digits alone."""
    with pytest.raises(PermError, match="malformed cycle notation"):
        parse_cycles(text, 4)


# Pieces of the differential test's strings: parentheses, whitespace (ASCII
# and not), ASCII labels in and out of 1..9, non-ASCII digits, signs, "_"
# and letters.
_CYCLE_PIECES = (
    "(", ")", "()", " ", "\t", "\n", "\u3000", "\x1c",
    "1", "2", "3", "5", "9", "0", "01", "10", "12",
    "\u0661", "\uff12", "\u00b2", "+", "-", "_", "a", "Z",
)


def _cycle_text(rng):
    """Cycle notation over 1..9 with up to three edits (a piece inserted, a
    character deleted or replaced by a piece), or a string of pieces alone."""
    if rng.random() < 0.3:
        return "".join(rng.choices(_CYCLE_PIECES, k=rng.randrange(12)))
    space = lambda: rng.choice(("", "", " ", "  ", "\t", "\u3000"))
    chars = []
    for _ in range(rng.randrange(1, 5)):
        labels = map(str, rng.sample(range(1, 10), rng.randrange(5)))
        body = rng.choice((" ", "  ", "\t", "\u3000")).join(labels)
        chars += [space(), "(", space(), body, space(), ")"]
    chars = list("".join(chars))
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or i == len(chars):
            chars.insert(i, rng.choice(_CYCLE_PIECES))
        elif op == 1:
            del chars[i]
        else:
            chars[i] = rng.choice(_CYCLE_PIECES)
    return "".join(chars)


def _outcome(parse, text):
    try:
        return parse(text, 9)
    except PermError as exc:
        return str(exc)


def test_parse_cycles_reads_what_the_regex_reader_reads():
    """The split-based reader against the regular-expression reader it
    replaced: on seeded strings both give the same permutation, or both
    raise PermError with the same message."""
    rng = random.Random(20171)
    kinds = Counter()
    for _ in range(100_000):
        text = _cycle_text(rng)
        want = _outcome(regex_parse_cycles, text)
        assert _outcome(parse_cycles, text) == want, text
        kinds[want.split()[0] if isinstance(want, str) else "parsed"] += 1
    # accepted, malformed, empty, and a label out of range or repeated
    assert set(kinds) == {"parsed", "malformed", "empty", "label"}
    assert min(kinds.values()) > 1000, kinds


@pytest.mark.parametrize("text", ["[+3,1]", "[3,0_1]", "[\uff13,1]", "[3,,1]", "[3,1 1]"])
def test_partition_parts_are_ascii_digits(text):
    with pytest.raises(PermError, match="malformed partition literal"):
        Partition.parse(text)


def test_ascii_numerals_still_parse():
    assert parse_cycles("( 1  02 )(3 4)", 4) == parse_cycles("(1 2)(3 4)", 4)
    assert Partition.parse("[ 3 , 01 ,1 ]") == Partition([3, 1, 1])


def test_bijection_enforced():
    with pytest.raises(PermError):
        Permutation((1, 1, 3))
    with pytest.raises(PermError):
        Permutation((1, 2), domain=(1, 3, 5))
    with pytest.raises(PermError):
        Permutation.from_mapping({5: 1}, 3)


@pytest.mark.parametrize(
    "perm, label",
    [
        (Permutation((2, 1, 3)), 0),
        (Permutation((2, 1, 3)), -1),
        (Permutation((2, 1, 3)), 4),
        (Permutation((4, 2, 6), domain=(2, 4, 6)), 3),
        (Permutation((2, 1, 3)), True),
        (Permutation((2, 1, 3)), 1.5),
        (Permutation((2, 1, 3)), 2.0),
        (Permutation((4, 2, 6), domain=(2, 4, 6)), 4.0),
    ],
)
def test_call_outside_the_domain_raises(perm, label):
    """A 1..d domain must not wrap a label below 1 around to the end, and a
    label must be exactly an int: a bool or a float is not one."""
    with pytest.raises(PermError):
        perm(label)


def _reference_cycles(p):
    step = dict(zip(p.domain, p.images))
    seen, out = set(), []
    for start in p.domain:
        if start in seen:
            continue
        cyc, x = [start], step[start]
        seen.add(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = step[x]
        out.append(tuple(cyc))
    return tuple(out)


def test_derived_permutations_pass_the_public_validator():
    # compose, inverse, conjugate, ... build their results unchecked; each
    # must still be a bijection the public constructor accepts, with the
    # cycles and point images of its table.
    rng = random.Random(23)
    domains = [tuple(range(1, d + 1)) for d in (1, 2, 5, 9, 12)]
    domains += [(2, 5, 7, 11), (1, 3, 4, 8, 9, 10, 12), (12,)]

    def random_perm(dom):
        imgs = list(dom)
        rng.shuffle(imgs)
        return Permutation(tuple(imgs), dom)

    for dom in domains:
        for _ in range(25):
            p, q = random_perm(dom), random_perm(dom)
            keep = sorted(rng.sample(dom, rng.randint(1, len(dom))))
            derived = [
                compose(p, q),
                compose(p, q, p.inverse()),
                compose(p.inverse(), q).inverse(),
                p.inverse(),
                conjugate(p, q),
                project(p, keep),
                embed(project(p, keep), dom),
                embed(p, 12),
                canonical_in_class(p.cycle_type(), dom),
                random_in_class(p.cycle_type(), dom, rng),
                conjugator_matching(p, conjugate(p, q)),
            ]
            for r in derived:
                assert Permutation(r.images, r.domain) == r
                assert r.cycles() == _reference_cycles(r)
                assert [r(x) for x in r.domain] == list(r.images)


def _compose_by_list_comprehension(*perms):
    """The image table of the product, by the label-indexed list
    comprehension that `compose` used before its itemgetter kernel."""
    first = perms[0]
    cur = first.images
    if first.domain == tuple(range(1, first.degree + 1)):
        for p in perms[1:]:
            imgs = p.images
            cur = [imgs[x - 1] for x in cur]
    else:
        pos = {x: i for i, x in enumerate(first.domain)}
        for p in perms[1:]:
            imgs = p.images
            cur = [imgs[pos[x]] for x in cur]
    return tuple(cur)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 301])
def test_compose_matches_the_list_comprehension_reference(n):
    """One path for every domain, below 2 points too, where itemgetter of a
    single index returns the item rather than a tuple.  The product's index
    table is stored on it as composed, one object on every read."""
    rng = random.Random(n)
    gapped = tuple(sorted(rng.sample(range(1, 4 * n + 2), n)))
    for dom in (tuple(range(1, n + 1)), gapped):
        for count in range(1, 7):
            for _ in range(4):
                perms = []
                for _ in range(count):
                    imgs = list(dom)
                    rng.shuffle(imgs)
                    perms.append(Permutation(tuple(imgs), dom))
                got = compose(*perms)
                assert type(got.images) is tuple and got.domain == dom
                assert got.images == _compose_by_list_comprehension(*perms)
                table = got._table
                assert type(table) is tuple and got._table is table
                assert table == tuple(dom.index(got(x)) for x in dom)


@pytest.mark.parametrize("dom", [tuple(range(1, 8)), (2, 5, 7, 11, 12, 20, 31)])
def test_index_table_and_cycle_type_are_built_once(dom):
    """The index table is the stored form: every permutation, made by the
    constructor or derived, holds it from the start, equal to a fresh
    computation and the same object on every read.  The cycle type is built
    on first use and kept: absent on every derived result, then the same
    object on a second call."""
    rng = random.Random(len(dom) + dom[0])
    for _ in range(20):
        imgs = list(dom)
        rng.shuffle(imgs)
        p = Permutation(tuple(imgs), dom)
        ctype = p.cycle_type()
        assert p.cycle_type() is ctype
        assert ctype == Partition(len(c) for c in p.cycles())
        for r in (p, compose(p, p), p.inverse(), conjugate(p, p.inverse())):
            table = r._table
            assert type(table) is tuple and r._table is table
            assert table == tuple(dom.index(r(x)) for x in dom)
            assert r is p or r._type is None
            assert r.cycle_type() == Partition(len(c) for c in r.cycles())


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_every_route_to_a_permutation_compares_and_hashes_alike(n):
    """Memo keys rest on equal permutations hashing equal: each route to
    one permutation gives an equal one with the same hash and images, on
    1..n and on a gapped domain.  One index table on two domains gives two
    unequal permutations."""
    rng = random.Random(n)
    for dom in (tuple(range(1, n + 1)), tuple(range(2, 3 * n + 2, 3))):
        e = identity(dom)
        perms = [canonical_in_class(cls, dom) for cls in partitions_of(n)]
        for _ in range(12):
            imgs = list(dom)
            rng.shuffle(imgs)
            perms.append(Permutation(tuple(imgs), dom))
        for p in perms:
            for r in (
                Permutation(p.images, dom),
                from_cycles(p.cycles(), dom),
                Permutation.from_mapping(dict(zip(dom, p.images)), dom),
                compose(p, e),
                p.inverse().inverse(),
                conjugate(p, e),
            ):
                assert r == p and hash(r) == hash(p) and r.images == p.images
            c = canonical_in_class(p.cycle_type(), dom)
            ref = _canonical_from_cycles(p.cycle_type(), dom)
            assert c == ref and hash(c) == hash(ref)
    for a, b in (
        (identity((1, 2, 3)), identity((2, 4, 6))),
        (Permutation((2, 3, 1)), Permutation((4, 6, 2), (2, 4, 6))),
    ):
        assert a._table == b._table and a != b and b != a


def test_canonical_in_class():
    p = canonical_in_class(Partition([3, 2]), 5)
    assert p == parse_cycles("(1 2 3)(4 5)", 5)
    assert canonical_in_class(Partition([2, 1]), [2, 5, 9]) == from_cycles(
        [(2, 5)], [2, 5, 9]
    )


def _canonical_from_cycles(cls, dom):
    """The class representative through `from_cycles`: runs of the domain."""
    cycles, i = [], 0
    for part in cls.parts:
        cycles.append(dom[i : i + part])
        i += part
    return from_cycles(cycles, dom)


def test_canonical_in_class_matches_the_cycle_route():
    """canonical_in_class writes its images directly; it equals laying the
    cycles out through `from_cycles`, for every partition of d <= 13 on
    1..d and on a gapped domain, and still checks the domain size."""
    for d in range(1, 14):
        for dom in (tuple(range(1, d + 1)), tuple(range(3, 3 * d + 3, 3))):
            for cls in partitions_of(d):
                p = canonical_in_class(cls, dom)
                assert p == _canonical_from_cycles(cls, dom)
                assert p.cycle_type() == cls
                assert compose(p, p.inverse()).is_identity()
    with pytest.raises(PermError):
        canonical_in_class(Partition([2, 1]), 4)
    with pytest.raises(PermError):
        canonical_in_class(Partition([2, 1]), [2, 5])


def _random_in_class_by_labels(cls, dom, rng):
    """The label-shuffle route: shuffle the labels, cut them into runs of
    the parts, one cycle each, through `from_cycles`."""
    labels = list(dom)
    rng.shuffle(labels)
    cycles, i = [], 0
    for part in cls.parts:
        cycles.append(labels[i : i + part])
        i += part
    return from_cycles(cycles, dom)


def _assert_draws_as_the_label_shuffle(cls, domain, seed, draws):
    """From equal rng states both routes give equal members and leave equal
    states, draw after draw."""
    dom = tuple(range(1, domain + 1)) if isinstance(domain, int) else domain
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        p = random_in_class(cls, domain, ours)
        assert p == _random_in_class_by_labels(cls, dom, theirs)
        assert p.domain == dom and p.cycle_type() == cls
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", range(1, 9))
def test_random_in_class_draws_as_the_label_shuffle(n):
    """Every partition of n, on 1..n (given as an int and as labels) and on
    a gapped domain."""
    gapped = tuple(sorted(random.Random(n).sample(range(1, 5 * n + 2), n)))
    for k, cls in enumerate(partitions_of(n)):
        for domain in (n, tuple(range(1, n + 1)), gapped):
            _assert_draws_as_the_label_shuffle(cls, domain, 1000 * n + k, 4)


def test_random_in_class_draws_as_the_label_shuffle_at_degree_301():
    """Seeded partitions of 301, the extremes among them, on 1..301 and on a
    gapped domain."""
    rng = random.Random(301)
    classes = [Partition([301]), Partition([2] * 150 + [1]), Partition([1] * 301)]
    while len(classes) < 12:
        parts, left = [], 301
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        classes.append(Partition(parts))
    gapped = tuple(sorted(rng.sample(range(1, 2000), 301)))
    for k, cls in enumerate(classes):
        for domain in (301, gapped):
            _assert_draws_as_the_label_shuffle(cls, domain, k, 3)
    with pytest.raises(PermError):
        random_in_class(Partition([2, 1]), 4, rng)
    with pytest.raises(PermError):
        random_in_class(Partition([2]), [3, 3], rng)


def test_cycle_decomposition_recomposes():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 10)
        imgs = list(range(1, d + 1))
        rng.shuffle(imgs)
        p = Permutation(tuple(imgs))
        assert from_cycles(p.cycles(), d) == p
        for cyc in p.cycles():
            assert cyc[0] == min(cyc)
        starts = [c[0] for c in p.cycles()]
        assert starts == sorted(starts)

