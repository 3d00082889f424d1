"""The two-partition construction, reduction, induction, and [d]-data."""

import random
import sys
from itertools import combinations_with_replacement

import pytest

from branchcover import construct
from branchcover.construct import (
    BranchDatum,
    admissible,
    full_cycle_datum_construct,
    fundamental_construct,
    load_appendix_table,
    parse_datum,
    reduce_collection,
    single_branch_verdict,
    two_datum_construct,
)
from branchcover.eks import EksError
from branchcover.errors import InadmissibleError, ParseError
from branchcover.groups import is_primitive, is_transitive
from branchcover.oracle import partitions_of
from branchcover.perm import (
    Partition,
    Permutation,
    compose,
    embed,
    from_cycles,
    parse_cycles,
    project,
)
from branchcover.realize import realize_rp2

P = Partition


def _check_pair(D1, D2, lam, beta):
    d = D1.degree
    assert lam.cycle_type() == D1
    assert beta.cycle_type() == D2
    prod = compose(lam, beta)
    assert prod.cycle_type() == Partition([d - 2, 1, 1])
    assert is_transitive([lam, beta])
    assert is_primitive([lam, beta])[0]


def test_branch_datum_validation():
    with pytest.raises(ParseError):
        BranchDatum("rp2", 4, (P([1, 1, 1, 1]),))
    with pytest.raises(ParseError):
        BranchDatum("rp2", 5, (P([3, 2]), P([3])))
    with pytest.raises(ParseError):
        BranchDatum("torus", 5, (P([3, 2]),))
    datum = parse_datum("[3,2];[3,2]", "rp2")
    assert datum.degree == 5 and datum.nu == 6
    assert str(datum) == "[3,2];[3,2]"


def test_appendix_table_loads_and_verifies():
    rows = load_appendix_table()
    assert len(rows) == 19
    assert [r.index for r in rows] == list(range(1, 20))
    line10 = rows[9]
    assert compose(line10.lam, line10.beta) == parse_cycles("(1 3 8 7 5 6 9)", 9)
    line19 = rows[18]
    assert compose(line19.lam, line19.beta) == parse_cycles("(1 4 5 8 6 3 10 11 9)", 11)


def test_two_datum_appendix_line_one():
    lam, beta, trace, _ = two_datum_construct(P([3, 2]), P([3, 2]))
    assert trace.case == "case2-table"
    row = load_appendix_table()[0]
    assert row.index == 1 and (lam, beta) == (row.lam, row.beta)
    assert lam == parse_cycles("(1 2 3)(4 5)", 5)
    assert beta == parse_cycles("(5 4 1)(3 2)", 5)
    _check_pair(P([3, 2]), P([3, 2]), lam, beta)


def test_two_datum_degree_three():
    lam, beta, trace, _ = two_datum_construct(P([3]), P([3]))
    assert trace.case == "d3"
    assert beta == lam.inverse()
    assert compose(lam, beta).is_identity()
    _check_pair(P([3]), P([3]), lam, beta)


def test_two_datum_appendix_line_seven():
    lam, beta, trace, product = two_datum_construct(P([3, 3, 3]), P([3, 3, 3]))
    assert trace.case == "case2-table"
    row = load_appendix_table()[6]
    assert row.index == 7 and (lam, beta) == (row.lam, row.beta)
    assert product == compose(lam, beta) == parse_cycles("(1 4 7 9 6 3 8)", 9)
    _check_pair(P([3, 3, 3]), P([3, 3, 3]), lam, beta)


def test_two_datum_gate_errors():
    with pytest.raises(InadmissibleError):
        two_datum_construct(P([2, 1]), P([2, 1]))  # nu = d-1 boundary
    with pytest.raises(InadmissibleError):
        two_datum_construct(P([2, 1]), P([3]))  # odd nu
    with pytest.raises(InadmissibleError):
        two_datum_construct(P([2, 2]), P([2, 2]))  # even degree
    with pytest.raises(InadmissibleError):
        two_datum_construct(P([3, 2]), P([1] * 5))  # trivial partition


def test_two_datum_case1_trace_invariant():
    lam, beta, trace, _ = two_datum_construct(P([5, 2]), P([4, 3]))
    assert trace.case == "case1"
    # case 1 deletes a_11, a_12 with beta0 = (a_13 a_12 a_11): lam*beta0 is
    # lam with the deleted points cut out of their cycle
    beta0 = from_cycles([(3, 2, 1)], 7)
    keep = (3, 4, 5, 6, 7)
    assert compose(lam, beta0) == embed(project(lam, keep), 7)
    lifted = compose(beta0.inverse(), beta)  # beta0 * embed(beta_bar)
    assert lifted == embed(project(lifted, keep), 7)
    _check_pair(P([5, 2]), P([4, 3]), lam, beta)


def test_two_datum_case_dispatch_order_swap():
    # construction normalizes to the defect-heavy side; output order must
    # still match the caller's argument order
    lam, beta, _, _ = two_datum_construct(P([2, 2, 2, 1]), P([4, 3]))
    assert two_datum_construct(P([4, 3]), P([2, 2, 2, 1]))[:2] == (beta, lam)
    _check_pair(P([2, 2, 2, 1]), P([4, 3]), lam, beta)


def test_two_datum_full_cycle_partitions():
    lam, beta, _, _ = two_datum_construct(P([5]), P([5]))
    _check_pair(P([5]), P([5]), lam, beta)
    lam, beta, _, _ = two_datum_construct(P([5]), P([2, 2, 1]))
    _check_pair(P([5]), P([2, 2, 1]), lam, beta)
    lam, beta, _, _ = two_datum_construct(P([9]), P([3, 3, 1, 1, 1]))
    _check_pair(P([9]), P([3, 3, 1, 1, 1]), lam, beta)


def test_two_datum_exhaustive_sweep_small():
    for d in (3, 5, 7, 9):
        usable = [p for p in partitions_of(d) if not p.is_trivial()]
        for A, B in combinations_with_replacement(usable, 2):
            nu = A.nu + B.nu
            if nu % 2 != 0 or nu <= d - 1:
                continue
            lam, beta, _, product = two_datum_construct(A, B)
            _check_pair(A, B, lam, beta)
            assert product == compose(lam, beta)


def test_every_leading_three_three_pair_has_a_route():
    """`_case2`'s argument, checked: every gated pair whose leading parts are
    3 and 3, ordered as `two_datum_construct` orders it (the heavier side
    first), has a golden-table row or meets the general route's hypothesis
    (four parts >= 2 in A, a second part >= 2 in B), and pairs without the
    latter stop at d = 11."""
    rows = {(r.degree, tuple(sorted((r.D1.parts, r.D2.parts)))) for r in load_appendix_table()}
    count, table_degrees = 0, set()
    for d in range(5, 24, 2):
        threes = [p for p in partitions_of(d) if p.parts[0] == 3]
        for D1 in threes:
            for D2 in threes:
                nu = D1.nu + D2.nu
                if nu % 2 != 0 or nu <= d - 1:
                    continue
                A, B = (D2, D1) if D1.nu < D2.nu else (D1, D2)
                general = sum(1 for c in A.parts if c >= 2) >= 4 and B.parts[1] >= 2
                if not general:
                    assert (d, tuple(sorted((A.parts, B.parts)))) in rows, (D1, D2)
                    table_degrees.add(d)
                _, _, trace, _ = two_datum_construct(D1, D2)  # checked at its exit
                assert trace.case in ("case2-table", "case2-general")
                count += 1
    assert count == 604 and max(table_degrees) == 11


_UNWIND_STEP = construct._unwind_step


def _misordered_unwind(stack, merged, h1, h2):
    """The unwind step, then every factor so far in reverse order."""
    _UNWIND_STEP(stack, merged, h1, h2)
    stack.reverse()


@pytest.mark.parametrize(
    "step, wrong, call",
    [
        (
            "embed",
            lambda p, d: Permutation.identity(d),
            lambda: two_datum_construct(P([5, 2]), P([4, 3])),
        ),
        (
            "_unwind_step",
            _misordered_unwind,
            lambda: fundamental_construct(
                BranchDatum("rp2", 5, (P([3, 2]), P([3, 2]), P([2, 2, 1])))
            ),
        ),
        (
            "_unwind_step",
            _misordered_unwind,
            lambda: fundamental_construct(
                BranchDatum(
                    "rp2", 7, (P([3, 2, 2]), P([2, 2, 2, 1]), P([3, 3, 1]), P([2, 2, 2, 1]))
                )
            ),
        ),
        (
            "sqrt_odd_cycle",
            lambda p: p,
            lambda: full_cycle_datum_construct(
                BranchDatum("rp2", 5, (P([3, 1, 1]), P([5])))
            ),
        ),
    ],
    ids=["two_datum", "fundamental_s3", "fundamental_s4", "full_cycle"],
)
def test_construction_postconditions_survive_without_asserts(
    monkeypatch, step, wrong, call
):
    # a broken construction step must meet an explicit check, not an assert
    monkeypatch.setattr(construct, step, wrong)
    with pytest.raises(EksError, match="construction output"):
        call()


def test_construction_check_rejects_an_intransitive_span():
    # right classes and a (d-2)-cycle product, but {4, 5} is an orbit
    lam = parse_cycles("(1 2 3)(4 5)", 5)
    beta = parse_cycles("(4 5)", 5)
    assert compose(lam, beta).cycle_type() == P([3, 1, 1])
    with pytest.raises(EksError, match="transitive"):
        construct._check_construction([lam, beta], (P([3, 2]), P([2, 1, 1, 1])), 5)


def test_reduce_collection_spec_example():
    datum = BranchDatum("rp2", 5, (P([3, 2]), P([3, 2]), P([2, 2, 1])))
    step = reduce_collection(datum)
    assert step.merged == (0, 1)
    assert step.reduced.partitions[0] == P([5])
    assert step.reduced.partitions[1:] == (P([2, 2, 1]),)
    assert step.reduced.nu == 6
    assert compose(step.gamma1, step.gamma2).cycle_type() == P([5])


def test_reduce_collection_parity_gate():
    with pytest.raises(InadmissibleError):
        reduce_collection(
            BranchDatum("rp2", 5, (P([2, 2, 1]), P([2, 2, 1]), P([2, 1, 1, 1])))
        )


def test_construction_refuses_a_datum_not_over_the_projective_plane():
    """d-1 < nu < 2d-2: admissible over rp2, below the sphere's threshold."""
    three = BranchDatum("s2", 5, (P([3, 1, 1]),) * 3)
    with_full = BranchDatum("s2", 5, (P([5]), P([3, 1, 1])))
    assert not admissible(three)[0] and not admissible(with_full)[0]
    for build, datum in (
        (fundamental_construct, three),
        (reduce_collection, three),
        (full_cycle_datum_construct, with_full),
    ):
        with pytest.raises(InadmissibleError):
            build(datum)
        build(BranchDatum("rp2", 5, datum.partitions))


def test_entries_refuse_an_inadmissible_datum_of_three_points():
    """Each public entry gates an s >= 3 datum itself; the recursion below
    it does not gate."""
    odd_nu = BranchDatum("rp2", 5, (P([2, 2, 1]), P([2, 2, 1]), P([2, 1, 1, 1])))
    below = BranchDatum("rp2", 7, (P([2, 2, 1, 1, 1]), P([2, 1, 1, 1, 1, 1]), P([3, 1, 1, 1, 1])))
    for datum in (odd_nu, below):
        assert not admissible(datum)[0]
        for entry in (fundamental_construct, reduce_collection, realize_rp2):
            with pytest.raises(InadmissibleError):
                entry(datum)


def test_reduce_collection_relabels_single_spare_transposition():
    datum = BranchDatum("rp2", 5, (P([2, 1, 1, 1]), P([5]), P([2, 1, 1, 1])))
    step = reduce_collection(datum)
    assert step.merged == (0, 2)  # the defect-heavy [5] stays unmerged
    assert P([5]) in step.reduced.partitions
    assert step.reduced.nu % 2 == 0 and step.reduced.nu > 4


def test_fundamental_construct_examples():
    datum = BranchDatum("rp2", 5, (P([3, 2]), P([3, 2])))
    sigmas = fundamental_construct(datum)
    assert compose(*sigmas) == parse_cycles("(1 3 5)", 5)

    datum = BranchDatum("rp2", 5, (P([3, 2]), P([3, 2]), P([2, 2, 1])))
    sigmas = fundamental_construct(datum)
    assert len(sigmas) == 3
    assert compose(*sigmas).cycle_type() == P([3, 1, 1])
    for s, p in zip(sigmas, datum.partitions):
        assert s.cycle_type() == p
    assert is_transitive(sigmas) and is_primitive(sigmas)[0]

    with pytest.raises(InadmissibleError):
        fundamental_construct(BranchDatum("rp2", 3, (P([2, 1]), P([2, 1]))))
    with pytest.raises(InadmissibleError):  # gated, but one partition is no pair
        fundamental_construct(BranchDatum("rp2", 5, (P([5]),)))


def test_fundamental_construct_respects_caller_order_after_relabel():
    datum = BranchDatum("rp2", 5, (P([2, 1, 1, 1]), P([5]), P([2, 1, 1, 1])))
    sigmas = fundamental_construct(datum)
    for s, p in zip(sigmas, datum.partitions):
        assert s.cycle_type() == p
    assert compose(*sigmas).cycle_type() == P([3, 1, 1])
    assert is_transitive(sigmas) and is_primitive(sigmas)[0]


def test_fundamental_construct_four_partitions():
    datum = BranchDatum(
        "rp2", 7, (P([3, 2, 2]), P([2, 2, 2, 1]), P([3, 3, 1]), P([2, 2, 2, 1]))
    )
    sigmas = fundamental_construct(datum)
    assert compose(*sigmas).cycle_type() == P([5, 1, 1])
    for s, p in zip(sigmas, datum.partitions):
        assert s.cycle_type() == p
    assert is_primitive(sigmas)[0]


def _reorder_by_adjacent_swaps(sigmas, targets):
    """Reference for `construct._unwind_step`: carry each factor to its
    target position by adjacent swaps (x, y) -> (x*y*x^-1, x), in bubble-sort
    order."""
    pairs = [[t, s] for t, s in zip(targets, sigmas)]
    changed = True
    while changed:
        changed = False
        for i in range(len(pairs) - 1):
            if pairs[i][0] > pairs[i + 1][0]:
                x, y = pairs[i][1], pairs[i + 1][1]
                pairs[i], pairs[i + 1] = (
                    [pairs[i + 1][0], compose(compose(x, y), x.inverse())],
                    [pairs[i][0], x],
                )
                changed = True
    return [p for _, p in pairs]


@pytest.mark.parametrize("merged", [(0, 1), (0, 2), (1, 2)])
def test_unwind_step_matches_the_adjacent_swap_reference(merged):
    rng = random.Random(sum(merged))
    for s in range(3, 9):
        for _ in range(8):
            d = rng.choice((5, 7, 9, 12))
            sigmas = [Permutation(tuple(rng.sample(range(1, d + 1), d)), d) for _ in range(s)]
            h1, h2, *rest = sigmas
            keep = [i for i in range(s) if i not in merged]
            expected = _reorder_by_adjacent_swaps(sigmas, [*merged, *keep])
            stack = rest[::-1]
            construct._unwind_step(stack, merged, h1, h2)
            assert stack[::-1] == expected
            assert compose(*expected) == compose(*sigmas)


def _unwind_data(rng, d, count):
    """``count`` seeded admissible data of degree d with s = 2..8 branch
    points, after the one datum whose loop merges (0, 2).

    A merge other than (0, 1) needs the rest to carry one spare
    transposition, and it is (0, 2) when the first partition is a
    transposition too.  At d > 3 a merged partition has defect at least 2,
    so only a datum's own first three partitions can take (0, 2), and the
    gate leaves [2,1..1];[d];[2,1..1] alone.  A quarter of the seeded
    partitions are transpositions, so that (1, 2) comes up."""
    transposition = P([2] + [1] * (d - 2))
    data = [BranchDatum("rp2", d, (transposition, P([d]), transposition))]
    while len(data) < count:
        parts = []
        for _ in range(rng.randint(2, 8)):
            x = rng.random()
            if x < 0.25:
                parts.append(transposition)
            elif x < 0.3:
                parts.append(P([d]))
            else:
                k = rng.randint(2, d - 1)
                cuts = sorted(rng.sample(range(1, d), k - 1))
                parts.append(P([b - a for a, b in zip([0, *cuts], [*cuts, d])]))
        nu = sum(p.nu for p in parts)
        if nu % 2 == 0 and nu > d - 1:
            data.append(BranchDatum("rp2", d, tuple(parts)))
    return data


@pytest.mark.parametrize("d", [7, 9, 31, 101])
def test_build_hands_back_the_product_of_its_factors(monkeypatch, d):
    moves = set()

    def recording(stack, merged, h1, h2):
        moves.add(merged)
        _UNWIND_STEP(stack, merged, h1, h2)

    monkeypatch.setattr(construct, "_unwind_step", recording)
    memo = {}
    for datum in _unwind_data(random.Random(d), d, 60):
        sigmas, product = construct._build(datum, 0, None)
        assert product == compose(*sigmas), datum
        assert construct._build(datum, 0, memo) == (sigmas, product), datum
    assert moves == {(0, 1), (0, 2), (1, 2)}


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_many_branch_points_need_no_deep_stack():
    """s = 300 transpositions at d = 101, with about 100 frames to spare."""
    transposition = P([2] + [1] * 99)
    datum = BranchDatum("rp2", 101, (transposition,) * 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        cert = realize_rp2(datum)  # raises unless its verification passes
    finally:
        sys.setrecursionlimit(limit)
    assert len(cert.u_images) == 300


@pytest.mark.slow
def test_transposition_datum_beyond_a_thousand_branch_points():
    """s = d + 1 = 1002 transpositions at d = 1001."""
    transposition = P([2] + [1] * 999)
    cert = realize_rp2(BranchDatum("rp2", 1001, (transposition,) * 1002))
    assert len(cert.u_images) == 1002  # realize_rp2 returns verified certificates only


@pytest.mark.slow
def test_mixed_datum_of_1500_branch_points():
    """1500 seeded transpositions and double transpositions at d = 301."""
    d = 301
    shapes = (P([2] + [1] * (d - 2)), P([2, 2] + [1] * (d - 4)))
    parts = random.Random(1500).choices(shapes, weights=(7, 3), k=1500)
    if sum(p.nu for p in parts) % 2:
        parts.append(shapes[0])
    cert = realize_rp2(BranchDatum("rp2", d, tuple(parts)))
    assert len(cert.u_images) == len(parts)


def test_full_cycle_datum_pair_of_full_cycles():
    datum = BranchDatum("rp2", 5, (P([5]), P([5])))
    a, us = full_cycle_datum_construct(datum)
    assert compose(a, a, *us).is_identity()
    assert is_primitive([a, *us])[0]


def test_full_cycle_datum_mixed():
    for parts in (
        (P([3, 1, 1]), P([5])),
        (P([5]), P([3, 1, 1])),
        (P([5]), P([2, 2, 1]), P([5])),
        (P([9]), P([3, 3, 3])),
    ):
        d = parts[0].degree
        datum = BranchDatum("rp2", d, parts)
        a, us = full_cycle_datum_construct(datum)
        assert compose(a, a, *us).is_identity()
        for u, p in zip(us, parts):
            assert u.cycle_type() == p
        assert is_transitive([a, *us])
        assert is_primitive([a, *us])[0]


def test_full_cycle_datum_perturbation_branches():
    # data whose non-full partitions could multiply to the identity in a
    # naive placement (two [2,2,1]s; three identical 3-cycles): the
    # fundamental construction must still give a primitive certificate
    for parts in (
        (P([2, 2, 1]), P([2, 2, 1]), P([5])),
        (P([3, 1, 1]), P([3, 1, 1]), P([3, 1, 1]), P([5])),
    ):
        datum = BranchDatum("rp2", 5, parts)
        a, us = full_cycle_datum_construct(datum)
        assert compose(a, a, *us).is_identity()
        for u, p in zip(us, datum.partitions):
            assert u.cycle_type() == p
        assert is_primitive([a, *us])[0]


def test_every_datum_containing_the_full_cycle_is_built_without_search():
    """Every strict datum with a branch point [d] is realized by the
    fundamental construction, which calls no search
    (`tests/test_source.py::test_no_construction_step_falls_back_on_a_search`)."""
    count = 0
    for d, max_s in ((5, 4), (7, 4), (9, 3)):
        full = P([d])
        usable = [p for p in partitions_of(d) if not p.is_trivial()]
        memo: dict = {}
        for s in range(2, max_s + 1):
            for rest in combinations_with_replacement(usable, s - 1):
                for pos in range(s):  # [d] once or more, in every position
                    parts = (*rest[:pos], full, *rest[pos:])
                    datum = BranchDatum("rp2", d, parts)
                    if datum.nu % 2:
                        continue
                    cert = realize_rp2(datum, memo=memo)  # verified inside
                    assert cert.u_images[pos].cycle_type() == full
                    count += 1
    assert count > 2000


def test_full_cycle_datum_single_point():
    datum = BranchDatum("rp2", 5, (P([5]),))
    a, us = full_cycle_datum_construct(datum)
    assert compose(a, a, us[0]).is_identity()
    assert is_primitive([a, us[0]])[0]

    with pytest.raises(InadmissibleError):
        full_cycle_datum_construct(BranchDatum("rp2", 9, (P([9]),)))


def test_single_branch_verdict():
    assert single_branch_verdict(9) == "decomposable"
    assert single_branch_verdict(7) == "indecomposable"
    assert single_branch_verdict(5) == "indecomposable"
    assert single_branch_verdict(1) == "indecomposable"
    with pytest.raises(InadmissibleError):
        single_branch_verdict(4)


def test_trace_fields_on_case1_split():
    # surplus defect forces the split machinery on the kept points
    lam, beta, trace, _ = two_datum_construct(P([7]), P([7]))
    assert trace.case == "case1"
    assert trace.merge.kind == "split"

    # recover the merged partner on the kept points (case 1 deletes 1, 2
    # with beta0 = (3 2 1)) and recheck the reduced-problem invariants: the
    # reduced target [5] and a full-cycle product
    beta0 = from_cycles([(3, 2, 1)], 7)
    keep = (3, 4, 5, 6, 7)
    lifted = compose(beta0.inverse(), beta)
    beta_bar = project(lifted, keep)
    assert lifted == embed(beta_bar, 7)
    assert beta_bar.cycle_type() == P([5])
    assert len(compose(project(lam, keep), beta_bar).cycles()) == 1
