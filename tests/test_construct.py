"""The two-partition construction, reduction, induction, and [d]-data."""

from itertools import combinations_with_replacement

import pytest

from branchcover import construct
from branchcover.construct import (
    BranchDatum,
    ConstructionTrace,
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
    lam, beta, trace = two_datum_construct(P([3, 2]), P([3, 2]))
    assert trace.case == "case2-table" and trace.appendix_index == 1
    assert lam == parse_cycles("(1 2 3)(4 5)", 5)
    assert beta == parse_cycles("(5 4 1)(3 2)", 5)
    _check_pair(P([3, 2]), P([3, 2]), lam, beta)


def test_two_datum_degree_three():
    lam, beta, trace = two_datum_construct(P([3]), P([3]))
    assert trace.case == "d3"
    assert beta == lam.inverse()
    assert compose(lam, beta).is_identity()
    _check_pair(P([3]), P([3]), lam, beta)


def test_two_datum_appendix_line_seven():
    lam, beta, trace = two_datum_construct(P([3, 3, 3]), P([3, 3, 3]))
    assert trace.appendix_index == 7
    assert compose(lam, beta) == parse_cycles("(1 4 7 9 6 3 8)", 9)
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
    lam, beta, trace = two_datum_construct(P([5, 2]), P([4, 3]))
    assert trace.case == "case1"
    keep = tuple(x for x in range(1, 8) if x not in trace.deleted)
    assert compose(lam, trace.beta0) == embed(project(lam, keep), 7)
    _check_pair(P([5, 2]), P([4, 3]), lam, beta)


def test_two_datum_case_dispatch_order_swap():
    # construction normalizes to the defect-heavy side; output order must
    # still match the caller's argument order
    lam, beta, trace = two_datum_construct(P([2, 2, 2, 1]), P([4, 3]))
    assert trace.swapped
    _check_pair(P([2, 2, 2, 1]), P([4, 3]), lam, beta)


def test_two_datum_full_cycle_partitions():
    lam, beta, _ = two_datum_construct(P([5]), P([5]))
    _check_pair(P([5]), P([5]), lam, beta)
    lam, beta, _ = two_datum_construct(P([5]), P([2, 2, 1]))
    _check_pair(P([5]), P([2, 2, 1]), lam, beta)
    lam, beta, _ = two_datum_construct(P([9]), P([3, 3, 1, 1, 1]))
    _check_pair(P([9]), P([3, 3, 1, 1, 1]), lam, beta)


def test_two_datum_exhaustive_sweep_small():
    for d in (3, 5, 7, 9):
        usable = [p for p in partitions_of(d) if not p.is_trivial()]
        for A, B in combinations_with_replacement(usable, 2):
            nu = A.nu + B.nu
            if nu % 2 != 0 or nu <= d - 1:
                continue
            lam, beta, _ = two_datum_construct(A, B)
            _check_pair(A, B, lam, beta)


@pytest.mark.parametrize(
    "step, wrong, call",
    [
        (
            "embed",
            lambda p, d: Permutation.identity(d),
            lambda: two_datum_construct(P([5, 2]), P([4, 3])),
        ),
        (
            "_reorder_factors",
            lambda sigmas, targets: sigmas[::-1],
            lambda: fundamental_construct(
                BranchDatum("rp2", 5, (P([3, 2]), P([3, 2]), P([2, 2, 1])))
            ),
        ),
        (
            "_reorder_factors",
            lambda sigmas, targets: sigmas[::-1],
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


def test_full_cycle_datum_pair_of_full_cycles():
    datum = BranchDatum("rp2", 5, (P([5]), P([5])))
    a, us = full_cycle_datum_construct(datum)
    # trivial rotated product: the extra generator is a transposition
    assert a.cycle_type() == P([2, 1, 1, 1])
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
    # canonical placements of the two [2,2,1]s multiply to the identity and
    # every cycle has length <= 2: the symbol-swap perturbation must fire
    datum = BranchDatum("rp2", 5, (P([2, 2, 1]), P([2, 2, 1]), P([5])))
    a, us = full_cycle_datum_construct(datum)
    assert compose(a, a, *us).is_identity()
    for u, p in zip(us, datum.partitions):
        assert u.cycle_type() == p
    assert is_primitive([a, *us])[0]

    # three identical 3-cycles multiply to the identity: the inversion
    # perturbation must fire
    datum = BranchDatum(
        "rp2", 5, (P([3, 1, 1]), P([3, 1, 1]), P([3, 1, 1]), P([5]))
    )
    a, us = full_cycle_datum_construct(datum)
    assert compose(a, a, *us).is_identity()
    for u, p in zip(us, datum.partitions):
        assert u.cycle_type() == p
    assert is_primitive([a, *us])[0]


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
    # surplus defect forces the split machinery; its trace must carry the
    # two-full-cycle factorization data
    lam, beta, trace = two_datum_construct(P([7]), P([7]))
    assert trace.case == "case1"
    assert trace.merge.kind == "split"
    split = trace.merge.split
    assert compose(split.sigma, split.gamma) == split.tau
    assert split.beta_second.cycle_type() == split.remainder_part

    # rebuild the merged partner from the split pieces and recheck the
    # reduced-problem invariants on the kept points
    keep = tuple(x for x in range(1, 8) if x not in trace.deleted)
    lam_bar = project(lam, keep)
    beta_bar = compose(
        split.beta_prime, embed(split.beta_second, lam_bar.domain)
    )
    assert beta_bar.cycle_type() == trace.reduced_d2
    assert len(compose(lam_bar, beta_bar).cycles()) == 1
