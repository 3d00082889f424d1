"""Acceptance criteria.

One test per criterion; each prints a single PASS line with its headline
numbers straight to the terminal.  Every tolerance is exact: these are
permutation identities, not numerics.
"""

import random
import time
from itertools import combinations, combinations_with_replacement, permutations

from branchcover.construct import BranchDatum, load_appendix_table, two_datum_construct
from branchcover.eks import factor_two_full_cycles
from branchcover.groups import is_primitive, is_transitive
from branchcover.oracle import (
    brute_force_two_datum,
    census,
    exhaustive_blocks,
    partitions_of,
)
from branchcover.perm import (
    Partition,
    Permutation,
    compose,
    embed,
    from_cycles,
    project,
    sqrt_odd_cycle,
)
from branchcover.realize import realize_rp2, realize_sphere, verify_certificate
from reference import insertion_recombine

P = Partition


def _announce(capsys, message):
    with capsys.disabled():
        print(message)


def _gated_pairs(d):
    usable = [p for p in partitions_of(d) if not p.is_trivial()]
    for A, B in combinations_with_replacement(usable, 2):
        nu = A.nu + B.nu
        if nu % 2 == 0 and nu > d - 1:
            yield A, B


def test_criterion_1_appendix_replay(capsys):
    load_appendix_table.cache_clear()  # each load checks every row
    start = time.perf_counter()
    rows = load_appendix_table()
    elapsed = time.perf_counter() - start
    assert len(rows) == 19
    assert elapsed < 1.0
    _announce(capsys, f"PASS criterion 1: appendix replay 19/19 exact in {elapsed:.3f}s")


def _reduced_d1(case, A, B):
    """Cycle type of the reduced lam that each case's deletion predicts."""
    c = A.parts
    if case == "case1":
        expect = [c[0] - 2, *c[1:]]
    elif case == "case2-general" and B.parts[1] == 2:
        expect = [c[0] - 2, (c[1] - 2) + (c[2] - 1), *c[3:]]
    elif case == "case2-general":
        expect = [(c[0] - 2) + (c[3] - 1), (c[1] - 2) + (c[2] - 1), *c[4:]]
    elif c[0] <= 4:  # case3, deleting from the first two cycles
        expect = [c[0] - 2, c[1] - 2, *c[2:]]
    else:  # case3, deleting four points of the first cycle
        expect = [c[0] - 4, *c[1:]]
    return P(p for p in expect if p >= 1)


def _deletion(case, A, B):
    """The points each case deletes from canonical lam in A, and the partial
    partner beta0 it chooses.  a_ij is the j-th point of lam's i-th cycle.
    beta0 moves exactly the deleted points, except in case 1, where it also
    moves a_13, the anchor of the merge on the kept points."""
    starts = [1]
    for part in A.parts[:-1]:
        starts.append(starts[-1] + part)
    a = [(s, s + 1) for s in starts]  # (a_i1, a_i2)
    if case == "case1":
        deleted, cycles = (1, 2), [(3, 2, 1)]
    elif case == "case2-general" and B.parts[1] == 2:
        cycles = [(a[0][1], a[0][0]), (a[1][1], a[1][0], a[2][0])]
        deleted = (*a[0], *a[1], a[2][0])
    elif case == "case2-general":
        cycles = [(a[0][1], a[0][0], a[3][0]), (a[1][1], a[1][0], a[2][0])]
        deleted = (*a[0], *a[1], a[2][0], a[3][0])
    elif A.parts[0] <= 4:  # case3, deleting from the first two cycles
        deleted, cycles = (*a[0], *a[1]), [a[0], a[1][::-1]]
    else:  # case3, deleting four points of the first cycle
        deleted, cycles = (1, 2, 3, 4), [(1, 2), (3, 4)]
    return deleted, from_cycles(cycles, A.degree)


def _check_reinsertion(A, B, lam, beta, case):
    """beta = beta0 * embed(beta_bar), the product recombines from the
    reduced problem on the kept points, and the reduced lam has the type
    the case predicts."""
    if A.nu < B.nu:  # the construction works on the defect-heavy side first
        A, B, lam, beta = B, A, beta, lam
    d = A.degree
    deleted, beta0 = _deletion(case, A, B)
    keep = tuple(x for x in range(1, d + 1) if x not in deleted)
    lifted = compose(beta0.inverse(), beta)
    beta_bar = project(lifted, keep)
    assert lifted == embed(beta_bar, d)
    lamb0 = compose(lam, beta0)
    if case == "case1":
        assert lamb0 == embed(project(lam, keep), d)
    downstairs = compose(project(lamb0, keep), beta_bar)
    assert insertion_recombine(lamb0, downstairs, keep) == compose(lam, beta)
    assert project(lamb0, keep).cycle_type() == _reduced_d1(case, A, B)


def test_criterion_2_two_partition_theorem_desk_scale(capsys):
    start = time.perf_counter()
    count = reinserted = 0
    for d in (3, 5, 7, 9, 11, 13):
        want = P([d - 2, 1, 1])
        for A, B in _gated_pairs(d):
            lam, beta, trace, _ = two_datum_construct(A, B)
            assert lam.cycle_type() == A and beta.cycle_type() == B
            assert compose(lam, beta).cycle_type() == want
            assert is_transitive([lam, beta])
            assert is_primitive([lam, beta])[0]
            if trace.case in ("case1", "case2-general", "case3"):
                _check_reinsertion(A, B, lam, beta, trace.case)
                reinserted += 1
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(
        capsys,
        f"PASS criterion 2: {count} admissible pairs at d in 3..13 all "
        f"realized and verified, {reinserted} re-insertions recombined, "
        f"in {elapsed:.1f}s"
    )


def test_criterion_3_oracle_agreement(capsys):
    witnesses = 0
    for d in (3, 5, 7):
        want = P([d - 2, 1, 1])
        for A, B in _gated_pairs(d):
            assert brute_force_two_datum(A, B, want) is not None, (A, B)
            witnesses += 1

    rng = random.Random(42)
    agreements = 0
    for _ in range(200):
        d = rng.randint(2, 8)
        while True:
            gens = [
                Permutation(tuple(rng.sample(range(1, d + 1), d)))
                for _ in range(rng.randint(1, 3))
            ]
            if is_transitive(gens):
                break
        nontrivial = [
            s for s in exhaustive_blocks(gens) if 1 < s.block_size < d
        ]
        assert is_primitive(gens)[0] == (not nontrivial)
        agreements += 1
    _announce(
        capsys,
        f"PASS criterion 3: oracle witness for {witnesses}/"
        f"{witnesses} pairs; blocks vs primitivity {agreements}/200 agree"
    )


def test_criterion_4_census_over_projective_plane(capsys):
    start = time.perf_counter()
    totals = {}
    for d in (5, 7, 9, 11):
        constructed = {2: 0, 3: 0}
        for row in census(d, 3):
            # census does not verify again: realize_rp2 verifies each
            # certificate once (exact relation check included) and raises
            # VerificationError unless valid-indecomposable; chi is
            # re-derived here
            chi = d - row.nu
            if row.nu > d:
                assert chi <= 0
            if row.classification == "constructed":
                s = row.datum.count(";") + 1
                constructed[2 if s <= 2 else 3] += 1
        totals[d] = constructed
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    summary = ", ".join(
        f"d={d}: {v[2]}+{v[3]}" for d, v in totals.items()
    )
    _announce(
        capsys,
        f"PASS criterion 4: census all valid-indecomposable "
        f"(s<=2 + s=3 counts: {summary}) in {elapsed:.0f}s"
    )


def test_criterion_5_sphere_theorem_samples(capsys):
    rng = random.Random(20210 + 8)
    verified = 0
    for d in (5, 7, 9, 11):
        head = P([d - 2, 1, 1])
        usable = [p for p in partitions_of(d) if not p.is_trivial()]
        found = 0
        while found < 30:
            s = rng.randint(3, 4)
            tail = tuple(rng.choice(usable) for _ in range(s - 1))
            nu = head.nu + sum(p.nu for p in tail)
            if nu % 2 != 0 or nu < 2 * d - 2:
                continue
            datum = BranchDatum("s2", d, (head, *tail))
            cert = realize_sphere(datum)
            report = verify_certificate(cert)
            assert report.verdict == "valid-indecomposable", datum
            assert compose(*cert.u_images).is_identity()
            found += 1
            verified += 1
    _announce(capsys, f"PASS criterion 5: {verified}/120 random sphere data verified")


def test_criterion_6_full_cycle_datum(capsys):
    from branchcover.construct import single_branch_verdict

    assert single_branch_verdict(9) == "decomposable"
    assert single_branch_verdict(5) == "indecomposable"
    assert single_branch_verdict(7) == "indecomposable"

    for text in ("[5];[5]", "[3,1,1];[5]"):
        datum = BranchDatum(
            "rp2", 5, tuple(P.parse(t) for t in text.split(";"))
        )
        cert = realize_rp2(datum)
        report = verify_certificate(cert)
        assert report.verdict == "valid-indecomposable", text
    _announce(
        capsys,
        "PASS criterion 6: single-branch verdicts exact; "
        "[5];[5] and [3,1,1];[5] certificates verified primitive"
    )


def test_criterion_7_algebraic_property_suites(capsys):
    # nu parity of products, exhaustive through degree 5
    checked_parity = 0
    for d in (2, 3, 4, 5):
        perms = [Permutation(i) for i in permutations(range(1, d + 1))]
        for p in perms:
            for q in perms:
                assert (compose(p, q).nu() - p.nu() - q.nu()) % 2 == 0
                checked_parity += 1

    # square roots of odd cycles through length 15
    rng = random.Random(0)
    checked_sqrt = 0
    for r in range(3, 16, 2):
        for d in (r, r + 2):
            seen = [tuple(range(1, r + 1))] + [
                tuple(rng.sample(range(1, d + 1), r)) for _ in range(25)
            ]
            for pts in seen:
                p = from_cycles([pts], d)
                root = sqrt_odd_cycle(p)
                assert compose(root, root) == p
                assert root.support() == p.support()
                checked_sqrt += 1

    # projection/embedding round trip and insertion recombination, d <= 6
    checked_ins = 0
    for d in (1, 2, 3, 4, 5, 6):
        dom = tuple(range(1, d + 1))
        for imgs in permutations(dom):
            lam = Permutation(imgs)
            for r in range(1, d + 1):
                for keep in combinations(dom, r):
                    pl = project(lam, keep)
                    assert project(embed(pl, d), keep) == pl
                    sub = list(keep)
                    rng.shuffle(sub)
                    b = Permutation(tuple(sub), keep)
                    assert insertion_recombine(
                        lam, compose(pl, b), keep
                    ) == compose(lam, embed(b, d))
                    checked_ins += 1

    # two-full-cycle factorization of every non-trivial even permutation
    checked_factor = 0
    for n in range(2, 7):
        for imgs in permutations(range(1, n + 1)):
            tau = Permutation(imgs)
            if tau.is_identity() or tau.nu() % 2 != 0:
                continue
            s, g = factor_two_full_cycles(tau)
            assert compose(s, g) == tau
            assert len(s.support()) == n == len(g.support())
            assert len(s.nontrivial_cycles()) == 1 == len(g.nontrivial_cycles())
            checked_factor += 1

    _announce(
        capsys,
        f"PASS criterion 7: parity {checked_parity}, sqrt {checked_sqrt}, "
        f"insertion {checked_ins}, factorization {checked_factor} checks, "
        "zero tolerance"
    )
