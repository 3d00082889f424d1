"""The merge, defect-control, and two-full-cycle factorization toolbox."""

import hashlib
import math
import random
import time
from itertools import combinations, permutations, product

import pytest

from branchcover import eks
from branchcover.construct import BranchDatum, fundamental_construct, two_datum_construct
from branchcover.eks import (
    EksError,
    _thread,
    eks_merge,
    factor_two_full_cycles,
    merge_with_trace,
    product_defect_exact,
    product_defect_reduced,
)
from branchcover.oracle import partitions_of
from branchcover.perm import (
    Partition,
    Permutation,
    all_in_class,
    canonical_in_class,
    compose,
    conjugate,
    embed,
    format_cycles,
    from_cycles,
    identity,
    parse_cycles,
    project,
    random_in_class,
)


def test_eks_merge_single_cycle_golden():
    lam = parse_cycles("(1 2 3)", 3)
    beta = eks_merge(lam, Partition([3]))
    assert beta == parse_cycles("(1 2 3)", 3)
    assert compose(lam, beta) == parse_cycles("(1 3 2)", 3)


def test_eks_merge_boundary_identity():
    lam = parse_cycles("(1 2 3 4 5 6 7)", 7)
    beta = eks_merge(lam, Partition([1] * 7))
    assert beta.is_identity()
    assert compose(lam, beta) == lam


def test_eks_merge_mixed_golden():
    lam = parse_cycles("(1 2 3)(4 5)", 5)
    beta = eks_merge(lam, Partition([3, 2]))
    # seed-0 output, pinned; validity is brute-force checked below
    assert beta == parse_cycles("(1 4)(2 3 5)", 5)
    assert compose(lam, beta) == parse_cycles("(1 3 4 2 5)", 5)
    valid = [
        b
        for b in all_in_class(Partition([3, 2]), 5)
        if len(compose(lam, b).cycles()) == 1
    ]
    assert beta in valid


def test_eks_merge_precondition_errors():
    lam = parse_cycles("(1 2)", 5)
    with pytest.raises(EksError):
        eks_merge(lam, Partition([2, 1, 1, 1]))  # defect sum too small
    with pytest.raises(EksError):
        eks_merge(parse_cycles("(1 2 3)", 5), Partition([4, 1]))  # parity


def test_eks_merge_exhaustive_small_degrees():
    for d in range(2, 8):
        for L in partitions_of(d):
            lam = canonical_in_class(L, d)
            for target in partitions_of(d):
                ns = L.nu + target.nu
                if ns < d - 1 or (ns - (d + 1)) % 2 != 0:
                    continue
                beta = eks_merge(lam, target)
                assert beta.cycle_type() == target
                assert len(compose(lam, beta).cycles()) == 1


def test_eks_merge_respects_anchor():
    rng = random.Random(9)
    for d in (5, 7, 9):
        for L in partitions_of(d):
            if L.is_trivial():
                continue
            lam = canonical_in_class(L, d)
            for target in partitions_of(d):
                ns = L.nu + target.nu
                if ns < d - 1 or (ns - (d + 1)) % 2 != 0:
                    continue
                entry = rng.choice(target.parts)
                # a point fixed by both factors blocks a full-cycle product,
                # so entry-1 anchors must sit on the support of lam
                pool = lam.support() if entry == 1 else lam.domain
                if not pool:
                    continue
                point = rng.choice(pool)
                beta = eks_merge(lam, target, anchor=(entry, point))
                assert beta.cycle_type() == target
                assert len(compose(lam, beta).cycles()) == 1
                home = next(c for c in beta.cycles() if point in c)
                assert len(home) == entry


def test_eks_merge_anchored_on_non_standard_domain():
    lam = from_cycles([(2, 6, 9), (4, 7)], [2, 4, 6, 7, 9])
    target = Partition([3, 2])
    beta = eks_merge(lam, target, anchor=(3, 6))
    assert beta.cycle_type() == target
    assert len(compose(lam, beta).cycles()) == 1
    assert len(next(c for c in beta.cycles() if 6 in c)) == 3


def test_merge_trace_kinds():
    _, trace = merge_with_trace(parse_cycles("(1 2 3)(4 5)", 5), Partition([2, 1, 1, 1]))
    assert trace.kind == "threading"
    lam = parse_cycles("(1 2 3)(4 5)", 5)
    beta, trace = merge_with_trace(lam, Partition([3, 2]))
    assert trace.kind == "split"
    assert beta.cycle_type() == Partition([3, 2])
    assert len(compose(lam, beta).cycles()) == 1


def _schedule_exists(fresh, sizes, anchor_point=None):
    """Brute-force reference for `_thread`: try every choice of distinct
    product cycles for each part, in the order given.  ``fresh`` lists the
    unconsumed points of each product cycle; the first part must consume
    ``anchor_point`` when one is given."""
    if not sizes:
        return True
    live = [g for g, pts in enumerate(fresh) if pts]
    for combo in combinations(live, sizes[0]):
        if anchor_point is not None and not any(anchor_point in fresh[g] for g in combo):
            continue
        merged = []
        for g in combo:
            pts = list(fresh[g])
            pts.remove(anchor_point if anchor_point in pts else pts[0])
            merged += pts
        rest = [pts for g, pts in enumerate(fresh) if g not in combo]
        if _schedule_exists(rest + [merged], sizes[1:]):
            return True
    return False


def test_thread_matches_brute_force_schedule_search():
    outcomes = {True: 0, False: 0}
    for d in range(2, 8):
        for L in partitions_of(d):
            lam = canonical_in_class(L, d)
            targets = [P for m in range(2, d + 1) for P in partitions_of(m) if 1 not in P.parts]
            for P in targets:
                parts = [(p, i) for i, p in enumerate(P.parts)]
                cases = [((), None)]
                cases += [((x,), None) for x in lam.domain]
                cases += [((), (i, x)) for i in range(len(parts)) for x in lam.domain]
                for reserved, anchor in cases:
                    fresh = [[x for x in c if x not in reserved] for c in lam.cycles()]
                    # _thread's order: the anchored part, then decreasing size
                    first = [] if anchor is None else [anchor[0]]
                    sizes = [parts[i][0] for i in first + [i for _, i in parts if i not in first]]
                    exists = _schedule_exists(fresh, sizes, anchor and anchor[1])
                    placed = _thread(lam, parts, reserved, anchor)
                    assert (placed is not None) == exists, (lam, parts, reserved, anchor)
                    outcomes[exists] += 1
                    if placed is None:
                        continue
                    assert all(len(placed[tag]) == p for p, tag in parts)
                    points = [x for c in placed.values() for x in c]
                    assert len(set(points)) == len(points)
                    assert not set(points) & set(reserved)
                    if anchor is not None:
                        assert anchor[1] in placed[anchor[0]]
                    prod = compose(lam, from_cycles(placed.values(), lam.domain))
                    assert len(prod.cycles()) == len(lam.cycles()) - sum(p - 1 for p, _ in parts)
    assert outcomes[True] > 0 and outcomes[False] > 0


def _split_inside_one_cycle(lam, parts, reserved=(), anchor=None):
    """A placement that splits the first cycle of lam instead of merging."""
    return {tag: lam.cycles()[0][:size] for size, tag in parts}


@pytest.mark.parametrize(
    "call",
    [
        lambda: merge_with_trace(parse_cycles("(1 2 3)(4 5)", 5), Partition([2, 1, 1, 1])),
        lambda: product_defect_exact(Partition([3, 1, 1]), Partition([2, 1, 1, 1])),
        lambda: product_defect_reduced(Partition([3, 2]), Partition([2, 2, 1])),
    ],
)
def test_postconditions_survive_without_asserts(monkeypatch, call):
    monkeypatch.setattr(eks, "_thread", _split_inside_one_cycle)
    with pytest.raises(EksError, match="output"):
        call()


def test_product_defect_exact_examples():
    a, b = product_defect_exact(Partition([2, 1, 1]), Partition([2, 1, 1]))
    assert a.cycle_type().parts == (2, 1, 1)
    assert b.cycle_type().parts == (2, 1, 1)
    assert compose(a, b).nu() == 2

    a, b = product_defect_exact(Partition([3, 2]), Partition([1] * 5))
    assert b.is_identity() and compose(a, b) == a

    a, b = product_defect_exact(Partition([3, 1]), Partition([1, 1, 1, 1]))
    assert compose(a, b).nu() == 2

    with pytest.raises(EksError):
        product_defect_exact(Partition([3, 2]), Partition([3, 2]))  # sum too big


def test_product_defect_exact_sweep():
    for d in range(2, 10):
        for A in partitions_of(d):
            for B in partitions_of(d):
                if A.nu + B.nu >= d:
                    continue
                a, b = product_defect_exact(A, B)
                assert a.cycle_type() == A and b.cycle_type() == B
                assert compose(a, b).nu() == A.nu + B.nu


def test_product_defect_reduced_appendix_shape():
    A = B = Partition([3, 2])
    a, b = product_defect_reduced(A, B)  # r = 2
    assert a == parse_cycles("(1 2 3)(4 5)", 5)
    assert b.cycle_type() == B and compose(a, b).cycle_type() == Partition([5])

    a, b = product_defect_reduced(A, Partition([2, 2, 1]))  # r = 1
    assert b.cycle_type() == Partition([2, 2, 1])
    assert compose(a, b).cycle_type() == Partition([4, 1])

    with pytest.raises(EksError):
        product_defect_reduced(Partition([2, 1, 1]), Partition([2, 1, 1]))  # r <= 0


def test_product_defect_reduced_sweep():
    for d in (5, 7, 9):
        for A in partitions_of(d):
            for B in partitions_of(d):
                r = A.nu + B.nu - (d - 1)
                if r <= 0:
                    continue
                a, b = product_defect_reduced(A, B)
                assert a.cycle_type() == A and b.cycle_type() == B
                assert compose(a, b).nu() == (d - 1) - r % 2


# every gated pair of degree <= 21 whose anchored split would reserve the
# anchor, a fixed point of lam, if it did not thread one part fewer
_ANCHOR_ON_A_FIXED_POINT = (
    "[5,2,2,2,2,1,1];[3,3,3,3,3]",
    "[5,2,2,2,2,2,1,1];[3,3,3,3,3,2]",
    "[5,2,2,2,2,2,2,1,1,1,1];[3,3,3,3,3,3,3]",
    "[5,2,2,2,2,2,2,1,1];[3,3,3,3,3,2,2]",
    "[5,2,2,2,2,2,2,1,1];[3,3,3,3,3,3,1]",
    "[5,2,2,2,2,2,2,2,1,1];[3,3,3,3,3,2,2,2]",
    "[5,2,2,2,2,2,2,2,1,1];[3,3,3,3,3,3,2,1]",
    "[5,2,2,2,2,2,2,2,2];[3,3,3,3,3,3,3]",
    "[5,3,2,2,2,2,2,2,1];[3,3,3,3,3,3,3]",
    "[6,2,2,2,2,2,2,2,1];[3,3,3,3,3,3,3]",
    "[7,2,2,2,2,2,2,1,1];[3,3,3,3,3,3,3]",
    "[7,3,2,2,2,2,1,1,1];[3,3,3,3,3,3,3]",
    "[7,3,3,2,2,1,1,1,1];[3,3,3,3,3,3,3]",
    "[7,3,3,3,1,1,1,1,1];[3,3,3,3,3,3,3]",
    "[7,4,2,2,2,1,1,1,1];[3,3,3,3,3,3,3]",
    "[7,4,3,2,1,1,1,1,1];[3,3,3,3,3,3,3]",
    "[7,4,4,1,1,1,1,1,1];[3,3,3,3,3,3,3]",
)


def test_anchored_split_needs_no_random_merge():
    """When f = 1 would reserve an anchor that lam fixes, `_merge_split`
    threads one part fewer so that the f-cycle takes the anchor."""
    pairs = [
        tuple(Partition.parse(t) for t in text.split(";"))
        for text in _ANCHOR_ON_A_FIXED_POINT
    ]
    for j in range(9):  # [5,2^(4+j),1,1];[3^5,2^j], d = 15..31
        pairs.append((Partition([5, *[2] * (4 + j), 1, 1]), Partition([*[3] * 5, *[2] * j])))
    for D1, D2 in pairs:
        lam, beta, trace, _ = two_datum_construct(D1, D2)  # checked at its exit
        assert trace.merge.kind == "split", (D1, D2)
        assert lam.cycle_type() == D1 and beta.cycle_type() == D2


def test_threading_builds_no_random_generator(monkeypatch):
    """Only the split path's factorization draws from the seed; a threading
    merge and an exact-defect product never seed one."""

    def no_rng(*args):
        raise AssertionError("random.Random built")

    monkeypatch.setattr(random, "Random", no_rng)
    lam = canonical_in_class(Partition([4, 1, 1, 1]), 7)
    beta, trace = merge_with_trace(lam, Partition([4, 1, 1, 1]), seed=5)
    assert trace.kind == "threading"
    assert len(compose(lam, beta).cycles()) == 1
    A, B = Partition([3, 2, 1, 1]), Partition([3, 1, 1, 1, 1])
    alpha, beta = product_defect_exact(A, B, seed=5)
    assert compose(alpha, beta).nu() == A.nu + B.nu
    with pytest.raises(AssertionError, match="random.Random built"):  # the split seeds one
        merge_with_trace(parse_cycles("(1 2 3)(4 5)", 5), Partition([3, 2]))


def _full_cycle_in_class(lam, target, anchor, classes):
    """Whether some member of the target, with the anchor, gives a
    full-cycle product with lam, by enumerating the class on 1..d.  The
    members, each with the length of each point's cycle, are kept in
    ``classes`` for the next call on the same target."""
    if target not in classes:
        classes[target] = [
            (beta, {x: len(c) for c in beta.cycles() for x in c})
            for beta in all_in_class(target, lam.degree)
        ]
    for beta, length in classes[target]:
        if anchor is not None and length[anchor[1]] != anchor[0]:
            continue
        if len(compose(lam, beta).cycles()) == 1:
            return True
    return False


def test_merge_split_is_complete_to_degree_eight():
    """`_merge_split` returns None only where no member of the target with
    the anchor gives a full cycle, which its docstring shows happens exactly
    for an anchor (1, p) with p fixed by lam: on canonical and seeded random
    lam of every class, every target, every anchor entry and point, and no
    anchor."""
    rng = random.Random(33)
    outcomes = {True: 0, False: 0}
    classes: dict = {}
    for d in range(1, 9):
        for L in partitions_of(d):
            lams = (canonical_in_class(L, d), *(random_in_class(L, d, rng) for _ in range(2)))
            for lam, target in product(lams, partitions_of(d)):
                ns = L.nu + target.nu
                if ns < d - 1 or (ns - (d + 1)) % 2 != 0:
                    continue
                entries = sorted(set(target.parts))
                for anchor in (None, *((e, x) for e in entries for x in lam.domain)):
                    got = eks._merge_split(lam, target, anchor, 0)
                    fixed = anchor is not None and anchor[0] == 1 and lam(anchor[1]) == anchor[1]
                    assert (got is None) == (fixed and d > 1), (lam, target, anchor)
                    outcomes[got is None] += 1
                    if got is None:
                        assert not _full_cycle_in_class(lam, target, anchor, classes)
                        continue
                    beta = got[0]
                    assert beta.cycle_type() == target
                    assert len(compose(lam, beta).cycles()) == 1
                    if anchor is not None:
                        assert len(next(c for c in beta.cycles() if anchor[1] in c)) == anchor[0]
    assert outcomes[True] > 800 and outcomes[False] > 15000


def test_unsatisfiable_anchor_fails_fast():
    """An anchor that no member can meet raises at once: the point 11 is
    fixed by lam, so a target cycle of length 1 through it would fix it in
    the product too.  A class-wide search took 10 to 30 s on such inputs."""
    lam = canonical_in_class(Partition([6, 4, 1]), 11)
    start = time.perf_counter()
    with pytest.raises(EksError, match="no merge schedule"):
        eks_merge(lam, Partition([9, 1, 1]), anchor=(1, 11))
    assert time.perf_counter() - start < 0.5


# sha256 of format_cycles(beta) for the split merge below, at d = 8001
SPLIT_D8001_DIGEST = "a256e4dee3b0099f09e5a0c7659cc191eef1e5e3c05a36481abdf580639bdc02"


def test_split_merge_is_quasi_linear_at_degree_8001():
    """`_merge_split` picks the remainder's points from one set built once.
    With a set built per point this call took about 1 s on a 2-core x86-64
    VM; with one set it takes about 0.02 s."""
    d = 8001
    lam = canonical_in_class(Partition([d - 4, 3, 1]), d)
    target = Partition([3, 3] + [1] * (d - 6))
    start = time.perf_counter()
    beta, trace = merge_with_trace(lam, target)
    assert time.perf_counter() - start < 0.3
    assert trace.kind == "split"
    assert hashlib.sha256(format_cycles(beta).encode()).hexdigest() == SPLIT_D8001_DIGEST


def test_one_cycle_stops_on_a_table_that_is_not_a_bijection():
    """The walk from 0 falls into the cycle (1 2), which misses 0, and stops
    after len(table) steps."""
    assert eks._one_cycle((1, 2, 1)) is False
    assert eks._one_cycle((1, 2, 0)) is True  # a full cycle takes all n steps


def test_factor_two_full_cycles_examples():
    s, g = factor_two_full_cycles(parse_cycles("(1 2 3)", 3))
    assert s == g == parse_cycles("(1 3 2)", 3)
    s, g = factor_two_full_cycles(parse_cycles("(1 2)(3 4)", 4))
    assert compose(s, g) == parse_cycles("(1 2)(3 4)", 4)
    assert len(s.support()) == 4 and len(g.support()) == 4
    with pytest.raises(EksError):
        factor_two_full_cycles(identity(4))
    with pytest.raises(EksError):
        factor_two_full_cycles(parse_cycles("(1 2)", 4))


def test_factor_two_full_cycles_exhaustive_to_six():
    for n in range(2, 7):
        for imgs in permutations(range(1, n + 1)):
            tau = Permutation(imgs)
            if tau.is_identity() or tau.nu() % 2 != 0:
                continue
            s, g = factor_two_full_cycles(tau)
            assert compose(s, g) == tau
            assert len(s.nontrivial_cycles()) == 1 and len(s.support()) == n
            assert len(g.nontrivial_cycles()) == 1 and len(g.support()) == n


def test_factor_deterministic_given_seed():
    tau = parse_cycles("(1 2 3)(4 5 6)", 7)
    assert factor_two_full_cycles(tau, seed=4) == factor_two_full_cycles(tau, seed=4)
    tau_pinned = factor_two_full_cycles(tau, seed=0)
    assert compose(*tau_pinned) == tau


def _is_two_full_cycles_of(tau, pair):
    sigma, gamma = pair
    return (
        len(sigma.cycles()) == 1
        and len(gamma.cycles()) == 1
        and compose(sigma, gamma) == tau
    )


def test_factor_explicit_every_even_permutation_to_eight():
    count = 0
    for n in range(2, 9):
        for imgs in permutations(range(1, n + 1)):
            tau = Permutation(imgs)
            if tau.is_identity() or tau.nu() % 2 != 0:
                continue
            assert _is_two_full_cycles_of(tau, eks._factor_explicit(tau)), tau
            count += 1
    assert count == 23109


def test_factor_explicit_even_cycle_pairs():
    for p in range(2, 41, 2):
        for q in range(2, 41, 2):
            tau = from_cycles([range(1, p + 1), range(p + 1, p + q + 1)], p + q)
            assert _is_two_full_cycles_of(tau, eks._factor_explicit(tau)), (p, q)


def test_factor_explicit_on_a_gapped_domain():
    tau = from_cycles([(3, 9), (5, 12), (7, 20, 31)], (3, 5, 7, 9, 12, 20, 31, 40))
    assert _is_two_full_cycles_of(tau, eks._factor_explicit(tau))


@pytest.mark.slow
@pytest.mark.parametrize("n", [10**4, 10**4 + 1])
def test_factor_explicit_at_scale(n):
    rng = random.Random(n)
    imgs = list(range(1, n + 1))
    rng.shuffle(imgs)
    if Permutation(imgs).nu() % 2:
        imgs[0], imgs[1] = imgs[1], imgs[0]
    tau = Permutation(imgs)
    start = time.perf_counter()
    pair = eks._factor_explicit(tau)
    assert time.perf_counter() - start < 1.0
    assert _is_two_full_cycles_of(tau, pair)


class _Unshuffled(random.Random):
    """A generator whose shuffle leaves the list as it is."""

    def shuffle(self, x):
        pass


def _record_explicit(monkeypatch):
    """The list of every tau that `_factor_explicit` is called on from now."""
    explicit, calls = eks._factor_explicit, []

    def recording(tau):
        calls.append(tau)
        return explicit(tau)

    monkeypatch.setattr(eks, "_factor_explicit", recording)
    return calls


@pytest.mark.parametrize("n", [9, 15])
def test_factor_returns_when_every_seeded_trial_fails(monkeypatch, n):
    """Unshuffled positions make every trial's gamma the canonical n-cycle,
    which is tau here, so tau * gamma^-1 is the identity and only the
    explicit construction can answer."""
    tau = canonical_in_class(Partition([n]), n)
    calls = _record_explicit(monkeypatch)
    assert _is_two_full_cycles_of(tau, eks._factor_two_cycles_rng(tau, _Unshuffled(0)))
    assert calls == [tau]


def test_seeded_factorization_checks_its_winner(monkeypatch):
    """The winning trial is checked by an explicit raise, not an assert:
    a cofactor whose sigma is not a full cycle is an `EksError`."""
    tau = canonical_in_class(Partition([9]), 9)
    monkeypatch.setattr(eks, "full_cycle_cofactor", lambda t, rng, trials: tau)
    with pytest.raises(EksError, match="seeded factorization"):
        factor_two_full_cycles(tau)


def _reference_factor_rng(tau, rng):
    """The seeded trial loop that `perm.full_cycle_cofactor` replaced: each
    trial builds gamma, its inverse and sigma as permutations and lists
    sigma's cycles."""
    n = len(tau.domain)
    for _ in range(64 * n):
        gamma = random_in_class(Partition([n]), tau.domain, rng)
        sigma = compose(tau, gamma.inverse())
        if len(sigma.cycles()) == 1:
            return sigma, gamma
    return eks._factor_explicit(tau)


def test_seeded_factorization_matches_the_reference_loop(monkeypatch):
    """Seeded even tau at n = 2..61, on 1..n and on gapped domains, and
    every sixteenth tau once more under a shuffle that leaves the positions in
    order, which mostly falls through to the explicit route: the same
    (sigma, gamma) as the reference loop, and the generator left in the same
    state."""
    rng = random.Random(29)
    taus = []
    for n in range(2, 62):
        for dom in (n, tuple(sorted(rng.sample(range(1, 3 * n), n)))):
            for _ in range(3):
                cls = _random_partition(rng, n)
                while cls.nu % 2 or (cls.is_trivial() and n > 2):  # [1,1] alone at n = 2
                    cls = _random_partition(rng, n)
                taus.append(random_in_class(cls, dom, rng))
    fell_through = _record_explicit(monkeypatch)
    for k, tau in enumerate(taus):
        for make in (random.Random, _Unshuffled) if k % 16 == 0 else (random.Random,):
            new_rng, ref_rng = make(k), make(k)
            got = eks._factor_two_cycles_rng(tau, new_rng)
            assert _is_two_full_cycles_of(tau, got)
            assert got == _reference_factor_rng(tau, ref_rng), tau
            assert new_rng.getstate() == ref_rng.getstate()
    assert len(fell_through) >= 2 * 15  # once per side


def _log_uniform_partition(rng, d):
    """A partition of d into 2..d-1 parts, their number log-uniform."""
    k = min(max(round(math.exp(rng.uniform(math.log(2), math.log(d - 1)))), 2), d - 1)
    cuts = sorted(rng.sample(range(1, d), k - 1))
    return Partition([b - a for a, b in zip([0, *cuts], [*cuts, d])])


def test_seeded_factorization_builds_no_permutation_per_trial(monkeypatch):
    """Seeded d = 301 data with log-uniform part counts: each call of
    `_factor_two_cycles_rng` builds three permutations (gamma, its inverse
    and sigma), however many trials it runs."""
    of = Permutation._of.__func__
    built = []

    def counted_of(cls, table, domain):
        built.append(1)
        return of(cls, table, domain)

    factor = eks._factor_two_cycles_rng
    calls = []  # (permutations built, trials run) per call

    def counted_factor(tau, rng):
        shuffle, trials = rng.shuffle, []
        rng.shuffle = lambda x: trials.append(shuffle(x))
        before = len(built)
        pair = factor(tau, rng)
        calls.append((len(built) - before, len(trials)))
        return pair

    monkeypatch.setattr(Permutation, "_of", classmethod(counted_of))
    monkeypatch.setattr(eks, "_factor_two_cycles_rng", counted_factor)
    rng = random.Random(301)
    d = 301
    for _ in range(8):
        parts = (_log_uniform_partition(rng, d), _log_uniform_partition(rng, d))
        while (parts[0].nu + parts[1].nu) % 2 or parts[0].nu + parts[1].nu < d:
            parts = (_log_uniform_partition(rng, d), _log_uniform_partition(rng, d))
        fundamental_construct(BranchDatum("rp2", d, parts), 0)
    assert len(calls) >= 8
    assert all(n == 3 for n, _ in calls), calls
    assert max(t for _, t in calls) >= 20, calls


def test_factor_explicit_output_check_survives_without_asserts(monkeypatch):
    monkeypatch.setattr(eks, "sqrt_odd_cycle", lambda p: p)
    with pytest.raises(EksError, match="explicit factorization"):
        eks._factor_explicit(parse_cycles("(1 2 3)(4 5 6 7 8)", 9))


def _random_partition(rng, d):
    k = rng.randint(1, d)
    cuts = sorted(rng.sample(range(1, d), k - 1))
    return Partition([b - a for a, b in zip([0, *cuts], [*cuts, d])])


def _on_labels(p, sub):
    """p, a permutation of 1..m, moved onto the labels ``sub`` in order."""
    return from_cycles([[sub[x - 1] for x in c] for c in p.cycles()], sub)


def aligning_conjugator(sigma, target_cycle, fixed):
    """eta with eta * sigma^-1 * eta^-1 equal to the written target cycle and
    eta(fixed) == fixed: the reference conjugator of the route that
    `_place_remainder` replaced."""
    target = tuple(target_cycle)
    if len(set(target)) != len(target):
        raise EksError("target cycle repeats a label")
    if sorted(target) != list(sigma.domain):
        raise EksError("target cycle length or labels mismatch the point set")
    if fixed not in target:
        raise EksError("distinguished point absent from the target cycle")
    sig_inv = sigma.inverse()
    cycles = sig_inv.nontrivial_cycles()
    if len(cycles) != 1 or len(cycles[0]) != len(sigma.domain):
        raise EksError("sigma is not a full cycle on the point set")
    src, tgt = eks._rotated(cycles[0], fixed), eks._rotated(target, fixed)
    return Permutation.from_mapping(dict(zip(src, tgt)), sigma.domain).inverse()


def _place_by_conjugation(tau, sigma, index, star, prod):
    """The route `_place_remainder` replaced: tau and sigma on the points of
    sub themselves, `aligning_conjugator` onto the projection of prod,
    `conjugate`, then `embed`."""
    sub = sorted(index)
    pi_cycle = next(c for c in project(prod, sub).cycles() if len(c) == len(sub))
    eta = aligning_conjugator(_on_labels(sigma, sub), pi_cycle, star)
    return embed(conjugate(_on_labels(tau, sub), eta), prod.domain)


def test_split_placement_matches_the_conjugation_route(monkeypatch):
    """Seeded split merges, free and anchored, on standard and gapped
    domains up to d = 61.  The remainder is placed as the conjugation route
    places it, and factoring it on 1..m draws what factoring it on the
    points of sub draws (the relabelling keeps their order)."""
    calls = []
    place = eks._place_remainder

    def recording(*args):  # with the seed of the merge running it
        calls.append((seed, args, place(*args)))
        return calls[-1][2]

    monkeypatch.setattr(eks, "_place_remainder", recording)
    rng = random.Random(61)
    splits = {False: 0, True: 0}
    for _ in range(400):
        d = rng.randrange(5, 62)
        dom = tuple(range(1, d + 1))
        if rng.random() < 0.5:
            dom = tuple(sorted(rng.sample(range(1, 3 * d), d)))
        L, T = _random_partition(rng, d), _random_partition(rng, d)
        ns = L.nu + T.nu
        if ns < d - 1 or (ns - (d + 1)) % 2 != 0:
            continue
        lam = random_in_class(L, dom, rng)
        anchor = None
        if rng.random() < 0.5:
            entry = rng.choice(T.parts)
            pool = lam.support() if entry == 1 else dom
            if pool:
                anchor = (entry, rng.choice(pool))
        seed = rng.randrange(1000)
        before = len(calls)
        _, trace = merge_with_trace(lam, T, seed=seed, anchor=anchor)
        assert len(calls) - before == (trace.kind == "split")
        splits[anchor is not None] += trace.kind == "split"
    assert min(splits.values()) >= 30
    for seed, (tau, sigma, index, star, prod), placed in calls:
        assert placed == _place_by_conjugation(tau, sigma, index, star, prod)
        sub = sorted(index)
        sigma_sub, _ = eks._factor_two_cycles_rng(_on_labels(tau, sub), random.Random(seed))
        assert sigma_sub == _on_labels(sigma, sub)


def test_aligning_conjugator():
    sigma = parse_cycles("(1 3 2)", 3)  # sigma^-1 == (1 2 3)
    eta = aligning_conjugator(sigma, (3, 1, 2), fixed=3)
    assert eta(3) == 3
    assert conjugate(sigma.inverse(), eta) == parse_cycles("(3 1 2)", 3)

    # already aligned: identity is acceptable and deterministic
    eta = aligning_conjugator(sigma, (1, 2, 3), fixed=2)
    assert eta(2) == 2
    assert conjugate(sigma.inverse(), eta) == parse_cycles("(1 2 3)", 3)

    with pytest.raises(EksError):
        aligning_conjugator(sigma, (1, 2), fixed=1)
    with pytest.raises(EksError):
        aligning_conjugator(sigma, (1, 2, 3), fixed=9)


def test_aligning_conjugator_randomized():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 9)
        dom = tuple(range(1, n + 1))
        seq = list(dom)
        rng.shuffle(seq)
        sigma = from_cycles([seq], dom)
        target = list(dom)
        rng.shuffle(target)
        fixed = rng.choice(dom)
        eta = aligning_conjugator(sigma, target, fixed)
        assert eta(fixed) == fixed
        assert conjugate(sigma.inverse(), eta) == from_cycles([target], dom)
