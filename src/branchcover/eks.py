"""Factorization toolbox for controlled-defect products.

Three services, each verified on every call:

* merge a permutation with a target cycle type so the product is a full
  cycle (`eks_merge`), optionally anchoring a designated point inside a
  designated cycle of the output;
* realize exact or reduced defect for a product of two prescribed cycle
  types (`product_defect_exact` by threading alone; `product_defect_reduced`
  by one merge onto canonical alpha, `_canonical_merge`, followed for odd
  surplus by one transposition that splits the full-cycle product into two
  cycles: the odd step's merge is the even step's merge onto the target
  with one part split off, so `construct` shares it within a census);
* factor a non-trivial even permutation into two full cycles
  (`factor_two_full_cycles`), the step by which a split merge absorbs its
  even remainder.

The primary merge path is greedy cycle threading: each k-cycle of the
output consumes one fresh element from each of k distinct cycles of the
running product, merging them (any such choice merges, so only the
availability of fresh elements can stall the schedule; taking the cycles
with the most fresh elements stalls only when every schedule does).  One
path, `_merge_split`, serves every merge, anchored or not: it threads the
smallest parts of the target while their defect fits, which is the whole
target when there is no surplus defect (merge kind 'threading'); otherwise
the even remainder is factored into two full cycles on 1..m, the points
left for it numbered in order, and placed by one relabelling that carries
one factor onto the running product's cycle (merge kind 'split').
`merge_with_trace` hands back that kind, a `MergeTrace`, and records
nothing else of a merge.  The two-full-cycle
factorization (`_factor_two_cycles_rng`) tries seeded random full cycles
first (`full_cycle_cofactor`, one index-table walk per trial), which keep
certificates as they were, and ends with an explicit O(n) construction
(`_factor_explicit`), so it always returns.  Two fallbacks
remain: that of the merge (`_search_merge`, which no gated two-partition
datum of degree up to 21 reaches) and that of exact threading
(`_search_defect`, which threading never leaves to fire).  Outputs are
always checked, so a fallback that does fire still carries correctness.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import Iterable, Sequence

from .perm import (
    Partition,
    Permutation,
    _product_table,
    all_in_class,
    canonical_in_class,
    compose,
    from_cycles,
    full_cycle_cofactor,
    random_in_class,
    sqrt_odd_cycle,
)


class EksError(ValueError):
    """Precondition violation or exhausted internal search."""


MergeTrace = namedtuple("MergeTrace", "kind")  # kind: 'threading' | 'split' | 'search'


# -- greedy threading -----------------------------------------------------------


def _thread(
    lam: Permutation,
    parts: Sequence[tuple[int, object]],
    reserved: Iterable[int] = (),
    anchor: tuple[object, int] | None = None,
) -> dict[object, tuple[int, ...]] | None:
    """Place the tagged parts as cycles, each merging that many distinct
    cycles of the running product of lam with the placed cycles.

    Returns the cycles by tag, or None when no schedule exists.
    ``anchor=(tag, point)`` forces the tagged part's cycle to consume
    ``point``; reserved points are never consumed.

    One pass, no search: the anchored part goes first, then the parts by
    decreasing size.  Each takes one fresh point from each of the product
    cycles with the most fresh points.  This is complete for that order:
    only the number A of cycles with a fresh point and the surplus
    S = sum(fresh - 1) matter, a part of size p leads to (A-p+1, S-1) when
    its cycles carry surplus and to (A-p, S) when they do not, taking the
    largest cycles carries surplus whenever any is left, and the first
    state dominates the second.  So None means every choice fails.
    """
    reserved = set(reserved)
    fresh = [sorted(x for x in cyc if x not in reserved) for cyc in lam.cycles()]
    order = sorted(
        range(len(parts)),
        key=lambda i: (
            0 if anchor is not None and parts[i][1] == anchor[0] else 1,
            -parts[i][0],
            i,
        ),
    )
    placed: dict[object, tuple[int, ...]] = {}
    for i in order:
        size, tag = parts[i]
        chosen: list[int] = []
        elems: list[int] = []
        if anchor is not None and tag == anchor[0]:
            home = next((g for g, f in enumerate(fresh) if anchor[1] in f), None)
            if home is None:
                return None
            chosen.append(home)
            elems.append(anchor[1])
        pool = sorted(
            (g for g, f in enumerate(fresh) if f and g not in chosen),
            key=lambda g: (-len(fresh[g]), g),
        )
        picks = sorted(pool[: size - len(chosen)])
        if len(chosen) + len(picks) < size:
            return None
        chosen += picks
        elems += [fresh[g][0] for g in picks]
        merged = sorted(x for g in chosen for x in fresh[g] if x not in elems)
        for g in chosen:
            fresh[g] = []
        fresh[chosen[0]] = merged
        placed[tag] = tuple(elems)
    return placed


# -- randomized / exhaustive fallbacks ------------------------------------------


def _random_in_class_anchored(cls: Partition, domain, anchor, rng) -> Permutation:
    if anchor is None:
        return random_in_class(cls, domain, rng)
    a_e, pt = anchor
    parts = list(cls.parts)
    parts.remove(a_e)
    labels = [x for x in domain if x != pt]
    rng.shuffle(labels)
    cycles = [(pt, *labels[: a_e - 1])]
    i = a_e - 1
    for part in parts:
        cycles.append(tuple(labels[i : i + part]))
        i += part
    return from_cycles(cycles, domain)


def _anchor_ok(beta: Permutation, anchor) -> bool:
    if anchor is None:
        return True
    a_e, pt = anchor
    for cyc in beta.cycles():
        if pt in cyc:
            return len(cyc) == a_e
    return False


def _search_merge(lam, target, anchor, seed):
    rng = random.Random(seed)
    budget = 256 + 64 * lam.degree
    for _ in range(budget):
        beta = _random_in_class_anchored(target, lam.domain, anchor, rng)
        if len(compose(lam, beta).cycles()) == 1:
            return beta
    if lam.degree <= 11:
        for beta in all_in_class(target, lam.domain):
            if _anchor_ok(beta, anchor) and len(compose(lam, beta).cycles()) == 1:
                return beta
    return None


# -- surplus-defect split --------------------------------------------------------


def _canonical_tau(t2_parts: Sequence[int], mod_index: int, star: int, us: Sequence[int]):
    """Canonical member of the remainder class on 1..m with ``star``
    leading the modified entry's cycle; all parts are >= 2 so every point
    moves."""
    labels = list(us)
    cycles = []
    i = 0
    for pos, part in enumerate(t2_parts):
        if pos == mod_index:
            cycles.append((star, *labels[i : i + part - 1]))
            i += part - 1
        else:
            cycles.append(tuple(labels[i : i + part]))
            i += part
    return from_cycles(cycles, len(us) + 1)


def _merge_split(lam: Permutation, target: Partition, anchor, seed):
    """Threading merge: thread the smallest parts of the target while their
    defect fits under a full cycle.  With no surplus defect that is the whole
    target and the threading is the answer; otherwise the even remainder is
    absorbed through a two-full-cycle factorization placed back onto the
    running full cycle (`_place_remainder`); only that factorization draws
    from the ``seed``.

    Returns beta and whether the merge split, or None when the schedule
    fails.  The caller has checked that an anchor entry is a part of the
    target: 1, one of the threaded parts E[:k] or one of the tail."""
    dbar = lam.degree
    t = len(lam.cycles())
    nu_lam = dbar - t
    ones = sum(1 for p in target.parts if p == 1)
    E = sorted(p for p in target.parts if p > 1)

    k, acc = 0, 0
    while k < len(E) and nu_lam + acc + (E[k] - 1) <= dbar - 1:
        acc += E[k] - 1
        k += 1
    f = dbar - nu_lam - acc
    if f == 1 and k > 0 and anchor is not None and anchor[0] not in (1, *E[:k]):
        if lam(anchor[1]) == anchor[1]:
            # f = 1 would reserve the anchor, a fixed point of lam and so a
            # whole live cycle: thread one part fewer, so that f >= 2 and the
            # f-cycle takes the anchor
            k -= 1
            f += E[k] - 1

    tail = E[k:]
    mode = "free"
    j_idx = 0
    if anchor is not None:
        a_e, pt = anchor
        if a_e == 1 or a_e in E[:k]:
            mode = "2a"
        else:
            mode = "2b"
            j_idx = tail.index(a_e)

    parts: list[tuple[int, object]] = [(e, ("ret", i)) for i, e in enumerate(E[:k])]
    if f >= 2:
        parts.append((f, "f"))
    reserved: list[int] = []
    thread_anchor = None
    if anchor is not None:
        a_e, pt = anchor
        if mode == "2a":
            if a_e == 1:
                reserved.append(pt)
            else:
                idx = E[:k].index(a_e)
                thread_anchor = (("ret", idx), pt)
        else:  # 2b: anchor the f-cycle
            if f >= 2:
                thread_anchor = ("f", pt)
            else:
                reserved.append(pt)

    placed = _thread(lam, parts, reserved, thread_anchor)
    if placed is None:
        return None
    beta_prime = from_cycles(placed.values(), lam.domain)
    if not tail:
        return beta_prime, False
    prod = compose(lam, beta_prime)
    if len(prod.cycles()) != 1:
        return None

    fixed = set(beta_prime.fixed_points())
    if anchor is not None and mode == "2b":
        star = anchor[1]
    elif f >= 2:
        star = min(placed["f"])
    else:
        pool = sorted(fixed - set(reserved))
        star = pool[0]

    remaining_fixed = sorted(fixed - {star})
    F: list[int] = []
    if anchor is not None and mode == "2a" and anchor[0] == 1:
        F.append(anchor[1])
        remaining_fixed = [x for x in remaining_fixed if x != anchor[1]]
    F.extend(remaining_fixed[: ones - len(F)])
    taken = set(F)
    us = [x for x in remaining_fixed if x not in taken]
    z = dbar - ones - sum(E[:k]) - f
    if len(us) != z or z < 2:
        return None

    # the remainder is built on 1..m, the points of sub in order: the
    # relabelling keeps the order, so the seeded draws are those on sub
    sub = sorted([star, *us])
    index = {x: i for i, x in enumerate(sub, 1)}
    t2_parts = list(tail)
    t2_parts[j_idx] = tail[j_idx] - f + 1
    tau = _canonical_tau(t2_parts, j_idx, index[star], [index[x] for x in us])
    sigma, _ = factor_two_full_cycles(tau, seed)
    return compose(beta_prime, _place_remainder(tau, sigma, index, star, prod)), True


def _place_remainder(tau, sigma, index, star, prod) -> Permutation:
    """tau, an even permutation of 1..m with tau == sigma * gamma for full
    cycles sigma and gamma, placed on the full cycle ``prod``'s domain.

    ``index`` numbers the points of sub 1..m in order, ``star`` among them.
    One relabelling carries the cycle of sigma^-1 onto prod's cycle
    restricted to sub, both read from star, and tau's cycles through it;
    points outside sub stay fixed.  It does what conjugating tau on sub by
    the conjugator that aligns sigma^-1 onto that cycle, fixing star, and
    embedding the result would do (the tests keep that route as their
    reference).
    """
    sig = _rotated(sigma.cycles()[0], index[star])
    src = (sig[0], *sig[:0:-1])  # sigma^-1 runs sigma's cycle backwards
    tgt = _rotated([x for x in prod.cycles()[0] if x in index], star)
    place = dict(zip(src, tgt))
    return from_cycles([[place[x] for x in c] for c in tau.cycles()], prod.domain)


def _rotated(cycle: Sequence[int], point: int) -> tuple[int, ...]:
    """The cycle written to start at ``point``."""
    i = cycle.index(point)
    return (*cycle[i:], *cycle[:i])


# -- public operations -----------------------------------------------------------


def _one_cycle(table: Sequence[int]) -> bool:
    """Whether a 0-based index table is one cycle through every point: a
    single walk from point 0, with no permutation or cycle list built.  The
    walk stops after len(table) steps, so a table that is not a bijection,
    whose walk may never return to 0, gives False."""
    n = len(table)
    if not n:
        return False
    i, length = table[0], 1
    while i and length <= n:
        i = table[i]
        length += 1
    return length == n


def merge_with_trace(
    lam: Permutation,
    target: Partition,
    seed: int = 0,
    anchor: tuple[int, int] | None = None,
) -> tuple[Permutation, MergeTrace]:
    """eks_merge returning the construction trace alongside the output."""
    dbar = lam.degree
    if target.degree != dbar:
        raise EksError("target partition degree does not match the permutation")
    nu_sum = lam.nu() + target.nu
    if nu_sum < dbar - 1:
        raise EksError(f"defect sum {nu_sum} below {dbar - 1}: no full-cycle product")
    if (nu_sum - (dbar + 1)) % 2 != 0:
        raise EksError("defect parity obstruction: no full-cycle product")
    if anchor is not None and anchor[0] not in target.parts:
        raise EksError("anchor entry is not a part of the target")

    got = _merge_split(lam, target, anchor, seed)
    if got is not None:
        beta, split = got
        trace = MergeTrace(kind="split" if split else "threading")
    else:
        beta = _search_merge(lam, target, anchor, seed)
        if beta is None:
            raise EksError("internal merge search exhausted (defect)")
        trace = MergeTrace(kind="search")

    if beta.cycle_type() != target:
        raise EksError(f"{trace.kind} merge output has the wrong cycle type")
    if beta.domain != lam.domain or not _one_cycle(_product_table((lam, beta))):
        raise EksError(f"{trace.kind} merge output gives no full-cycle product")
    if not _anchor_ok(beta, anchor):
        raise EksError(f"{trace.kind} merge output misses the anchor")
    return beta, trace


def eks_merge(
    lam: Permutation,
    target: Partition,
    seed: int = 0,
    anchor: tuple[int, int] | None = None,
) -> Permutation:
    """A member of ``target`` whose product with lam is a full cycle.

    Requires nu(lam) + nu(target) >= d-1 with the opposite parity of d.
    ``anchor=(entry, point)`` additionally places ``point`` inside a cycle
    of length ``entry`` of the output (for entry 1: point stays fixed).
    """
    return merge_with_trace(lam, target, seed, anchor)[0]


def product_defect_exact(
    A: Partition, B: Partition, seed: int = 0
) -> tuple[Permutation, Permutation]:
    """alpha in A, beta in B with nu(alpha*beta) == nu(A) + nu(B).

    With nu(A) + nu(B) <= d-1, threading B's parts onto canonical alpha
    always finds enough live cycles: while surplus remains, the live count
    is t - sum(p-1) >= 1 over the t cycles of alpha and the parts placed so
    far, and after that live = fresh >= sum(p) of the remaining parts.
    """
    if A.degree != B.degree:
        raise EksError("partition degrees differ")
    d = A.degree
    if A.nu + B.nu >= d:
        raise EksError("defect sum too large for exact addition")
    alpha = canonical_in_class(A, d)
    placed = _thread(alpha, [(p, i) for i, p in enumerate(B.parts) if p > 1])
    if placed is not None:
        beta = from_cycles(placed.values(), alpha.domain)
    else:
        beta = _search_defect(alpha, B, A.nu + B.nu, random.Random(seed))
        if beta is None:
            raise EksError("internal search exhausted (defect)")
    if beta.cycle_type() != B:
        raise EksError("exact-defect output has the wrong cycle type")
    if compose(alpha, beta).nu() != A.nu + B.nu:
        raise EksError("exact-defect output misses the defect sum")
    return alpha, beta


def _search_defect(alpha, B, want_nu, rng):
    budget = 256 + 64 * alpha.degree
    for _ in range(budget):
        beta = random_in_class(B, alpha.domain, rng)
        if compose(alpha, beta).nu() == want_nu:
            return beta
    if alpha.degree <= 11:
        for beta in all_in_class(B, alpha.domain):
            if compose(alpha, beta).nu() == want_nu:
                return beta
    return None


def product_defect_reduced(
    A: Partition, B: Partition, seed: int = 0
) -> tuple[Permutation, Permutation]:
    """alpha in A, beta in B whose product is a full cycle when r is even and
    has two cycles when r is odd, where nu(A) + nu(B) = (d-1) + r with r > 0.

    Even r is one merge of B onto canonical alpha.  Odd r is the even merge
    onto B' = B with its smallest part b >= 2 replaced by (b-1, 1), whose
    defect sum (d-1) + (r-1) has the merge's parity, plus one transposition:
    the output times a transposition joining a (b-1)-cycle (a fixed point
    when b = 2) to another fixed point restores the b-cycle, and a
    transposition on two points of the full-cycle product splits it into two
    cycles.  Both run the one merge `_canonical_merge(A, target, seed)`, so
    the odd step's merge is the call that the even step with B' makes.
    """
    return _reduced(A, B, seed, _canonical_merge)[:2]


def _canonical_merge(A: Partition, target: Partition, seed: int):
    """Canonical alpha in A and `eks_merge(alpha, target, seed)`."""
    alpha = canonical_in_class(A, A.degree)
    return alpha, eks_merge(alpha, target, seed)


def _reduced(A: Partition, B: Partition, seed: int, merge):
    """`product_defect_reduced`, with its merge ``merge(A, target, seed)``
    returning what `_canonical_merge` returns: `construct` passes one that
    shares the merge within a census.  Returns alpha, beta and the product
    alpha * beta that the defect check composed."""
    if A.degree != B.degree:
        raise EksError("partition degrees differ")
    d = A.degree
    r = A.nu + B.nu - (d - 1)
    if r <= 0:
        raise EksError("defect sum not above the full-cycle threshold")
    if r % 2 == 0:
        alpha, beta = merge(A, B, seed)
    else:
        b = min(p for p in B.parts if p > 1)
        parts = list(B.parts)
        parts.remove(b)
        alpha, beta = merge(A, Partition([*parts, b - 1, 1]), seed)
        x = next(c[0] for c in beta.cycles() if len(c) == b - 1)
        y = next(p for p in beta.fixed_points() if p != x)
        beta = compose(beta, from_cycles([(x, y)], alpha.domain))
    if beta.cycle_type() != B:
        raise EksError("reduced-defect output has the wrong cycle type")
    product = compose(alpha, beta)
    if product.nu() != (d - 1) - r % 2:
        raise EksError("reduced-defect output misses the reduced defect")
    return alpha, beta, product


def factor_two_full_cycles(
    tau: Permutation, seed: int = 0
) -> tuple[Permutation, Permutation]:
    """Full cycles (sigma, gamma) on tau's point set with sigma*gamma == tau.

    tau must be a non-trivial even permutation.
    """
    if tau.is_identity():
        raise EksError("trivial permutation: factorization hypothesis needs nu > 0")
    if tau.nu() % 2 != 0:
        raise EksError("odd permutation is not a product of two full cycles")
    return _factor_two_cycles_rng(tau, random.Random(seed))


def _factor_two_cycles_rng(tau, rng):
    """64n seeded trials (`full_cycle_cofactor`), then the explicit route."""
    gamma = full_cycle_cofactor(tau, rng, 64 * len(tau.domain))
    if gamma is None:
        return _factor_explicit(tau)
    sigma = compose(tau, gamma.inverse())
    if len(sigma.cycles()) != 1:
        raise EksError("seeded factorization trial is not two full cycles over tau")
    return sigma, gamma


def _factor_explicit(tau):
    """Full cycles (sigma, gamma) with sigma*gamma == tau for any even tau,
    written down in one pass (Bertram 1972).

    Each piece of the point set gets its own pair: an odd cycle c (a fixed
    point included) its square root r twice, since r*r == c; two even
    cycles a = (a1..ap) and b = (b1..bq), paired in cycle order,
    gamma_i = (a1 b1 a2 b2 ap..a3 bq..b3) and sigma_i = ab * gamma_i^-1,
    a (p+q)-cycle.  The cycle J through the first point of every piece
    joins them: sigma = prod(sigma_i) * J and gamma = J^-1 * prod(gamma_i).
    """
    sig: dict[int, int] = {}
    gam: dict[int, int] = {}
    heads: list[int] = []
    evens = []
    for c in tau.cycles():
        if len(c) % 2 == 0:
            evens.append(c)
            continue
        r = sqrt_odd_cycle(from_cycles([c], sorted(c))).cycles()[0]
        heads.append(r[0])
        for x, y in zip(r, r[1:] + r[:1]):
            sig[x] = gam[x] = y
    for a, b in zip(evens[::2], evens[1::2]):
        g = (a[0], b[0], a[1], b[1], *a[:1:-1], *b[:1:-1])
        heads.append(g[0])
        g_next = g[1:] + g[:1]
        back = dict(zip(g_next, g))
        for x, y in zip(g, g_next):
            gam[x] = y
            sig[x] = back[tau(x)]
    join = dict(zip(heads, heads[1:] + heads[:1]))
    unjoin = {y: x for x, y in join.items()}
    dom = tau.domain
    sigma = Permutation([join.get(sig[x], sig[x]) for x in dom], dom)
    gamma = Permutation([gam[unjoin.get(x, x)] for x in dom], dom)
    if len(sigma.cycles()) != 1 or len(gamma.cycles()) != 1 or compose(sigma, gamma) != tau:
        raise EksError("explicit factorization output is not two full cycles over tau")
    return sigma, gamma
