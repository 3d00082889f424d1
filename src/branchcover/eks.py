"""Factorization toolbox for controlled-defect products.

Three services, each verified on every call:

* merge a permutation with a target cycle type so the product is a full
  cycle (`eks_merge`), optionally anchoring a designated point inside a
  designated cycle of the output;
* realize exact or reduced defect for a product of two prescribed cycle
  types (`product_defect_exact` by threading alone; `product_defect_reduced`
  by one merge, followed for odd surplus by one transposition that splits
  the full-cycle product into two cycles);
* factor a non-trivial even permutation into two full cycles
  (`factor_two_full_cycles`) and align a full cycle onto a written one by
  a conjugation fixing a marked point (`aligning_conjugator`).

The primary merge path is greedy cycle threading: each k-cycle of the
output consumes one fresh element from each of k distinct cycles of the
running product, merging them (any such choice merges, so only the
availability of fresh elements can stall the schedule; taking the cycles
with the most fresh elements stalls only when every schedule does).  One
path, `_merge_split`, serves every merge, anchored or not: it threads the
smallest parts of the target while their defect fits, which is the whole
target when there is no surplus defect (merge kind 'threading'); otherwise
the even remainder is realized as a conjugated product of two full cycles
(merge kind 'split').  The two-full-cycle factorization
(`_factor_two_cycles_rng`) tries seeded random full cycles first, which
keep certificates as they were, and ends with an explicit O(n)
construction (`_factor_explicit`), so it always returns.  Two fallbacks
remain: that of the merge (`_search_merge`, which no gated two-partition
datum of degree up to 21 reaches) and that of exact threading
(`_search_defect`, which threading never leaves to fire).  Outputs are
always checked, so a fallback that does fire still carries correctness.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Sequence

from .perm import (
    Partition,
    Permutation,
    all_in_class,
    canonical_in_class,
    compose,
    conjugate,
    embed,
    from_cycles,
    project,
    random_in_class,
    sqrt_odd_cycle,
)


class EksError(ValueError):
    """Precondition violation or exhausted internal search."""


class SplitTrace(NamedTuple):
    """Intermediates of the surplus-defect path."""

    remainder_part: Partition      # even remainder on the small point set
    f: int
    z: int
    beta_prime: Permutation
    beta_second: Permutation
    tau: Permutation
    sigma: Permutation
    gamma: Permutation
    eta: Permutation


class MergeTrace(NamedTuple):
    kind: str                      # 'threading' | 'split' | 'search'
    split: SplitTrace | None = None


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
    """Canonical member of the remainder class with ``star`` leading the
    modified entry's cycle; all parts are >= 2 so every point moves."""
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
    dom = sorted((star, *us))
    return from_cycles(cycles, dom)


def _merge_split(lam: Permutation, target: Partition, anchor, seed):
    """Threading merge: thread the smallest parts of the target while their
    defect fits under a full cycle.  With no surplus defect that is the whole
    target and the threading is the answer (split trace None); otherwise the
    even remainder is absorbed through a two-full-cycle factorization
    aligned back into the running full cycle; only that factorization draws
    from the ``seed``."""
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
        elif a_e in tail:
            mode = "2b"
            j_idx = tail.index(a_e)
        else:
            return None

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
        return beta_prime, None
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

    sub = sorted([star, *us])
    pi = project(prod, sub)
    t2_parts = list(tail)
    t2_parts[j_idx] = tail[j_idx] - f + 1
    tau = _canonical_tau(t2_parts, j_idx, star, us)
    sigma, gamma = _factor_two_cycles_rng(tau, random.Random(seed))
    pi_cycle = next(c for c in pi.cycles() if len(c) == len(sub))
    eta = aligning_conjugator(sigma, pi_cycle, star)
    beta_second = conjugate(tau, eta)
    beta_bar = compose(beta_prime, embed(beta_second, lam.domain))

    trace = SplitTrace(
        remainder_part=Partition(t2_parts),
        f=f,
        z=z,
        beta_prime=beta_prime,
        beta_second=beta_second,
        tau=tau,
        sigma=sigma,
        gamma=gamma,
        eta=eta,
    )
    return beta_bar, trace


# -- public operations -----------------------------------------------------------


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
        trace = MergeTrace(kind="threading" if split is None else "split", split=split)
    else:
        beta = _search_merge(lam, target, anchor, seed)
        if beta is None:
            raise EksError("internal merge search exhausted (defect)")
        trace = MergeTrace(kind="search")

    if beta.cycle_type() != target:
        raise EksError(f"{trace.kind} merge output has the wrong cycle type")
    if len(compose(lam, beta).cycles()) != 1:
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

    Even r is one merge of B onto canonical alpha.  Odd r merges
    B' = B with its smallest part b >= 2 replaced by (b-1, 1), whose defect
    sum (d-1) + (r-1) has the merge's parity, then multiplies the output by
    a transposition joining a (b-1)-cycle (a fixed point when b = 2) to
    another fixed point: that restores the b-cycle, and a transposition on
    two points of the full-cycle product splits it into two cycles.
    """
    if A.degree != B.degree:
        raise EksError("partition degrees differ")
    d = A.degree
    r = A.nu + B.nu - (d - 1)
    if r <= 0:
        raise EksError("defect sum not above the full-cycle threshold")
    alpha = canonical_in_class(A, d)
    if r % 2 == 0:
        beta = eks_merge(alpha, B, seed)
    else:
        b = min(p for p in B.parts if p > 1)
        parts = list(B.parts)
        parts.remove(b)
        beta = eks_merge(alpha, Partition([*parts, b - 1, 1]), seed)
        x = next(c[0] for c in beta.cycles() if len(c) == b - 1)
        y = next(p for p in beta.fixed_points() if p != x)
        beta = compose(beta, from_cycles([(x, y)], alpha.domain))
    if beta.cycle_type() != B:
        raise EksError("reduced-defect output has the wrong cycle type")
    if compose(alpha, beta).nu() != (d - 1) - r % 2:
        raise EksError("reduced-defect output misses the reduced defect")
    return alpha, beta


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
    dom = tau.domain
    n = len(dom)
    full = Partition([n])
    for _ in range(64 * n):
        gamma = random_in_class(full, dom, rng)
        sigma = compose(tau, gamma.inverse())
        if len(sigma.cycles()) == 1:
            return sigma, gamma
    return _factor_explicit(tau)


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


def aligning_conjugator(
    sigma: Permutation, target_cycle: Sequence[int], fixed: int
) -> Permutation:
    """eta with eta * sigma^-1 * eta^-1 equal to the written target cycle and
    eta(fixed) == fixed."""
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
    src = cycles[0]
    src = src[src.index(fixed) :] + src[: src.index(fixed)]
    tgt = target[target.index(fixed) :] + target[: target.index(fixed)]
    return Permutation.from_mapping(dict(zip(src, tgt)), sigma.domain).inverse()
