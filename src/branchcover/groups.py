"""Transitivity, blocks and primitivity of generated permutation groups.

The block machinery is the classical minimal-block closure: the finest
generator-stable equivalence identifying a seed pair.  Its classes form a
block system, and scanning the pairs (first point, x) decides primitivity
with an explicit witness when the group is imprimitive.  The scan closes
only the least point of each orbit of S on the other points, where S is
the set of generators that fix the first point (Sims 1970): a G-stable
equivalence is stable under every element fixing the first point, so x
and its images under S have the same closure, and the least x with a
proper closure, the witness, is always such an orbit minimum.

Every question is answered from one representation: the 0-based forward
image table of each generator (`Permutation._table`), the form in which a
permutation is stored.  The orbit walk and the closure both run on it,
and no inverse table is built.  Transitivity is one walk from the first
point that only counts the points it reaches.  An entry that needs a
transitive group raises `IntransitiveError` for any other.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, prod
from typing import Sequence

from .perm import Permutation, compose


class GroupError(ValueError):
    """Generator sets violating an operation's preconditions."""


class IntransitiveError(GroupError):
    """An operation defined for transitive groups got an intransitive one."""


BlockSystem = namedtuple("BlockSystem", "degree blocks block_size")
BlockSystem.__doc__ = "An invariant partition of the points into equal-size blocks."


def _check_gens(gens: Sequence[Permutation]) -> tuple[int, ...]:
    if not gens:
        raise GroupError("need at least one generator")
    dom = gens[0].domain
    for g in gens[1:]:
        if g.domain != dom:
            raise GroupError("generators act on different domains")
    return dom


def _reaches_all(tables, n: int) -> bool:
    """Whether the orbit of index 0 under the 0-based image ``tables``
    covers all n indices; False on an empty domain, which has no orbit.
    The walk stops at the n-th point it reaches."""
    if not n:
        return False
    seen = bytearray(n)
    seen[0] = 1
    orbit = [0]
    for x in orbit:  # the list grows while it is walked
        for t in tables:
            y = t[x]
            if not seen[y]:
                seen[y] = 1
                orbit.append(y)
                if len(orbit) == n:
                    return True
    return len(orbit) == n


def is_transitive(gens: Sequence[Permutation]) -> bool:
    dom = _check_gens(gens)
    return _reaches_all([g._table for g in gens], len(dom))


def _block_closure(tables, dom: tuple[int, ...], a: int, b: int):
    """Classes of the finest generator-stable equivalence with a ~ b.

    Atkinson's closure on one union-find list over ``tables``, the 0-based
    forward image tables of the generators (`Permutation._table`);
    ``a`` and ``b`` are 0-based positions in ``dom``.  Returns None when
    everything falls into one class (stopping at the (n-1)-th merge), else
    the classes as sorted label tuples ordered by their smallest label.

    No inverse tables are needed: an equivalence stable under g is stable
    under every power of g, and g has finite order k, so it is stable under
    g^-1 = g^(k-1).  The finest equivalence stable under the generators is
    therefore the finest one stable under the group, and the verdict and
    the classes are those of a closure over generators and inverses.
    """
    n = len(dom)
    if n == 2:
        return None
    parent = list(range(n))
    parent[b] = a
    merges = 1
    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        for t in tables:
            u = t[x]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            v = t[y]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                merges += 1
                if merges == n - 1:
                    return None
                queue.append((u, v))
    classes: dict[int, list[int]] = {}
    for i in range(n):
        r = i
        while parent[r] != r:
            r = parent[r]
        classes.setdefault(r, []).append(dom[i])
    return tuple(tuple(c) for c in classes.values())


def _largest_proper_divisor(d: int) -> int:
    """The largest divisor of d below d: 1 exactly when d is prime (or d <= 1)."""
    k = 2
    while k * k <= d:
        if d % k == 0:
            return d // k
        k += 1
    return 1


def is_primitive(
    gens: Sequence[Permutation],
) -> tuple[bool, BlockSystem | None]:
    """Exact primitivity test; returns a witness block system when imprimitive.

    A transitive group of prime degree is primitive without a closure: the
    size of a block divides the degree.  Otherwise Atkinson's closure of
    (first point, x) runs for x = 1..d-1 in increasing order, skipping every
    x already marked: before its closure each x marks its orbit under S,
    the generators whose table sends index 0 to 0 (only those; no other
    element of the stabiliser is built).  Every h in <S> fixes the first
    point, and the closure of (0, x) is G-stable, so it holds (0, h(x))
    and equals the closure of (0, h(x)).  The first x with a proper
    closure is therefore an orbit minimum, reached in the same order as
    by the unpruned scan, so the verdict and the witness block system are
    the unpruned scan's, and the base point stays the first point.  With
    S empty nothing is skipped.
    """
    dom = _check_gens(gens)
    d = len(dom)
    if d < 2:
        raise GroupError("primitivity needs at least two points")
    tables = [g._table for g in gens]
    if not _reaches_all(tables, d):
        raise IntransitiveError("primitivity is defined for transitive groups only")
    if _largest_proper_divisor(d) == 1:
        return True, None
    stabilising = [t for t in tables if t[0] == 0]
    marked = bytearray(d)
    for x in range(1, d):
        if marked[x]:
            continue
        marked[x] = 1
        orbit = [x]
        for y in orbit:  # the list grows while it is walked
            for t in stabilising:
                z = t[y]
                if not marked[z]:
                    marked[z] = 1
                    orbit.append(z)
        classes = _block_closure(tables, dom, 0, x)
        if classes is None:
            continue
        sizes = {len(c) for c in classes}
        if len(sizes) != 1:
            raise GroupError("closure classes of a transitive group differ in size")
        size = sizes.pop()
        if d % size != 0:
            raise GroupError(f"block size {size} does not divide the degree {d}")
        return False, BlockSystem(degree=d, blocks=classes, block_size=size)
    return True, None


def _witness_cycle(gens: Sequence[Permutation], l: int) -> bool:
    """Whether a power of one generator is an l-cycle, with gcd(l, d) = 1 and
    l above every proper divisor of d: a transitive group the generators span
    is then primitive.

    A power of g is an l-cycle when l occurs once among g's cycle lengths
    and is coprime to every other one, that is to their product.  A block
    meeting that cycle's support either is moved by the cycle, so it holds
    no fixed point of it and its images tile the support, and its size
    divides l; or it is kept, so it holds the whole support, and its size is
    at least l.  Its size also divides d, so it is one point or every point
    (Wielandt, *Finite Permutation Groups*, 1964).
    """
    d = gens[0].degree
    if gcd(l, d) != 1 or l <= _largest_proper_divisor(d):
        return False
    for g in gens:
        parts = g.cycle_type().parts
        if parts.count(l) == 1 and gcd(l, prod(parts) // l) == 1:
            return True
    return False


def primitivity_fast_path(gens: Sequence[Permutation], l: int) -> bool | None:
    """Sufficient primitivity criterion from a long coprime cycle
    (`_witness_cycle`).

    The l-cycle is not taken on trust: it must be a power of one generator
    or of the ordered product of all generators.  Returns True when the
    criterion applies, None when it is inconclusive (fall back to the exact
    test); never contradicts `is_primitive`.
    """
    if not is_transitive(gens):
        raise IntransitiveError("fast path needs a transitive generator set")
    if _witness_cycle(gens, l) or (len(gens) > 1 and _witness_cycle([compose(*gens)], l)):
        return True
    return None
