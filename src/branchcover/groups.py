"""Orbits, blocks and primitivity of generated permutation groups.

The block machinery is the classical minimal-block closure: the finest
generator-stable equivalence identifying a seed pair.  Its classes form a
block system, and scanning the pairs (first point, x) decides primitivity
with an explicit witness when the group is imprimitive.

Every question is answered from one representation: the 0-based forward
image table of each generator (`Permutation._index_table`).  The orbit walk
and the closure both run on it, and no inverse table is built.  An entry
that needs a transitive group raises `IntransitiveError` for any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .perm import Permutation, compose


class GroupError(ValueError):
    """Generator sets violating an operation's preconditions."""


class IntransitiveError(GroupError):
    """An operation defined for transitive groups got an intransitive one."""


@dataclass(frozen=True)
class BlockSystem:
    """An invariant partition of the points into equal-size blocks."""

    degree: int
    blocks: tuple[tuple[int, ...], ...]
    block_size: int


def _check_gens(gens: Sequence[Permutation]) -> tuple[int, ...]:
    if not gens:
        raise GroupError("need at least one generator")
    dom = gens[0].domain
    for g in gens[1:]:
        if g.domain != dom:
            raise GroupError("generators act on different domains")
    return dom


def orbits(gens: Sequence[Permutation]) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the points under the generated group, as sorted
    label tuples ordered by their smallest label."""
    dom = _check_gens(gens)
    tables = [g._index_table() for g in gens]
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


def is_transitive(gens: Sequence[Permutation]) -> bool:
    return len(orbits(gens)) == 1


def _block_closure(tables, dom: tuple[int, ...], a: int, b: int):
    """Classes of the finest generator-stable equivalence with a ~ b.

    Atkinson's closure on one union-find list over ``tables``, the 0-based
    forward image tables of the generators (`Permutation._index_table`);
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


def minimal_block(gens: Sequence[Permutation], seed_pair: tuple[int, int]) -> tuple[int, ...]:
    """Smallest block of the generated group containing both seed points."""
    dom = _check_gens(gens)
    a, b = seed_pair
    if a == b:
        raise GroupError("seed points must be distinct")
    if a not in dom or b not in dom:
        raise GroupError("seed points outside the domain")
    if not is_transitive(gens):
        raise IntransitiveError("minimal blocks are defined for transitive groups only")
    tables = [g._index_table() for g in gens]
    classes = _block_closure(tables, dom, dom.index(a), dom.index(b))
    if classes is None:
        return dom
    return next(c for c in classes if a in c)


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
    size of a block divides the degree.
    """
    dom = _check_gens(gens)
    d = len(dom)
    if d < 2:
        raise GroupError("primitivity needs at least two points")
    if not is_transitive(gens):
        raise IntransitiveError("primitivity is defined for transitive groups only")
    if _largest_proper_divisor(d) == 1:
        return True, None
    tables = [g._index_table() for g in gens]
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
        return False, BlockSystem(degree=d, blocks=classes, block_size=size)
    return True, None


def _isolated_cycle(p: Permutation, l: int) -> bool:
    """True when a power of p is an l-cycle: l occurs once among the cycle
    lengths of p and is coprime to every other length."""
    lengths = [len(c) for c in p.cycles()]
    if lengths.count(l) != 1:
        return False
    return all(m == l or gcd(l, m) == 1 for m in lengths)


def primitivity_fast_path(gens: Sequence[Permutation], l: int) -> bool | None:
    """Sufficient primitivity criterion from a long coprime cycle.

    A transitive group containing an l-cycle is primitive when gcd(l, d) = 1
    and l exceeds every non-trivial divisor of d: a block meeting the cycle's
    support either contains it or, with its images, tiles it, so the block
    size divides l or is at least l.  The l-cycle is not taken on trust: it
    must be a power of one generator or of the ordered product of all
    generators.  Returns True when the criterion applies, None when it is
    inconclusive (fall back to the exact test); never contradicts
    `is_primitive`.
    """
    dom = _check_gens(gens)
    d = len(dom)
    if not is_transitive(gens):
        raise IntransitiveError("fast path needs a transitive generator set")
    if l < 1 or l > d:
        return None
    if gcd(l, d) != 1:
        return None
    if l <= _largest_proper_divisor(d):
        return None
    if any(_isolated_cycle(g, l) for g in gens):
        return True
    if len(gens) > 1 and _isolated_cycle(compose(*gens), l):
        return True
    return None


def decomposability_verdict(
    gens: Sequence[Permutation],
) -> tuple[str, BlockSystem | None]:
    """'indecomposable' iff the monodromy group is primitive; a disconnected
    covering surface (an intransitive group) has no verdict and raises
    `IntransitiveError`."""
    prim, witness = is_primitive(gens)
    return ("indecomposable", None) if prim else ("decomposable", witness)
