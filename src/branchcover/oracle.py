"""Brute-force ground truth at desk scale.

Exhaustive scans certify the constructive pipeline: class-wide search for
two-partition witnesses, full enumeration of block systems, and a census
that realizes and verifies every admissible datum of a given degree.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

from .construct import BranchDatum, _admission
from .errors import InadmissibleError
from .groups import BlockSystem, is_transitive
from .perm import Partition, Permutation, all_in_class, canonical_in_class, compose
from .realize import realize_rp2


def brute_force_two_datum(
    D1: Partition,
    D2: Partition,
    product_class: Partition,
    degree_cap: int = 9,
) -> tuple[Permutation, Permutation] | None:
    """First (canonical lam, scanned beta) with the stated product class and a
    transitive span, or None when no witness exists.

    lam is the canonical member of D1; beta runs through the whole class of
    D2 in the library's deterministic enumeration order.
    """
    d = D1.degree
    if d != D2.degree or d != product_class.degree:
        raise ValueError("degrees differ")
    if d > degree_cap:
        raise ValueError(f"degree {d} above the oracle cap {degree_cap}")
    lam = canonical_in_class(D1, d)
    for beta in all_in_class(D2, d):
        if compose(lam, beta).cycle_type() != product_class:
            continue
        if is_transitive([lam, beta]):
            return lam, beta
    return None


def _equal_partitions(labels: Sequence[int], block_size: int):
    """All partitions of the labels into blocks of the given size."""
    labels = list(labels)
    if not labels:
        yield []
        return
    first = labels[0]
    rest = labels[1:]
    from itertools import combinations

    for mates in combinations(rest, block_size - 1):
        block = (first, *mates)
        taken = set(mates)
        remaining = [x for x in rest if x not in taken]
        for tail in _equal_partitions(remaining, block_size):
            yield [block] + tail


def exhaustive_blocks(
    gens: Sequence[Permutation], degree_cap: int = 8
) -> tuple[BlockSystem, ...]:
    """Every invariant partition into equal-size blocks, trivial ones included."""
    d = gens[0].degree
    if d > degree_cap:
        raise ValueError(f"degree {d} above the oracle cap {degree_cap}")
    dom = gens[0].domain
    out = []
    for size in range(1, d + 1):
        if d % size != 0:
            continue
        for blocks in _equal_partitions(dom, size):
            owner = {}
            for b_idx, block in enumerate(blocks):
                for x in block:
                    owner[x] = b_idx
            ok = True
            for g in gens:
                for block in blocks:
                    images = {owner[g(x)] for x in block}
                    if len(images) != 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(
                    BlockSystem(
                        degree=d,
                        blocks=tuple(tuple(sorted(b)) for b in blocks),
                        block_size=size,
                    )
                )
    return tuple(out)


# -- census ------------------------------------------------------------------------


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic enumeration order."""
    out: list[Partition] = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(Partition(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


CensusRow = namedtuple("CensusRow", "datum nu classification millis")
CensusRow.__doc__ = (
    "One datum of a census.  ``millis`` is the wall time of this row's own "
    "work: a datum whose sub-constructions an earlier row already built reuses "
    "their factor pairs and reads lower."
)


def census(d: int, max_s: int, seed: int = 0) -> Iterator[CensusRow]:
    """Realize and verify every admissible datum of degree d with at most
    max_s branch points; boundary and inadmissible data are classified
    without being attempted.

    A row is classified from its degree and total defect nu alone, by the
    rule `admissible` states (`construct._admission`), before anything is
    built: only a datum that is constructed becomes a `BranchDatum`.

    The caps are checked at the call, before any row.  The data of one call
    share the factor pairs of identical sub-constructions (`construct`'s
    ``memo``) through one dict that lives as long as the returned iterator,
    so a second call builds everything again.  Each certificate is still
    verified on its own, once, by the independent verifier, which keeps
    nothing between certificates: the certificate's (d-2)-cycle settles
    primitivity with one orbit walk (see `realize.verify_certificate`).
    """
    if d % 2 == 0 or not 3 <= d <= 13:
        raise InadmissibleError("census caps: d odd, from 3 to 13")
    if not 1 <= max_s <= 4:
        raise InadmissibleError("census caps: 1 to 4 branch points")
    return _census_rows(d, max_s, seed)


def _census_rows(d, max_s, seed):
    memo: dict = {}
    usable = [(p, str(p), p.nu) for p in partitions_of(d) if not p.is_trivial()]
    for s in range(1, max_s + 1):
        for combo in combinations_with_replacement(usable, s):
            partitions, texts, nus = zip(*combo)
            nu = sum(nus)
            start = time.perf_counter()
            ok, kind = _admission("rp2", d, nu)
            if not ok:
                cls = "inadmissible"
            elif kind == "boundary":
                cls = "boundary"
            else:
                datum = BranchDatum(base="rp2", degree=d, partitions=partitions)
                # raises VerificationError unless verified
                realize_rp2(datum, seed, memo=memo)
                cls = "constructed"
            ms = (time.perf_counter() - start) * 1000.0
            yield CensusRow(datum=";".join(texts), nu=nu, classification=cls, millis=ms)
