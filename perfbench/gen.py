"""Seeded input generators and the expected outcomes the benchmark derives.

Everything here is plain data (tuples and certificate text) built with the
benchmark's own arithmetic; the library only ever sees the finished inputs.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement

import arith

VALID_INDECOMPOSABLE = "valid-indecomposable"
VALID_DECOMPOSABLE = "valid-decomposable"
INVALID = "invalid"


# -- branch data for construction ------------------------------------------------


def random_partition(rng: random.Random, d: int) -> tuple[int, ...]:
    """A partition of d with 2..d-1 parts; the part count is log-uniform, the
    cut points uniform.  It is never trivial and never the full cycle [d]."""
    k = round(math.exp(rng.uniform(math.log(2), math.log(d - 1))))
    k = min(max(k, 2), d - 1)
    cuts = sorted(rng.sample(range(1, d), k - 1))
    bounds = [0, *cuts, d]
    return tuple(sorted((bounds[i + 1] - bounds[i] for i in range(k)), reverse=True))


def admissible_datum(rng: random.Random, d: int, s: int) -> tuple[tuple[int, ...], ...]:
    """s partitions of d with total defect nu even and above d-1.

    Redraws only on that input-side gate, never on what a library call does.
    """
    while True:
        parts = tuple(random_partition(rng, d) for _ in range(s))
        nu = sum(d - len(p) for p in parts)
        if nu % 2 == 0 and nu > d - 1:
            return parts


def construct_stream(seed: int, d: int, s: int):
    rng = random.Random(f"construct:{seed}")
    while True:
        yield admissible_datum(rng, d, s)


# -- certificates for verification ----------------------------------------------


def _certificate_text(base: str, d: int, datum, a, us) -> str:
    lines = [
        f"base: {base}",
        f"degree: {d}",
        "datum: " + ";".join(arith.format_partition(p) for p in datum),
    ]
    if a is not None:
        lines.append(f"a: {arith.format_cycles(a)}")
    for i, u in enumerate(us, start=1):
        lines.append(f"u[{i}]: {arith.format_cycles(u)}")
    return "\n".join(lines) + "\n"


def _close_relation(base: str, a, us: list) -> None:
    """Append the last u-image so that a^2 u_1 ... u_s (or u_1 ... u_s) = 1."""
    head = [a, a, *us] if base == "rp2" else us
    us.append(arith.inverse(arith.compose(*head)))


def _usable(a, us) -> bool:
    """No u-image is the identity (no trivial partition) and the span is
    transitive by the benchmark's own orbit search."""
    if any(arith.is_identity(u) for u in us):
        return False
    gens = list(us) if a is None else [a, *us]
    return arith.is_transitive(gens)


def _prime_cycle_generators(rng, base: str, d: int, s: int):
    """Random generators, u_1 a p-cycle with p prime, p not dividing d and
    p > d/3.  A transitive group with such a cycle is primitive: p exceeds
    every proper divisor of the odd degree d and is coprime to it."""
    primes = [q for q in range(d // 3 + 1, d + 1) if arith.is_prime(q) and d % q]
    while True:
        p = rng.choice(primes)
        c = arith.from_cycle(rng.sample(range(1, d + 1), p), d)
        a = arith.random_perm(rng, d) if base == "rp2" else None
        us = [c, *(arith.random_perm(rng, d) for _ in range(s - 2))]
        _close_relation(base, a, us)
        if _usable(a, us):
            return a, us


def _wreath_element(rng, blocks: list[list[int]], d: int):
    """A random permutation mapping every block onto a block."""
    m, b = len(blocks), len(blocks[0])
    target = list(range(m))
    rng.shuffle(target)
    p = arith.identity(d)
    for j, block in enumerate(blocks):
        image = list(blocks[target[j]])
        rng.shuffle(image)
        for x, y in zip(block, image):
            p[x] = y
    return p


def _wreath_generators(rng, base: str, d: int, s: int):
    """Generators preserving a hidden system of m blocks of size b, d = b*m,
    1 < b < d: the group is imprimitive by construction."""
    sizes = [b for b in range(2, d) if d % b == 0]
    while True:
        b = rng.choice(sizes)
        labels = list(range(1, d + 1))
        rng.shuffle(labels)
        blocks = [labels[i : i + b] for i in range(0, d, b)]
        a = _wreath_element(rng, blocks, d) if base == "rp2" else None
        us = [_wreath_element(rng, blocks, d) for _ in range(s - 1)]
        _close_relation(base, a, us)
        if _usable(a, us):
            return a, us


def _tamper(rng, base: str, d: int, a, us, datum: list):
    """Break the relation (conjugate one u-image by a transposition, keeping
    its cycle type) or one stated cycle type (merge two parts, or split a
    full cycle); either way the certificate is invalid."""
    if rng.random() < 0.5:
        i = rng.randrange(len(us))
        head = [a, a] if base == "rp2" else []
        while True:
            x, y = rng.sample(range(1, d + 1), 2)
            t = arith.from_cycle([x, y], d)
            u = arith.compose(t, us[i], t)
            tampered = us[:i] + [u] + us[i + 1 :]
            if not arith.is_identity(arith.compose(*head, *tampered)):
                return tampered, datum
    j = rng.randrange(len(datum))
    parts = sorted(datum[j], reverse=True)
    if len(parts) >= 2:
        parts = parts[:-2] + [parts[-2] + parts[-1]]
    else:
        parts = [d - 1, 1]
    return us, datum[:j] + [tuple(parts)] + datum[j + 1 :]


def certificate(rng: random.Random, kind: str, base: str, d: int):
    """(certificate text, expected verdict) for one kind of certificate.

    Over rp2 there are two branch points, over s2 three, so each certificate
    has three generators.  ``kind`` is VALID_INDECOMPOSABLE,
    VALID_DECOMPOSABLE (d composite) or INVALID; an invalid certificate is a
    tampered indecomposable one, so the verifier still runs its exact
    primitivity test on a primitive group.
    """
    s = 2 if base == "rp2" else 3
    if kind == VALID_DECOMPOSABLE:
        a, us = _wreath_generators(rng, base, d, s)
    else:
        a, us = _prime_cycle_generators(rng, base, d, s)
    datum = [arith.cycle_type(u) for u in us]
    if kind == INVALID:
        us, datum = _tamper(rng, base, d, a, us, datum)
    return _certificate_text(base, d, datum, a, us), kind


# One cycle of the verify workload, 18 certificates in three cost groups of
# six: decomposable ones and d=101 are cheap, primitive groups at d=201 and
# d=301 cost about 4x and 10x more (invalid certificates as much as valid
# ones, so each invalid cell is listed twice).  The median then falls in the
# middle of the d=201 group and p80 inside the d=301 group, never on the
# edge between two groups, so neither jumps from run to run.  A run ends on
# a whole cycle, so every run has exactly this mix.
VERIFY_CELLS = (
    *((VALID_INDECOMPOSABLE, base, d) for base in ("rp2", "s2") for d in (101, 201, 301)),
    *((VALID_DECOMPOSABLE, base, d) for base in ("rp2", "s2") for d in (201, 301)),
    *((INVALID, base, d) for _ in range(2) for base in ("rp2", "s2") for d in (201, 301)),
)


def verify_stream(seed: int):
    rng = random.Random(f"verify:{seed}")
    while True:
        for cell in VERIFY_CELLS:
            yield certificate(rng, *cell)


# -- census ---------------------------------------------------------------------


def census_totals(d: int, max_s: int) -> tuple[int, int]:
    """(rows, constructed) that census(d, max_s) must report: every multiset
    of 1..max_s non-trivial partitions, constructed when nu is even and above
    d-1."""
    usable = [p for p in arith.partitions_of(d) if p[0] > 1]
    rows = constructed = 0
    for s in range(1, max_s + 1):
        for combo in combinations_with_replacement(usable, s):
            rows += 1
            nu = sum(d - len(p) for p in combo)
            if nu % 2 == 0 and nu > d - 1:
                constructed += 1
    return rows, constructed
