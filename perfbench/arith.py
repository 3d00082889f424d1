"""The benchmark's own permutation arithmetic, independent of the library.

Expected verdicts and output checks are derived here, so the benchmark
never asks the code under test whether its own answers are right.

A permutation of the labels 1..d is a list ``p`` of length d + 1 with
``p[0] == 0`` and ``p[x]`` the image of x.  Products follow the library's
convention: ``compose(p, q)`` applies p first, then q.
"""

from __future__ import annotations

import random
from typing import Sequence

Perm = list


def identity(d: int) -> Perm:
    return list(range(d + 1))


def random_perm(rng: random.Random, d: int) -> Perm:
    images = list(range(1, d + 1))
    rng.shuffle(images)
    return [0] + images


def compose(*perms: Perm) -> Perm:
    out = list(perms[0])
    for q in perms[1:]:
        out = [q[x] for x in out]
    return out


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return inv


def is_identity(p: Perm) -> bool:
    return all(x == y for x, y in enumerate(p))


def cycles(p: Perm) -> list[list[int]]:
    """All cycles, fixed points included, each led by its smallest label."""
    seen = [False] * len(p)
    out = []
    for start in range(1, len(p)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        out.append(cyc)
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def from_cycle(points: Sequence[int], d: int) -> Perm:
    p = identity(d)
    for i, x in enumerate(points):
        p[x] = points[(i + 1) % len(points)]
    return p


def is_transitive(gens: Sequence[Perm]) -> bool:
    """Orbit search from label 1 over the generators."""
    d = len(gens[0]) - 1
    seen = [False] * (d + 1)
    seen[1] = True
    stack = [1]
    reached = 1
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    return reached == d


def format_cycles(p: Perm) -> str:
    """Cycle notation with fixed points omitted; the identity is ``()``."""
    body = "".join(
        "(" + " ".join(map(str, c)) + ")" for c in cycles(p) if len(c) > 1
    )
    return body or "()"


def format_partition(parts: Sequence[int]) -> str:
    return "[" + ",".join(map(str, sorted(parts, reverse=True))) + "]"


def partitions_of(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n, parts non-increasing."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for part in range(min(n, cap), 0, -1):
        for rest in partitions_of(n - part, part):
            out.append((part, *rest))
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True
