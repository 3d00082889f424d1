"""Exact permutation arithmetic on labelled finite sets.

Permutations act on an explicit sorted domain of positive integer labels
(by default 1..d).  Keeping the domain explicit lets projections onto a
subset of the points retain the original labels, which in turn makes the
projection calculus (`project` / `embed`) auditable by eye.

Composition convention, fixed once for the whole package:

    compose(p, q)(x) == q(p(x))        -- apply p first, then q.

Every construction in the package is verified by direct composition, so a
single wrong convention would fail loudly; tests anchor the convention on
a known golden product.

A permutation stores one form: the 0-based index table of its images,
position i of the domain going to position ``_table[i]``, beside the sorted
label tuple of its domain.  Labels become indices only where they enter
(``Permutation(...)``, ``Permutation.from_mapping``, ``from_cycles`` /
``parse_cycles`` and ``__call__``), and indices become labels only where
they leave (``cycles()``, the derived ``images`` view and the cycle text),
so the arithmetic never reads a label and runs alike on every domain.

A permutation is validated once, where it enters: the constructors check
the domain, and that the labels form a bijection of it.  Derived results
(``compose``, ``inverse``, ``conjugate``, ``canonical_in_class``, and
``from_cycles`` once its cycles have passed) are built by
``Permutation._of`` from a table, without a second check: they are
bijections of an already validated domain by construction.  A product is
one C-level ``operator.itemgetter`` call per factor on the tables
(`_product_table`), and its table is the result.  A conjugate is one
relabelling of the same kind: p's table read through the conjugator's
table and then through its inverse index list, with no inverse permutation
built; `conjugator_matching` writes its result from the matched points
directly.  The verifier checks its relation on the same kernel without
building the product.

The cycles and the cycle type of a permutation are built once, on first
use, and kept on the object; a permutation is immutable, so they never go
stale.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, Sequence


class PermError(ValueError):
    """Invalid permutation construction or mismatched operands."""


def _as_domain(domain: Iterable[int] | int) -> tuple[int, ...]:
    if isinstance(domain, int):
        if domain < 0:
            raise PermError(f"degree must be non-negative, got {domain}")
        return tuple(range(1, domain + 1))
    dom = tuple(sorted(domain))
    if len(set(dom)) != len(dom):
        raise PermError("domain labels repeat")
    if dom and dom[0] < 1:
        raise PermError("domain labels must be positive")
    return dom


class Permutation:
    """A bijection of a finite sorted label set, stored as its 0-based index
    table: ``domain[i]`` goes to ``domain[_table[i]]``."""

    __slots__ = ("domain", "_table", "_cycles", "_type", "_hash")

    def __init__(self, images: Sequence[int], domain: Iterable[int] | int | None = None):
        if domain is None:
            dom = tuple(range(1, len(images) + 1))
        else:
            dom = _as_domain(domain)
        imgs = tuple(images)
        if len(imgs) != len(dom):
            raise PermError("image table length does not match domain size")
        if sorted(imgs) != list(dom):
            raise PermError("image table is not a bijection of the domain")
        pos = dict(zip(dom, range(len(dom))))
        self._fill(tuple([pos[y] for y in imgs]), dom)

    def _fill(self, table: tuple[int, ...], domain: tuple[int, ...]) -> None:
        self.domain = domain
        self._table = table
        self._cycles = None
        self._type = None
        self._hash = None

    @classmethod
    def _of(cls, table: tuple[int, ...], domain: tuple[int, ...]) -> Permutation:
        """A derived result, built without checks: ``domain`` is already
        validated and ``table`` is a bijection of its positions by
        construction."""
        p = object.__new__(cls)
        p._fill(table, domain)
        return p

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def identity(domain: Iterable[int] | int) -> Permutation:
        dom = _as_domain(domain)
        return Permutation._of(tuple(range(len(dom))), dom)

    @staticmethod
    def from_mapping(mapping: dict[int, int], domain: Iterable[int] | int) -> Permutation:
        dom = _as_domain(domain)
        outside = set(mapping).difference(dom)
        if outside:
            raise PermError(f"mapping keys {sorted(outside)} are not in the domain")
        return Permutation(tuple(mapping.get(x, x) for x in dom), dom)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.domain)

    @property
    def images(self) -> tuple[int, ...]:
        """The image of each domain label, in domain order."""
        return tuple(map(self.domain.__getitem__, self._table))

    def __call__(self, x: int) -> int:
        """The image of the label x; PermError unless x is an int of the domain."""
        dom = self.domain
        if type(x) is int:
            i = bisect_left(dom, x)
            if i < len(dom) and dom[i] == x:
                return dom[self._table[i]]
        raise PermError(f"label {x!r} is not in the domain")

    def is_identity(self) -> bool:
        return self._table == tuple(range(len(self._table)))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """All cycles, trivial ones included; each starts at its smallest
        label and cycles are ordered by smallest label.  A table that is
        not a bijection raises `PermError`: some walk reaches a position
        already seen that is not its start."""
        if self._cycles is None:
            dom = self.domain
            nxt = self._table
            seen = bytearray(len(dom))
            out = []
            for start in range(len(dom)):
                if seen[start]:
                    continue
                seen[start] = 1
                cyc = [dom[start]]
                i = nxt[start]
                while not seen[i]:
                    seen[i] = 1
                    cyc.append(dom[i])
                    i = nxt[i]
                # on a bijection the first seen position is the start
                if i != start:
                    raise PermError("index table is not a bijection")
                out.append(tuple(cyc))
            self._cycles = tuple(out)
        return self._cycles

    def nontrivial_cycles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.cycles() if len(c) > 1)

    def cycle_type(self) -> "Partition":
        """The cycle lengths as a `Partition`, built on first use."""
        if self._type is None:
            self._type = Partition(len(c) for c in self.cycles())
        return self._type

    def nu(self) -> int:
        """Defect: degree minus number of cycles."""
        return len(self.domain) - len(self.cycles())

    def support(self) -> tuple[int, ...]:
        return tuple(x for i, x in enumerate(self.domain) if self._table[i] != i)

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(x for i, x in enumerate(self.domain) if self._table[i] == i)

    def inverse(self) -> Permutation:
        inv = [0] * len(self._table)
        for i, j in enumerate(self._table):
            inv[j] = i
        return Permutation._of(tuple(inv), self.domain)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Permutation)
            and self.domain == other.domain
            and self._table == other._table
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.domain, self._table))
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, d={self.degree})"

    def __str__(self) -> str:
        return format_cycles(self)


def identity(domain: Iterable[int] | int) -> Permutation:
    return Permutation.identity(domain)


def _product_table(perms: Sequence[Permutation]) -> tuple[int, ...]:
    """The 0-based index table of the product of ``perms`` (left to right),
    which act on one domain: one C-level ``itemgetter`` call per factor."""
    table = perms[0]._table
    if len(table) < 2:  # every factor is the identity; itemgetter(i) returns an item
        return table
    for p in perms[1:]:
        table = itemgetter(*table)(p._table)
    return table


def compose(*perms: Permutation) -> Permutation:
    """Product applying the factors left to right: compose(p, q)(x) == q(p(x))."""
    if not perms:
        raise PermError("compose needs at least one factor")
    first = perms[0]
    dom = first.domain
    for p in perms[1:]:
        if p.domain is not dom and p.domain != dom:
            raise PermError("degree mismatch: factors act on different domains")
    return Permutation._of(_product_table(perms), dom)


def conjugate(p: Permutation, by: Permutation) -> Permutation:
    """by * p * by^-1 under the package convention: p relabelled by by^-1.

    One relabelling of index tables, with no inverse permutation built: the
    result sends i to inv[p[by[i]]], inv the inverse index list of by, so
    each cycle (x_1 ... x_k) of p becomes (by^-1(x_1) ... by^-1(x_k)).
    """
    if p.domain != by.domain:
        raise PermError("degree mismatch in conjugation")
    return _relabelled(p, by._table)


def _relabelled(p: Permutation, by_table: tuple[int, ...]) -> Permutation:
    """`conjugate` of p by the permutation of p's domain whose 0-based index
    table is ``by_table``, which need not be built: a caller conjugating by
    a product passes its `_product_table`."""
    if len(by_table) < 2:  # the identity; itemgetter(i) returns an item, not a tuple
        return p
    inv = [0] * len(by_table)
    for i, j in enumerate(by_table):
        inv[j] = i
    return Permutation._of(itemgetter(*itemgetter(*by_table)(p._table))(inv), p.domain)


def conjugator_matching(p: Permutation, q: Permutation) -> Permutation:
    """A permutation lam with conjugate(p, lam) == q.

    Deterministic: cycles are matched by length (longest first), ties by
    smallest leading label, and mapped pointwise.  The matching sends p's
    layout onto q's; under this package's conjugation that map is lam^-1,
    so lam is written from it directly: lam(y) = x where x is matched to y.
    """
    if p.domain != q.domain:
        raise PermError("degree mismatch")
    if p.cycle_type() != q.cycle_type():
        raise PermError("cycle types differ; permutations are not conjugate")
    key = lambda c: (-len(c), c[0])
    pc = sorted(p.cycles(), key=key)
    qc = sorted(q.cycles(), key=key)
    dom = p.domain
    pos = dict(zip(dom, range(len(dom))))
    # equal cycle types: the matched cycles cover the domain, each point once
    table = [0] * len(dom)
    for a, b in zip(pc, qc):
        for x, y in zip(a, b):
            table[pos[y]] = pos[x]
    return Permutation._of(tuple(table), dom)


# -- cycle notation -----------------------------------------------------------

def from_cycles(
    cycles: Iterable[Sequence[int]], domain: Iterable[int] | int
) -> Permutation:
    """Build a permutation from disjoint cycles; unmentioned labels are fixed.

    Each label must lie in the domain and appear at most once in all the
    cycles together, which makes the result a bijection without a further
    check."""
    dom = _as_domain(domain)
    pos = dict(zip(dom, range(len(dom))))
    table = list(range(len(dom)))
    seen = bytearray(len(dom))
    for cyc in cycles:
        idx = []
        for x in cyc:
            i = pos.get(x)
            if i is None:
                raise PermError(f"label {x} out of range for domain")
            if seen[i]:
                raise PermError(f"label {x} repeated in the cycles")
            seen[i] = 1
            idx.append(i)
        for i, j in zip(idx, idx[1:] + idx[:1]):
            table[i] = j
    return Permutation._of(tuple(table), dom)


def parse_cycles(text: str, domain: Iterable[int] | int) -> Permutation:
    """Parse cycle notation like ``(1 2 3)(4 5)``; ``()`` is the identity.

    The text is parenthesised bodies with no parenthesis inside, apart only
    by whitespace.  One split at the closing parentheses reads it: each
    piece before the last is whitespace, ``(`` and a body, and the last
    piece is empty."""
    text = text.strip()
    if not text:
        raise PermError("empty cycle expression")
    *pieces, rest = text.split(")")
    cycles = []
    try:
        if rest:  # the text is stripped: what follows the last ")" is no space
            raise ValueError(f"text after the last cycle: {rest!r}")
        for piece in pieces:
            space, opened, body = piece.partition("(")
            if not opened or space.strip():
                raise ValueError(f"not one cycle: {piece!r}")
            tokens = body.split()  # a "(" in the body is a token, no numeral
            if tokens:
                cycles.append(_numerals(tokens))
    except ValueError as exc:
        raise PermError(f"malformed cycle notation: {text!r}") from exc
    return from_cycles(cycles, domain)


def _numerals(tokens: Sequence[str]) -> list[int]:
    """The values of decimal numerals written in ASCII digits alone, the one
    check behind every number of the text formats: a sign, an underscore,
    whitespace or a non-ASCII digit, all of which ``int`` would take, is a
    ValueError, so one value has one spelling (up to leading zeros)."""
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        raise ValueError(f"not numbers in ASCII digits: {' '.join(tokens)!r}")
    return list(map(int, tokens))  # an empty token raises too


def format_cycles(p: Permutation) -> str:
    """Canonical cycle string: fixed points omitted, identity is ``()``."""
    cycles = p.nontrivial_cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


# -- partitions ---------------------------------------------------------------

class Partition:
    """Non-increasing positive parts with a fixed sum (the degree); the
    defect nu is the degree minus the number of parts."""

    __slots__ = ("parts", "degree", "nu", "_hash")

    def __init__(self, parts: Iterable[int]):
        ps = tuple(sorted(parts, reverse=True))
        if type(parts) is tuple and ps == parts:
            ps = parts  # a kept datum holds one copy of its parts, not two
        if not ps:
            raise PermError("partition needs at least one part")
        if ps[-1] < 1:
            raise PermError("partition parts must be positive")
        object.__setattr__(self, "parts", ps)
        object.__setattr__(self, "degree", sum(ps))
        object.__setattr__(self, "nu", self.degree - len(ps))
        # every census memo key holds partitions: hash the parts once
        object.__setattr__(self, "_hash", hash(ps))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def is_trivial(self) -> bool:
        return self.parts[0] == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __reduce__(self):
        return Partition, (self.parts,)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.parts) + "]"

    @staticmethod
    def parse(text: str) -> "Partition":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise PermError(f"malformed partition literal: {text!r}")
        body = text[1:-1].strip()
        if not body:
            raise PermError(f"malformed partition literal: {text!r}")
        try:
            parts = _numerals([tok.strip() for tok in body.split(",")])
        except ValueError as exc:
            raise PermError(f"malformed partition literal: {text!r}") from exc
        return Partition(parts)


def sqrt_odd_cycle(p: Permutation) -> Permutation:
    """Square root of a single odd-length cycle (fixed points allowed).

    For p = (a_1 ... a_r) with r odd the interleaving
    (a_1 a_{h+1} a_2 a_{h+2} ... a_r a_h), h = (r+1)/2, squares to p and
    has the same support.
    """
    nontrivial = p.nontrivial_cycles()
    if not nontrivial:
        return p
    if len(nontrivial) != 1 or len(nontrivial[0]) % 2 == 0:
        raise PermError("not a single odd cycle")
    a = nontrivial[0]
    r = len(a)
    h = (r + 1) // 2
    seq = []
    for i in range(h):
        seq.append(a[i])
        if i + h < r:
            seq.append(a[i + h])
    return from_cycles([seq], p.domain)


def project(p: Permutation, keep) -> Permutation:
    """Delete the labels outside ``keep`` from p's cycles (labels preserved)."""
    kept = tuple(sorted(set(keep)))
    if not kept:
        raise PermError("cannot project onto the empty set")
    keep_set = set(kept)
    if not keep_set.issubset(p.domain):
        raise PermError("projection labels not in the domain")
    cycles = []
    for cyc in p.cycles():
        sub = [x for x in cyc if x in keep_set]
        if len(sub) > 1:
            cycles.append(sub)
    return from_cycles(cycles, kept)


def embed(p_sub: Permutation, ambient: Iterable[int] | int) -> Permutation:
    """Extend a permutation of a subset by fixing every other ambient label."""
    dom = _as_domain(ambient)
    if not set(p_sub.domain).issubset(dom):
        raise PermError("subset labels out of range for the ambient domain")
    return from_cycles(p_sub.nontrivial_cycles(), dom)


def canonical_in_class(cls: Partition, domain: Iterable[int] | int) -> Permutation:
    """The class representative with cycles laid out left to right on the
    sorted domain, longest parts first."""
    dom = _as_domain(domain)
    if sum(cls.parts) != len(dom):
        raise PermError("partition degree does not match the domain size")
    # each cycle is a run of positions: one maps to the next, the last to the first
    table: list[int] = []
    i = 0
    for part in cls.parts:
        table += range(i + 1, i + part)
        table.append(i)
        i += part
    return Permutation._of(tuple(table), dom)


def random_in_class(cls: Partition, domain: Iterable[int] | int, rng) -> Permutation:
    """Uniform random member of the conjugacy class ``cls`` on ``domain``.

    The positions are shuffled and cut into runs of ``cls.parts``, each run
    one cycle, written straight into the index table.  ``rng.shuffle``
    picks its swaps from the list length alone, so this draws the same
    member, from the same rng stream, as shuffling the labels and passing
    the runs to ``from_cycles``."""
    dom = _as_domain(domain)
    n = len(dom)
    if sum(cls.parts) != n:
        raise PermError("partition degree does not match the domain size")
    order = list(range(n))
    rng.shuffle(order)
    # each position goes to the next one in its run, the last back to the first
    succ = order[1:] + order[:1]
    end = 0
    for part in cls.parts:
        end += part
        succ[end - 1] = order[end - part]
    table = [0] * n
    for i, j in zip(order, succ):
        table[i] = j
    return Permutation._of(tuple(table), dom)


def full_cycle_cofactor(tau: Permutation, rng, trials: int) -> Permutation | None:
    """The first of ``trials`` seeded full cycles gamma of tau's domain with
    tau * gamma^-1 a full cycle too, or None when every trial fails.

    Each trial draws gamma as ``random_in_class(Partition([n]), ...)`` does,
    from the same shuffle of the same rng stream: the shuffled positions,
    read cyclically, are gamma's one cycle.  A trial writes gamma^-1's index
    table from them and walks tau * gamma^-1 once from position 0; only the
    winner is built as a permutation."""
    table = tau._table
    n = len(table)
    for _ in range(trials):
        order = list(range(n))
        rng.shuffle(order)
        inv = [0] * n  # gamma^-1: each position back to the one before it
        prev = order[-1]
        for i in order:
            inv[i] = prev
            prev = i
        i = 0
        for length in range(1, n + 1):  # at most n steps, so it ends on any table
            i = inv[table[i]]
            if not i:
                break
        if not i and length == n:
            gamma = [0] * n
            for i, j in zip(order, order[1:] + order[:1]):
                gamma[i] = j
            return Permutation._of(tuple(gamma), tau.domain)
    return None


def all_in_class(cls: Partition, domain: Iterable[int] | int) -> Iterator[Permutation]:
    """Enumerate the conjugacy class ``cls`` on ``domain``, each member once.

    Deterministic order: the smallest unplaced label leads the next cycle,
    distinct candidate lengths are tried in decreasing order, and the
    remaining cycle entries run through ordered arrangements of the unused
    labels in lexicographic order.
    """
    from itertools import permutations as _perms

    dom = _as_domain(domain)
    if sum(cls.parts) != len(dom):
        raise PermError("partition degree does not match the domain size")

    def rec(remaining_parts: tuple[int, ...], unused: tuple[int, ...], acc):
        if not remaining_parts:
            yield from_cycles(acc, dom)
            return
        leader = unused[0]
        rest = unused[1:]
        for size in sorted(set(remaining_parts), reverse=True):
            idx = remaining_parts.index(size)
            next_parts = remaining_parts[:idx] + remaining_parts[idx + 1 :]
            if size == 1:
                yield from rec(next_parts, rest, acc + [(leader,)])
            else:
                for tail in _perms(rest, size - 1):
                    tail_set = set(tail)
                    new_unused = tuple(x for x in rest if x not in tail_set)
                    yield from rec(next_parts, new_unused, acc + [(leader,) + tail])

    yield from rec(cls.parts, dom, [])
