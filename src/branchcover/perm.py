"""Exact permutation arithmetic on labelled finite sets.

Permutations act on an explicit sorted domain of positive integer labels
(by default 1..d).  Keeping the domain explicit lets projections onto a
subset of the points retain the original labels, which in turn makes the
run-insertion calculus (`project` / `embed` / `insertion_recombine`)
auditable by eye.

Composition convention, fixed once for the whole package:

    compose(p, q)(x) == q(p(x))        -- apply p first, then q.

Every construction in the package is verified by direct composition, so a
single wrong convention would fail loudly; tests anchor the convention on
a known golden product.

A permutation is validated once, where it enters: ``Permutation(...)``,
``Permutation.from_mapping``, ``identity`` and ``from_cycles`` /
``parse_cycles`` check the domain, and that the labels form a bijection of
it.  Derived results (``compose``, ``inverse``, ``conjugate``,
``canonical_in_class``, and ``from_cycles`` once its cycles have passed)
are built by ``Permutation._of`` without a second check: they are
bijections of an already validated domain by construction.  Their
arithmetic runs on 0-based index tables; for a domain other than 1..d the
label-to-index map is built on first use and handed on to results on the
same domain.  A product takes one path on every domain (`_product_table`):
one C-level ``operator.itemgetter`` call per factor composes the index
tables, and one more maps the indices back to labels.  A conjugate is one
relabelling of the same kind: p's table read through the conjugator's
table and then through its inverse index list, with no inverse
permutation built; `conjugator_matching` writes its result from the
matched points directly.  The verifier checks its relation on the same
kernel without building the product.

The derived views of a permutation (its 0-based index table, its cycles
and its cycle type) are built once per permutation, on first use, and kept
on the object; a permutation is immutable, so they never go stale.
"""

from __future__ import annotations

import re
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


def _is_standard(dom: tuple[int, ...]) -> bool:
    """Whether a validated domain is exactly 1..len(dom)."""
    return not dom or (dom[0] == 1 and dom[-1] == len(dom))


class Permutation:
    """A bijection of a finite sorted label set, stored as an image table."""

    __slots__ = (
        "domain", "images", "_std", "_pos", "_cycles", "_table", "_type", "_hash"
    )

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
        self._fill(imgs, dom, None)

    def _fill(self, images: tuple[int, ...], domain: tuple[int, ...], pos) -> None:
        self.domain = domain
        self.images = images
        self._std = _is_standard(domain)
        self._pos = pos
        self._cycles = None
        self._table = None
        self._type = None
        self._hash = None

    @classmethod
    def _of(cls, images: tuple[int, ...], domain: tuple[int, ...], pos=None) -> Permutation:
        """A derived result, built without checks: ``domain`` is already
        validated and ``images`` is a bijection of it by construction.
        ``pos`` may pass on the label index of a permutation on the same
        domain."""
        p = object.__new__(cls)
        p._fill(images, domain, pos)
        return p

    def _positions(self) -> dict[int, int]:
        """Label -> 0-based index, built on first use (non-1..d domains only)."""
        if self._pos is None:
            self._pos = {x: i for i, x in enumerate(self.domain)}
        return self._pos

    def _index_table(self) -> tuple[int, ...]:
        """The image table on 0-based indices, built on first use."""
        if self._table is None:
            if self._std:
                self._table = tuple([y - 1 for y in self.images])
            else:
                pos = self._positions()
                self._table = tuple([pos[y] for y in self.images])
        return self._table

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def identity(domain: Iterable[int] | int) -> Permutation:
        dom = _as_domain(domain)
        return Permutation._of(dom, dom)

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

    def __call__(self, x: int) -> int:
        """The image of the label x; PermError unless x is an int of the domain."""
        if type(x) is int:
            try:
                if not self._std:
                    return self.images[self._positions()[x]]
                if x > 0:  # a label below 1 would index from the end
                    return self.images[x - 1]
            except (IndexError, KeyError):
                pass
        raise PermError(f"label {x!r} is not in the domain")

    def is_identity(self) -> bool:
        return self.images == self.domain

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """All cycles, trivial ones included; each starts at its smallest
        label and cycles are ordered by smallest label."""
        if self._cycles is None:
            dom = self.domain
            nxt = self._index_table()
            seen = bytearray(len(dom))
            out = []
            for start in range(len(dom)):
                if seen[start]:
                    continue
                seen[start] = 1
                cyc = [dom[start]]
                i = nxt[start]
                while i != start:
                    seen[i] = 1
                    cyc.append(dom[i])
                    i = nxt[i]
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
        return tuple(x for x, y in zip(self.domain, self.images) if x != y)

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(x for x, y in zip(self.domain, self.images) if x == y)

    def inverse(self) -> Permutation:
        dom = self.domain
        inv = [0] * len(dom)
        for x, i in zip(dom, self._index_table()):
            inv[i] = x
        return Permutation._of(tuple(inv), dom, self._pos)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Permutation)
            and self.domain == other.domain
            and self.images == other.images
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.domain, self.images))
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
    return _table_then(perms[0]._index_table(), perms[1:])


def _table_then(table: tuple[int, ...], perms: Sequence[Permutation]) -> tuple[int, ...]:
    """The index table ``table`` followed by the factors ``perms`` in turn."""
    if len(table) < 2:  # every factor is the identity; itemgetter(i) returns an item
        return table
    for p in perms:
        table = itemgetter(*table)(p._index_table())
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
    table = _product_table(perms)
    images = itemgetter(*table)(dom) if len(dom) > 1 else dom
    return Permutation._of(images, dom, first._pos)


def conjugate(p: Permutation, by: Permutation) -> Permutation:
    """by * p * by^-1 under the package convention: p relabelled by by^-1.

    One relabelling of index tables, with no inverse permutation built: the
    result sends i to inv[p[by[i]]], inv the inverse index list of by, so
    each cycle (x_1 ... x_k) of p becomes (by^-1(x_1) ... by^-1(x_k)).
    """
    if p.domain != by.domain:
        raise PermError("degree mismatch in conjugation")
    return _relabelled(p, by._index_table())


def _relabelled(p: Permutation, by_table: tuple[int, ...]) -> Permutation:
    """`conjugate` of p by the permutation of p's domain whose 0-based index
    table is ``by_table``, which need not be built: a caller conjugating by
    a product passes its `_product_table`."""
    dom = p.domain
    if len(dom) < 2:  # the identity; itemgetter(i) returns an item, not a tuple
        return Permutation._of(p.images, dom, p._pos)
    inv = [0] * len(dom)
    for i, j in enumerate(by_table):
        inv[j] = i
    table = itemgetter(*itemgetter(*by_table)(p._index_table()))(inv)
    return Permutation._of(itemgetter(*table)(dom), dom, p._pos)


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
    # equal cycle types: the matched cycles cover the domain, each point once
    images = list(dom)
    pos = None if p._std else p._positions()
    for a, b in zip(pc, qc):
        for x, y in zip(a, b):
            images[y - 1 if pos is None else pos[y]] = x
    return Permutation._of(tuple(images), dom, p._pos)


# -- cycle notation -----------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def from_cycles(
    cycles: Iterable[Sequence[int]], domain: Iterable[int] | int
) -> Permutation:
    """Build a permutation from disjoint cycles; unmentioned labels are fixed.

    Each label must lie in the domain and appear at most once in all the
    cycles together, which makes the result a bijection without a further
    check."""
    dom = _as_domain(domain)
    if _is_standard(dom):
        pos = None
        labels = range(1, len(dom) + 1)
    else:
        pos = labels = {x: i for i, x in enumerate(dom)}
    images = list(dom)
    seen = bytearray(len(dom))
    for cyc in cycles:
        cyc = tuple(cyc)
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            if x not in labels:
                raise PermError(f"label {x} out of range for domain")
            i = x - 1 if pos is None else pos[x]
            if seen[i]:
                raise PermError(f"label {x} repeated in the cycles")
            seen[i] = 1
            images[i] = y
    return Permutation._of(tuple(images), dom, pos)


def parse_cycles(text: str, domain: Iterable[int] | int) -> Permutation:
    """Parse cycle notation like ``(1 2 3)(4 5)``; ``()`` is the identity."""
    text = text.strip()
    if not text:
        raise PermError("empty cycle expression")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise PermError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        body = body.strip()
        if not body:
            continue
        try:
            cycles.append([int(tok) for tok in body.split()])
        except ValueError as exc:
            raise PermError(f"malformed cycle notation: {text!r}") from exc
    return from_cycles(cycles, domain)


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
            parts = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise PermError(f"malformed partition literal: {text!r}") from exc
        return Partition(parts)


def _keep_labels(keep) -> tuple[int, ...]:
    return tuple(sorted(set(keep)))


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
    kept = _keep_labels(keep)
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


def insertion_recombine(lam: Permutation, downstairs: Permutation, keep) -> Permutation:
    """Recombine lam with a product computed on the kept points.

    Given the product ``downstairs == project(lam, keep) * b`` for some
    permutation b of ``keep``, produce ``lam * embed(b)`` symbolically: in
    each cycle of ``downstairs`` every kept label w is replaced by w followed
    by its run of deleted labels from lam's cyclic decomposition, and cycles
    of lam wholly outside ``keep`` pass through verbatim.
    """
    kept = _keep_labels(keep)
    keep_set = set(kept)
    if downstairs.domain != kept:
        raise PermError("downstairs permutation does not act on the kept points")
    if not keep_set.issubset(lam.domain):
        raise PermError("kept points not in lam's domain")
    runs: dict[int, list[int]] = {}
    outside = []
    for cyc in lam.cycles():
        anchors = [i for i, x in enumerate(cyc) if x in keep_set]
        if not anchors:
            if len(cyc) > 1:
                outside.append(cyc)
            continue
        n = len(cyc)
        for j, i in enumerate(anchors):
            stop = anchors[(j + 1) % len(anchors)]
            run = []
            k = (i + 1) % n
            while k != stop:
                run.append(cyc[k])
                k = (k + 1) % n
            runs[cyc[i]] = run
    cycles = list(outside)
    for cyc in downstairs.cycles():
        expanded = []
        for w in cyc:
            expanded.append(w)
            expanded.extend(runs[w])
        if len(expanded) > 1:
            cycles.append(expanded)
    return from_cycles(cycles, lam.domain)


def canonical_in_class(cls: Partition, domain: Iterable[int] | int) -> Permutation:
    """The class representative with cycles laid out left to right on the
    sorted domain, longest parts first."""
    dom = _as_domain(domain)
    if sum(cls.parts) != len(dom):
        raise PermError("partition degree does not match the domain size")
    # each cycle is a run of dom: a label maps to the next, the last to the first
    images: list[int] = []
    i = 0
    for part in cls.parts:
        images += dom[i + 1 : i + part]
        images.append(dom[i])
        i += part
    return Permutation._of(tuple(images), dom)


def random_in_class(cls: Partition, domain: Iterable[int] | int, rng) -> Permutation:
    """Uniform random member of the conjugacy class ``cls`` on ``domain``."""
    dom = _as_domain(domain)
    if sum(cls.parts) != len(dom):
        raise PermError("partition degree does not match the domain size")
    shuffled = list(dom)
    rng.shuffle(shuffled)
    cycles = []
    i = 0
    for part in cls.parts:
        cycles.append(shuffled[i : i + part])
        i += part
    return from_cycles(cycles, dom)


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
