"""Constructive realization of branch data by permutation tuples.

`admissible` states the admissibility rule once for the whole library
(odd degree, even total defect, the d-1 and 2d-2 thresholds, the boundary
only with a branch point [d]); every construction entry and `realize` gate
on it.

`two_datum_construct` realizes a pair of partitions of odd degree d with
even total defect above d-1 by permutations whose product is a
(d-2)-cycle generating a transitive (hence primitive) group.  The
construction follows a case split on the two largest parts: a small-shape
golden table, or one of three deletion cases.  Each deletion case only
chooses a partial partner beta0 on two to six deleted points, the reduced
target and (case 1) an anchor; `_reinsert` merges lam*beta0 on the kept
points into a full cycle and re-inserts the deleted points.  The pair comes
with its route, a `ConstructionTrace` of the case and the kind of the
re-insertion merge, and with the product that its exit check composed.
`fundamental_construct` extends this to any number of partitions: one loop
merges two at a time with controlled product defect until two remain,
builds their pair and unwinds the merges by explicit Hurwitz moves.  The
moves keep the ordered product, so the loop hands back the product of the
last pair, composed once, with the factors: the a-image (over the sphere,
the first u-image) comes from it without recomposing the factors.  A
datum containing the full-cycle partition [d] needs no rule of its own:
with s >= 2 branch points it is strict and the same loop realizes it.
Only the single branch point {[d]} is special, and
`full_cycle_datum_construct` realizes it by the canonical d-cycle when d is
prime (`single_branch_verdict`).

Each public construction checks its output once, at its exit, with explicit
checks that `python -O` keeps: `two_datum_construct` and
`fundamental_construct` check the class of each factor, the product's cycle
type, transitivity and primitivity; `full_cycle_datum_construct` checks the
representation relation.  The golden table passes the same output check
when it is loaded.  A failed check raises `EksError`.  The loop `_build`
neither gates nor checks a step; `realize` calls it and leaves the one
check of a certificate to its independent verifier.

Data with many branch points share most of their reduction subtrees.
`_build` takes an optional `memo`, a dict the caller owns: `realize_rp2`
passes its own (`oracle.census` makes one per call).  Every step that is a
pure function of its inputs is then kept in the memo under its inputs
(`_shared`, `_reduction`) and runs once per distinct input: the factor
pair of `two_datum_construct` (with its product) and of the
`product_defect_*` step (with its product and that product's cycle type,
the merged partition), the merge inside a `product_defect_reduced` step,
kept under its own inputs (A, target, seed) so that an odd step's merge
onto B' is the even step's merge onto B', and the relabelling of a merged
pair onto the reduced datum's first factor (the conjugator and the two
conjugates).  A shared pair passed its own output check when it was
built; every realized datum is still verified on its own.

The construction is over the projective plane: each entry refuses a datum
tagged for another base.  The sphere reaches it through an rp2 tail
(`realize.realize_sphere`).
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache, partial
from importlib import resources

from .errors import InadmissibleError, ParseError
from .groups import GroupError, is_primitive, is_transitive, primitivity_fast_path
from .groups import _largest_proper_divisor
from .eks import (
    EksError,
    MergeTrace,
    _canonical_merge,
    _reduced,
    merge_with_trace,
    product_defect_exact,
    product_defect_reduced,
)
from .perm import (
    Partition,
    PermError,
    Permutation,
    _product_table,
    _relabelled,
    all_in_class,
    canonical_in_class,
    compose,
    conjugate,
    conjugator_matching,
    embed,
    from_cycles,
    parse_cycles,
    project,
    random_in_class,
    sqrt_odd_cycle,
)


# -- branch data -----------------------------------------------------------------


class BranchDatum(namedtuple("_BranchDatumFields", "base degree partitions")):
    """Base surface tag, degree, and one partition per branch point.

    Every way of making one runs the checks of ``__new__``: ``_make`` (and so
    ``_replace``), copy and pickle all call the class.
    """

    __slots__ = ()

    def __new__(cls, base: str, degree: int, partitions: tuple[Partition, ...]):
        if base not in ("rp2", "s2"):
            raise ParseError(f"unknown base surface {base!r}")
        if not partitions:
            raise ParseError("a branch datum needs at least one partition")
        for p in partitions:
            if p.degree != degree:
                raise ParseError(f"partition {p} does not sum to degree {degree}")
            if p.is_trivial():
                raise ParseError("trivial partition [1,...,1] is not a branch point")
        return super().__new__(cls, base, degree, partitions)

    @classmethod
    def _make(cls, iterable) -> "BranchDatum":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    @property
    def nu(self) -> int:
        nu = 0
        for p in self.partitions:  # a census row reads nu often: no generator
            nu += p.nu
        return nu

    def __str__(self) -> str:
        return ";".join(str(p) for p in self.partitions)


def admissible(datum: BranchDatum) -> tuple[bool, str]:
    """The admissibility rule, stated once for the whole library.

    Rejects, with the reason, an even degree, an odd total defect nu,
    nu < d-1 over the projective plane and nu < 2d-2 over the sphere (chi(M)
    would exceed 2).  Otherwise returns True with the kind of datum:
    'strict' (nu > d-1), 'boundary' (nu = d-1, which the construction covers
    only with a full-cycle branch point [d]) or, over the sphere,
    'necessary-only' (realized only on the [d-2,1,1] pipeline).
    """
    return _admission(datum.base, datum.degree, datum.nu)


def _admission(base: str, d: int, nu: int) -> tuple[bool, str]:
    """`admissible` on what it reads of a datum: the rule depends on the
    base, the degree and the total defect only, so a caller holding these
    (`oracle.census`) classifies without building the datum."""
    if d % 2 == 0:
        reason = "even degree out of scope (covered by the prior even-degree result)"
        return False, reason
    if nu % 2 != 0:
        return False, f"parity violation: nu={nu} is odd"
    if base == "s2":
        if nu < 2 * d - 2:
            return False, f"nu={nu} below 2d-2={2 * d - 2}: chi(M) would exceed 2"
        return True, "necessary-only"
    if nu < d - 1:
        return False, f"nu={nu} below d-1={d - 1}"
    if nu == d - 1:
        return True, "boundary"
    return True, "strict"


def _require_constructible(datum: BranchDatum) -> None:
    """Raise InadmissibleError unless the construction covers the datum: a
    datum over the projective plane (the sphere reaches the construction
    through an rp2 tail, see `realize.realize_sphere`) that `admissible`
    accepts, the boundary only with a branch point [d]."""
    if datum.base != "rp2":
        raise InadmissibleError(f"the construction needs an rp2 datum, not {datum.base}")
    ok, kind = admissible(datum)
    if ok and kind == "boundary" and Partition([datum.degree]) not in datum.partitions:
        ok, kind = False, "boundary defect nu = d-1 without a full-cycle branch point"
    if not ok:
        raise InadmissibleError(kind)


def parse_datum(text: str, base: str) -> BranchDatum:
    parts = [s for s in text.strip().split(";") if s.strip()]
    if not parts:
        raise ParseError("empty datum literal")
    try:
        partitions = tuple(Partition.parse(s) for s in parts)
    except PermError as exc:
        raise ParseError(str(exc)) from exc
    return BranchDatum(base=base, degree=partitions[0].degree, partitions=partitions)


# -- golden table ------------------------------------------------------------------


AppendixRow = namedtuple("AppendixRow", "index degree D1 D2 lam beta product")


def _parse_table(text: str) -> tuple[AppendixRow, ...]:
    rows = []
    block: dict[str, str] = {}

    def flush():
        if not block:
            return
        d = int(block["degree"])
        d1_txt, d2_txt = block["datum"].split(";")
        row = AppendixRow(
            index=int(block["row"]),
            degree=d,
            D1=Partition.parse(d1_txt),
            D2=Partition.parse(d2_txt),
            lam=parse_cycles(block["lambda"], d),
            beta=parse_cycles(block["beta"], d),
            product=parse_cycles(block["product"], d),
        )
        rows.append(row)
        block.clear()

    for line in text.splitlines():
        line = line.strip()
        if not line:
            flush()
            continue
        key, _, value = line.partition(":")
        block[key.strip()] = value.strip()
    flush()
    return tuple(rows)


@lru_cache(maxsize=1)
def load_appendix_table() -> tuple[AppendixRow, ...]:
    """Load and verify the 19 golden two-partition realizations."""
    text = (
        resources.files("branchcover").joinpath("data/appendix_table.txt").read_text()
    )
    rows = _parse_table(text)
    if len(rows) != 19:
        raise EksError(f"appendix table corrupt: {len(rows)} rows")
    for row in rows:
        try:
            product = _check_construction([row.lam, row.beta], (row.D1, row.D2), row.degree)
        except EksError as exc:
            raise EksError(f"table row {row.index}: {exc}") from exc
        if product != row.product:
            raise EksError(
                f"table row {row.index}: stated product mismatch "
                "(composition convention regression?)"
            )
    return rows


@lru_cache(maxsize=1)
def _table_by_key() -> dict:
    out = {}
    for row in load_appendix_table():
        key = (row.degree, tuple(sorted((row.D1.parts, row.D2.parts))))
        out.setdefault(key, row)
    return out


# -- construction trace -------------------------------------------------------------


ConstructionTrace = namedtuple("ConstructionTrace", "case merge", defaults=(None,))
ConstructionTrace.__doc__ = (
    "The route of a pair: its case, and the re-insertion merge's trace."
)


# -- the two-partition construction --------------------------------------------------


def _check_pair_gate(D1: Partition, D2: Partition) -> int:
    if D1.degree != D2.degree:
        raise InadmissibleError("partition degrees differ")
    if D1.is_trivial() or D2.is_trivial():
        raise InadmissibleError("trivial partition is not a branch point")
    _require_constructible(BranchDatum("rp2", D1.degree, (D1, D2)))
    return D1.degree


def _cycle_starts(cls: Partition) -> list[int]:
    starts, acc = [], 1
    for part in cls.parts:
        starts.append(acc)
        acc += part
    return starts


def _reinsert(case, lam, beta0, deleted, Dbar2, seed, anchor=None):
    """Merge on the kept points, then re-insert the deleted ones.

    lam*beta0 is projected onto the points outside ``deleted`` and merged
    there with Dbar2 into a full cycle; beta = beta0 * embed(beta_bar).
    """
    d = lam.degree
    keep = tuple(x for x in range(1, d + 1) if x not in deleted)
    lam_bar = project(compose(lam, beta0), keep)
    beta_bar, mtrace = merge_with_trace(lam_bar, Dbar2, seed, anchor=anchor)
    return lam, compose(beta0, embed(beta_bar, d)), ConstructionTrace(case, mtrace)


def _case1(A: Partition, B: Partition, d: int, seed: int):
    b1 = B.parts[0]
    lam = canonical_in_class(A, d)
    beta0 = from_cycles([(3, 2, 1)], d)
    Dbar2 = Partition([b1 - 2, *B.parts[1:]])
    return _reinsert("case1", lam, beta0, (1, 2), Dbar2, seed, anchor=(b1 - 2, 3))


def _case2(A: Partition, B: Partition, d: int, seed: int):
    row = _table_by_key().get((d, tuple(sorted((A.parts, B.parts)))))
    if row is not None:
        if A == row.D1 and B == row.D2:
            lam, beta = row.lam, row.beta
        else:
            lam, beta = row.beta, row.lam
        return lam, beta, ConstructionTrace(case="case2-table")

    t = len(A.parts)
    if not (t >= 4 and all(c >= 2 for c in A.parts[1:4])):
        return None
    if len(B.parts) < 2 or B.parts[1] < 2:
        raise EksError("second part of the partner partition must exceed 1 here")
    d2 = B.parts[1]  # 2 or 3: only b1 == 3 reaches here

    starts = _cycle_starts(A)
    a11, a12 = starts[0], starts[0] + 1
    a21, a22 = starts[1], starts[1] + 1
    a31 = starts[2]
    if d2 == 2:
        beta0 = from_cycles([(a12, a11), (a22, a21, a31)], d)
        deleted = (a11, a12, a21, a22, a31)
    else:
        a41 = starts[3]
        beta0 = from_cycles([(a12, a11, a41), (a22, a21, a31)], d)
        deleted = (a11, a12, a21, a22, a31, a41)
    lam = canonical_in_class(A, d)
    return _reinsert("case2-general", lam, beta0, deleted, Partition(B.parts[2:]), seed)


def _case3(A: Partition, B: Partition, d: int, seed: int):
    c1 = A.parts[0]
    if len(B.parts) < 2 or B.parts[1] != 2:
        raise EksError("partner partition must contain two 2-parts here")
    starts = _cycle_starts(A)
    if c1 <= 4:
        if len(A.parts) < 2 or A.parts[1] < 3:
            raise EksError("second part below 3 contradicts the defect hypotheses")
        deleted = (1, 2, starts[1], starts[1] + 1)
        beta0 = from_cycles([(1, 2), (starts[1] + 1, starts[1])], d)
    else:
        deleted = (1, 2, 3, 4)
        beta0 = from_cycles([(1, 2), (3, 4)], d)
    lam = canonical_in_class(A, d)
    return _reinsert("case3", lam, beta0, deleted, Partition(B.parts[2:]), seed)


def _pair_search_fallback(A: Partition, B: Partition, d: int, seed: int):
    """Verified search safety net for shapes outside the written case split."""
    lam = canonical_in_class(A, d)
    want = Partition([d - 2, 1, 1])
    rng = random.Random(seed)
    for _ in range(256 + 64 * d):
        beta = random_in_class(B, d, rng)
        if compose(lam, beta).cycle_type() == want and is_transitive([lam, beta]):
            return lam, beta, ConstructionTrace(case="search")
    for beta in all_in_class(B, d):
        if compose(lam, beta).cycle_type() == want and is_transitive([lam, beta]):
            return lam, beta, ConstructionTrace(case="search")
    raise EksError("two-partition search exhausted (defect)")


def two_datum_construct(
    D1: Partition, D2: Partition, seed: int = 0
) -> tuple[Permutation, Permutation, ConstructionTrace, Permutation]:
    """lam in D1 and beta in D2 with lam*beta a (d-2)-cycle and <lam, beta>
    transitive and primitive, the pair's route, and the product lam*beta
    that the exit check composed.

    Requires odd d >= 3 and d-1 < nu(D1) + nu(D2) even.
    """
    d = _check_pair_gate(D1, D2)

    if d == 3:
        lam_out = canonical_in_class(D1, 3)
        beta_out = lam_out.inverse()
        trace = ConstructionTrace(case="d3")
    else:
        swapped = D1.nu < D2.nu
        A, B = (D2, D1) if swapped else (D1, D2)
        c1, b1 = A.parts[0], B.parts[0]
        got = None
        if c1 + b1 > 6 and b1 >= 3:
            got = _case1(A, B, d, seed)
        elif c1 == 3 and b1 == 3:
            got = _case2(A, B, d, seed)
        elif b1 == 2:
            got = _case3(A, B, d, seed)
        if got is None:
            got = _pair_search_fallback(A, B, d, seed)
        lam, beta, trace = got
        lam_out, beta_out = (beta, lam) if swapped else (lam, beta)

    product = _check_construction([lam_out, beta_out], (D1, D2), d)
    return lam_out, beta_out, trace, product


def _check_construction(sigmas, parts, d):
    """Output check of a public construction: sigma_i in parts[i], the
    ordered product of type [d-2,1,1], the span transitive and primitive.
    Returns the product, composed once here.

    One orbit search settles transitivity: `primitivity_fast_path` raises
    on an intransitive span and applies for every odd d > 3; only d = 3
    falls back to the exact test.  The product lies in the span, so it
    leads the generators the fast path gets, which then finds its
    (d-2)-cycle without composing it again.
    """
    for sigma, cls in zip(sigmas, parts):
        if sigma.cycle_type() != cls:
            raise EksError(f"construction output: a factor is not in the class {cls}")
    product = compose(*sigmas)
    if product.cycle_type() != Partition([d - 2, 1, 1]):
        raise EksError("construction output: the product is not of type [d-2,1,1]")
    try:
        prim = primitivity_fast_path((product, *sigmas), d - 2)
        if prim is None:
            prim = is_primitive(sigmas)[0]
    except GroupError as exc:
        raise EksError(f"construction output: {exc}") from exc
    if not prim:
        raise EksError("construction output: the group is imprimitive")
    return product


# -- reduction and induction -----------------------------------------------------------


def _shared(memo, build, *args):
    """``build(*args)``, where ``build`` is a pure function of its arguments.

    With ``memo`` None the value is built.  Otherwise ``memo`` is a dict that
    the caller owns and drops; the value is built once per key
    (build, *args) and shared.  Keys compare by value (`Permutation` hashes
    its domain and index table), so a hit needs equal arguments, not the same
    origin.  Only derived values are stored, never a trace.
    """
    if memo is None:
        return build(*args)
    key = (build, *args)
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(*args)
    return value


def _pair(A, B, seed):
    """The factor pair of `two_datum_construct` and its checked product."""
    lam, beta, _, product = two_datum_construct(A, B, seed)
    return lam, beta, product


def _reduction(memo, factor, A, B, seed):
    """The step ``factor(A, B, seed)`` of a reduction, ``factor`` a
    `product_defect_*` function: the factor pair, its product and the cycle
    type of the product, the merged partition.  With a ``memo`` the step is
    kept as `_shared` keeps a value, under (factor, A, B, seed).

    A `product_defect_reduced` step runs that function's one code path
    (`eks._reduced`) with its merge shared under the merge's own inputs
    (A, target, seed): an odd step merges onto B' as the even step with B'
    does, so each distinct merge runs once per memo.  Its product is the
    one that the step's defect check composed.
    """
    key = (_reduction, factor, A, B, seed)
    step = None if memo is None else memo.get(key)
    if step is None:
        if factor is product_defect_reduced:
            merge = partial(_shared, memo, _canonical_merge)
            gamma1, gamma2, product = _reduced(A, B, seed, merge)
        else:
            gamma1, gamma2 = factor(A, B, seed)
            product = compose(gamma1, gamma2)
        step = gamma1, gamma2, product, product.cycle_type()
        if memo is not None:
            memo[key] = step
    return step


def _conjugate_pair(gamma1, gamma2, lam):
    """gamma1 and gamma2 relabelled by one conjugator."""
    return conjugate(gamma1, lam), conjugate(gamma2, lam)


# product is gamma1 * gamma2, of the type of reduced's first partition
ReductionStep = namedtuple("ReductionStep", "reduced gamma1 gamma2 merged product")


def _merge_rule(top, nu, d):
    """(i1, i2, factor): the pair among the first three partitions ``top`` of
    a gated datum of defect ``nu`` that a reduction step merges, and the
    `product_defect_*` step its excess over d-1 picks.  It is (0, 1) unless
    the rest carries one spare transposition; then the heavier of the first
    two stays out, so that the reduced datum clears the gate."""
    i1, i2 = 0, 1
    if nu - top[0].nu - top[1].nu == 1:
        i1, i2 = (1 if top[0].nu > 1 else 0), 2
    r = top[i1].nu + top[i2].nu - (d - 1)
    return i1, i2, product_defect_exact if r <= 0 else product_defect_reduced


def reduce_collection(datum: BranchDatum, seed: int = 0) -> ReductionStep:
    """Merge two partitions of the datum into the cycle type of a product
    with controlled defect, preserving the admissibility gate."""
    _require_constructible(datum)
    parts = datum.partitions
    if len(parts) < 3:
        raise InadmissibleError("reduction needs at least three partitions")
    i1, i2, factor = _merge_rule(parts, datum.nu, datum.degree)
    gamma1, gamma2, product, D = _reduction(None, factor, parts[i1], parts[i2], seed)
    keep = (p for i, p in enumerate(parts) if i not in (i1, i2))
    reduced = BranchDatum(base=datum.base, degree=datum.degree, partitions=(D, *keep))
    return ReductionStep(reduced, gamma1, gamma2, (i1, i2), product)


def _unwind_step(stack, merged, h1, h2):
    """Put the relabelled merged pair (h1, h2) at the positions ``merged``
    of the factors ``stack`` holds first on top (the pair's product popped).
    For (0, 2) and (1, 2), Hurwitz moves (x, y) -> (x*y*x^-1, x), which keep
    the ordered product, each slot's class and the group, carry the next
    factor r1: h1, h2*r1*h2^-1, h2, ... and x*r1*x^-1, h1, h2, ... (x = h1*h2).
    """
    if merged == (0, 1):
        stack += (h2, h1)
    elif merged == (0, 2):
        stack += (h2, conjugate(stack.pop(), h2), h1)  # pops r1 first
    else:
        # conjugating by x through its index table: x itself is not built
        stack += (h2, h1, _relabelled(stack.pop(), _product_table((h1, h2))))


def fundamental_construct(datum: BranchDatum, seed: int = 0) -> tuple[Permutation, ...]:
    """Permutations sigma_i, one per partition in order, whose product is a
    (d-2)-cycle and whose span is transitive and primitive.  Gated and
    checked once, here; `two_datum_construct` checked a pair."""
    _require_constructible(datum)
    if len(datum.partitions) < 2:
        raise InadmissibleError("the construction needs at least two partitions")
    sigmas, _ = _build(datum, seed, None)
    if len(datum.partitions) > 2:
        _check_construction(sigmas, datum.partitions, datum.degree)
    return sigmas


def _build(
    datum: BranchDatum, seed: int, memo
) -> tuple[tuple[Permutation, ...], Permutation]:
    """The loop of `fundamental_construct`, with no gate and no check of its
    own: the caller gates the datum, which each step preserves, and checks
    or verifies the result once.  The partitions wait on a stack, the first
    on top; steps merge a pair until two remain, their pair is built, and
    the steps are unwound in reverse.  The work is linear in s.

    Returns the factors and their ordered product.  Each unwind step keeps
    the product (`_unwind_step`), so it is the last pair's product, composed
    once by the pair's exit check; callers take the a-image from it and do
    not recompose.
    Above degree 3 a pair whose first partition has the smaller defect is
    its mirror (D2, D1) swapped, so the memo builds one pair for both
    orders; only the product is composed again, in this order, each time.
    """
    d, nu = datum.degree, datum.nu
    parts = list(reversed(datum.partitions))
    steps = []
    while len(parts) > 2:
        top = (parts.pop(), parts.pop(), parts.pop())
        i1, i2, factor = _merge_rule(top, nu, d)
        A, B = top[i1], top[i2]
        gamma1, gamma2, product, D = _reduction(memo, factor, A, B, seed)
        parts += (top[3 - i1 - i2], D)  # the reduced datum: D, then the rest in order
        nu += D.nu - A.nu - B.nu
        steps.append((gamma1, gamma2, product, (i1, i2)))

    D1, D2 = parts[-1], parts[-2]
    if d > 3 and D1.nu < D2.nu:  # `two_datum_construct` builds (D2, D1) and swaps it
        beta, lam, _ = _shared(memo, _pair, D2, D1, seed)
        total = compose(lam, beta)
    else:
        lam, beta, total = _shared(memo, _pair, D1, D2, seed)
    stack = [beta, lam]
    for gamma1, gamma2, product, merged in reversed(steps):
        try:
            lam_hat = _shared(memo, conjugator_matching, product, stack.pop())
        except PermError as exc:  # a defect below: the first factor has the wrong type
            raise EksError(f"construction output: {exc}") from exc
        h1, h2 = _shared(memo, _conjugate_pair, gamma1, gamma2, lam_hat)
        _unwind_step(stack, merged, h1, h2)
    return tuple(reversed(stack)), total


# -- data containing the full-cycle partition [d] ----------------------------------------


def single_branch_verdict(d: int) -> str:
    """Verdict for the one-branch-point self-covering of the projective plane."""
    if d < 1:
        raise InadmissibleError(f"degree {d} is not positive")
    if d % 2 == 0:
        raise InadmissibleError("even degree excluded: the datum {[d]} forces d odd")
    if _largest_proper_divisor(d) == 1:
        return "indecomposable"
    return "decomposable"


def _full_cycle_partner_search(B: Permutation, seed: int) -> Permutation:
    """A d-cycle g with B*g a d-cycle and <B, g> primitive (verified search;
    the constructive proof lives outside this library).

    No construction calls it: data containing [d] go through `_build`.  It
    stays defined only because the benchmark's layer tracer binds it by name.
    """
    d = B.degree
    full = Partition([d])
    rng = random.Random(seed)
    for _ in range(256 + 64 * d):
        g = random_in_class(full, d, rng)
        if len(compose(B, g).cycles()) == 1 and is_primitive([B, g])[0]:
            return g
    for g in all_in_class(full, d):
        if len(compose(B, g).cycles()) == 1 and is_primitive([B, g])[0]:
            return g
    raise EksError("full-cycle partner search exhausted (defect)")


def full_cycle_datum_construct(
    datum: BranchDatum, seed: int = 0
) -> tuple[Permutation, tuple[Permutation, ...]]:
    """Certificate ingredients (a, u_1..u_s) with a^2 * u_1 * ... * u_s = 1
    for a datum containing the partition [d].

    The single branch point {[d]} is realized by the canonical d-cycle when
    d is prime.  Any other such datum is strict and the u-images come from
    the fundamental construction (`_build`), which hands back their product
    too.  Either way the a-image is the inverse of the square root of the
    product, and the relation is checked on the factors themselves.
    """
    d = datum.degree
    if Partition([d]) not in datum.partitions:
        raise InadmissibleError("datum does not contain the full-cycle partition")
    _require_constructible(datum)
    if len(datum.partitions) > 1:
        us, product = _build(datum, seed, None)
    elif _largest_proper_divisor(d) == 1:
        product = canonical_in_class(datum.partitions[0], d)
        us = (product,)
    else:
        raise InadmissibleError(
            "only decomposable realizations (single branch point, composite degree)"
        )
    try:
        a = sqrt_odd_cycle(product).inverse()
    except PermError as exc:  # a defect below: the product is no odd cycle
        raise EksError(f"construction output: {exc}") from exc
    if not compose(a, a, *us).is_identity():
        raise EksError("construction output: the representation relation is violated")
    return a, us
