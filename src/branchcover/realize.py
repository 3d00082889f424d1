"""Certificate assembly and the independent verifier.

A certificate for the projective plane assigns permutations to the
standard generators of the punctured-plane fundamental group subject to
the single relation a^2 * u_1 * ... * u_s = 1; for the sphere the a-image
is absent and the u-images multiply to the identity.  The verifier
re-derives every claim (relation, per-point cycle types, transitivity,
primitivity, Euler characteristic) from the certificate alone, never
reusing builder state.

Primitivity may be settled by a subgroup.  A group containing a transitive
primitive subgroup is itself transitive and primitive, because each of its
block systems is one of the subgroup too.  Given a memo, the verifier tests
⟨u_1 u_2, u_3, ..., a⟩ and then ⟨u_2 u_3, u_1, u_4, ..., a⟩, built from the
certificate's own images and keyed on the index table of the merged
product; the data of one census share such subgroups as they share their
reductions, so the memo keeps subgroup verdicts, never a certificate's own.
Only when neither is "transitive and primitive" is the whole group tested,
as it always is without a memo.
"""

from __future__ import annotations

from typing import NamedTuple

from .construct import (
    BranchDatum,
    _build,
    _require_constructible,
    _shared,
    admissible,
    full_cycle_datum_construct,
    parse_datum,
)
from .errors import InadmissibleError, ParseError, VerificationError
from .groups import GroupError, IntransitiveError, is_primitive
from .perm import (
    Partition,
    PermError,
    Permutation,
    _product_table,
    _table_then,
    compose,
    format_cycles,
    parse_cycles,
    sqrt_odd_cycle,
)

_CHI_BASE = {"rp2": 1, "s2": 2}


class _CertificateFields(NamedTuple):
    base: str
    degree: int
    datum: BranchDatum
    a_image: Permutation | None
    u_images: tuple[Permutation, ...]


class HurwitzCertificate(_CertificateFields):
    """Generator images witnessing a realization; the verifiable artifact.

    Every way of making one runs the checks of ``__new__``, as for
    `BranchDatum`.
    """

    __slots__ = ()

    def __new__(cls, base, degree, datum, a_image, u_images):
        if base not in _CHI_BASE:
            raise ParseError(f"unknown base surface {base!r}")
        if (a_image is not None) != (base == "rp2"):
            raise ParseError("a-image present iff the base is the projective plane")
        if len(u_images) != len(datum.partitions):
            raise ParseError("one u-image per branch point required")
        if datum.degree != degree:
            raise ParseError("datum degree disagrees with the certificate degree")
        images = u_images if a_image is None else (a_image, *u_images)
        if any(p.degree != degree or p.domain[-1] != degree for p in images):
            raise ParseError(f"generator images must act on 1..{degree}")
        return super().__new__(cls, base, degree, datum, a_image, u_images)

    @classmethod
    def _make(cls, iterable) -> "HurwitzCertificate":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class VerificationReport(NamedTuple):
    relation_ok: bool
    cycle_types_ok: bool
    transitive: bool
    primitive: bool
    chi_M: int
    verdict: str
    reason: str = ""


def euler_characteristic(base: str, d: int, nu: int) -> int:
    """chi(M) = d * chi(N) - nu."""
    return d * _CHI_BASE[base] - nu


def _a_image(product: Permutation) -> Permutation:
    """The a-image closing a^2 * product = 1: the inverse of the square root
    of the product, a (d-2)-cycle."""
    return sqrt_odd_cycle(product).inverse()


def realize_rp2(datum: BranchDatum, seed: int = 0, *, memo=None) -> HurwitzCertificate:
    """Certificate for an indecomposable covering of the projective plane.

    The single branch point {[d]} goes to `full_cycle_datum_construct`.
    Every other datum, with or without a branch point [d], takes its
    u-images from `construct._build`, together with their product, a
    (d-2)-cycle, which `_build` hands back without recomposing the factors;
    the a-image is the inverse of its square root.  ``memo`` is a dict the
    caller owns (`oracle.census` makes one per call; see
    `construct._shared`): the factor pairs, reduced partitions and
    relabellings of identical sub-constructions, and the a-image of an
    equal product, are then built once and shared.  The verifier is the one
    check of every certificate: it recomputes a^2 * u_1 * ... * u_s from the
    certificate alone, so a product that disagrees with the factors fails
    it, and so does a product with no such square root.
    """
    d = datum.degree
    _require_constructible(datum)
    if len(datum.partitions) == 1:
        a, us = full_cycle_datum_construct(datum, seed)
    else:
        us, product = _build(datum, seed, memo)
        try:
            a = _shared(memo, _a_image, product)
        except PermError as exc:
            raise VerificationError(f"self-verification failed: {exc}") from exc
    cert = HurwitzCertificate(
        base="rp2", degree=d, datum=datum, a_image=a, u_images=tuple(us)
    )
    report = verify_certificate(cert, memo=memo)
    if report.verdict != "valid-indecomposable":
        raise VerificationError(f"self-verification failed: {report.verdict}")
    return cert


def realize_sphere(datum: BranchDatum, seed: int = 0) -> HurwitzCertificate:
    """Certificate over the sphere for data led by the near-full partition
    [d-2,1,1] with total defect at least 2d-2.  The first u-image is the
    inverse of the product that `construct._build` hands back with the
    tail's factors; the verifier is the one check of the certificate."""
    if datum.base != "s2":
        raise InadmissibleError("datum is not over the sphere")
    ok, reason = admissible(datum)
    if not ok:
        raise InadmissibleError(reason)
    d = datum.degree
    if datum.partitions[0] != Partition([d - 2, 1, 1]):
        raise InadmissibleError("first partition must be [d-2,1,1]")
    tail = BranchDatum(base="rp2", degree=d, partitions=datum.partitions[1:])
    _require_constructible(tail)
    sigmas, product = _build(tail, seed, None)
    sigma1 = product.inverse()
    cert = HurwitzCertificate(
        base="s2",
        degree=d,
        datum=datum,
        a_image=None,
        u_images=(sigma1, *sigmas),
    )
    report = verify_certificate(cert)
    if report.verdict != "valid-indecomposable":
        raise VerificationError(f"self-verification failed: {report.verdict}")
    return cert


def _group_verdict(*gens: Permutation) -> tuple[bool, bool]:
    """(transitive, primitive) of the group the generators span, by the exact
    test; `is_primitive` searches the orbits once and reports intransitivity."""
    try:
        return True, is_primitive(gens)[0]
    except IntransitiveError:
        return False, False
    except GroupError:  # one point, or closure classes of unequal size
        return True, False


def _subgroup_verdict(memo, head, x, y, *rest) -> tuple[bool, bool]:
    """`_group_verdict` of ⟨x y, *rest⟩, kept in ``memo`` under ``head``,
    the 0-based index table of x y, and ``rest``: on 1..d the table names
    the product, so the product permutation is built only on a miss."""
    key = (_subgroup_verdict, head, *rest)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = _group_verdict(compose(x, y), *rest)
    return verdict


def verify_certificate(cert: HurwitzCertificate, memo=None) -> VerificationReport:
    """Re-derive every claim of the certificate independently of its builder.

    The relation is checked as its rotation u_1 ... u_s a^2, which is the
    identity exactly when a^2 u_1 ... u_s is, on the generators' 0-based
    index tables: no product permutation is built, and the table of
    u_1 u_2 leads.

    ``memo`` is a dict the caller owns (see `construct._shared`).  With a
    memo and at least four generators, the verdicts on ⟨u_1 u_2, u_3, ..., a⟩
    and, if needed, ⟨u_2 u_3, u_1, u_4, ..., a⟩ are looked up there or
    computed and kept.  A verdict is keyed on the index table of the merged
    product (for u_1 u_2, the relation check's leading table) and the other
    generators, so the product permutation is built only when a verdict is
    computed.  When one reads transitive and primitive, so is the
    certificate's group, which contains that subgroup: a block system of a
    group is a block system of each of its subgroups (Wielandt, *Finite
    Permutation Groups*, 1964).  Otherwise, or with no memo, the whole group
    is tested, once.  The rule only ever settles "primitive", so the report
    is the same with or without a memo.
    """
    chi = euler_characteristic(cert.base, cert.degree, cert.datum.nu)

    gens = cert.u_images
    if cert.a_image is not None:
        gens = (*gens, cert.a_image)
    head = _product_table(gens[:2])
    rest = gens[2:] if cert.a_image is None else (*gens[2:], cert.a_image)
    relation_ok = _table_then(head, rest) == tuple(range(cert.degree))

    cycle_types_ok = all(
        u.cycle_type() == p for u, p in zip(cert.u_images, cert.datum.partitions)
    )

    # with three generators a merged subgroup is cyclic where the relation holds
    if memo is not None and len(gens) >= 4 and (
        _subgroup_verdict(memo, head, *gens) == (True, True)
        or _subgroup_verdict(memo, _product_table(gens[1:3]), *gens[1:3], gens[0], *gens[3:])
        == (True, True)
    ):
        transitive = primitive = True
    else:
        transitive, primitive = _group_verdict(*gens)

    if not relation_ok:
        verdict, reason = "invalid", "relation violated"
    elif not cycle_types_ok:
        verdict, reason = "invalid", "cycle type mismatch"
    elif not transitive:
        verdict, reason = "invalid", "monodromy not transitive (disconnected cover)"
    elif primitive:
        verdict, reason = "valid-indecomposable", ""
    else:
        verdict, reason = "valid-decomposable", "monodromy imprimitive"
    return VerificationReport(
        relation_ok=relation_ok,
        cycle_types_ok=cycle_types_ok,
        transitive=transitive,
        primitive=primitive,
        chi_M=chi,
        verdict=verdict,
        reason=reason,
    )


# -- certificate text format ----------------------------------------------------


def certificate_to_text(cert: HurwitzCertificate) -> str:
    """Bit-exact line format (LF endings): base, degree, datum, a (rp2 only),
    then one u[i] line per branch point."""
    lines = [
        f"base: {cert.base}",
        f"degree: {cert.degree}",
        f"datum: {cert.datum}",
    ]
    if cert.a_image is not None:
        lines.append(f"a: {format_cycles(cert.a_image)}")
    for i, u in enumerate(cert.u_images, start=1):
        lines.append(f"u[{i}]: {format_cycles(u)}")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> HurwitzCertificate:
    fields: dict[str, str] = {}
    u_lines: list[tuple[int, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"malformed certificate line: {raw!r}")
        key = key.strip()
        if key.startswith("u[") and key.endswith("]"):
            try:
                u_lines.append((int(key[2:-1]), value.strip()))
            except ValueError as exc:
                raise ParseError(f"malformed u index in {raw!r}") from exc
        elif key not in ("base", "degree", "datum", "a"):
            raise ParseError(f"unknown field {key!r} in {raw!r}")
        elif key in fields:
            raise ParseError(f"repeated field {key!r} in {raw!r}")
        else:
            fields[key] = value.strip()
    try:
        base = fields["base"]
        degree = int(fields["degree"])
        datum = parse_datum(fields["datum"], base)
    except KeyError as exc:
        raise ParseError(f"certificate missing field {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if datum.degree != degree:
        raise ParseError("datum degree disagrees with the degree line")
    u_lines.sort()
    if [i for i, _ in u_lines] != list(range(1, len(u_lines) + 1)):
        raise ParseError("u-lines must be numbered 1..s")
    try:
        us = tuple(parse_cycles(txt, degree) for _, txt in u_lines)
        a = parse_cycles(fields["a"], degree) if "a" in fields else None
    except PermError as exc:
        raise ParseError(str(exc)) from exc
    return HurwitzCertificate(
        base=base, degree=degree, datum=datum, a_image=a, u_images=us
    )
