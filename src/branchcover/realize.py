"""Certificate assembly and the independent verifier.

A certificate for the projective plane assigns permutations to the
standard generators of the punctured-plane fundamental group subject to
the single relation a^2 * u_1 * ... * u_s = 1; for the sphere the a-image
is absent and the u-images multiply to the identity.  The verifier
re-derives every claim (relation, per-point cycle types, transitivity,
primitivity, Euler characteristic) from the certificate alone, never
reusing builder state, and in the same way for every command.

Primitivity is settled by the construction's own witness when the
certificate carries it.  The a-image of a constructed certificate is a
(d-2)-cycle, since a^-2 = u_1 ... u_s is one, and so is u_1 over the sphere;
for odd d >= 5 a transitive group containing a (d-2)-cycle is primitive
(`groups._witness_cycle`), so one orbit walk gives the verdict.  Any other
certificate gets the exact test of `groups.is_primitive`.

The group is generated without u_s when the relation holds, since u_s is
then the inverse of a^2 u_1 ... u_{s-1}; at least one image is kept.  The
verdicts and the witness block system are those of all images, and the
orbit walk and the block closure read one table fewer per step: on the
first 180 certificates of the verify-large benchmark stream the closures
read 61,962 tables instead of 77,877.  A certificate whose relation fails
is decided on every image.
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
from .groups import (
    GroupError,
    IntransitiveError,
    _witness_cycle,
    is_primitive,
    is_transitive,
)
from .perm import (
    Partition,
    PermError,
    Permutation,
    _numerals,
    _product_table,
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
        if datum.base != base:
            raise ParseError("datum base disagrees with the certificate base")
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
    equal product, are then built once and shared.  The verifier, which
    shares nothing with the memo, is the one check of every certificate: it
    recomputes a^2 * u_1 * ... * u_s from the certificate alone, so a
    product that disagrees with the factors fails it, and so does a product
    with no such square root.
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
    report = verify_certificate(cert)
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
    """(transitive, primitive) of the group the generators span, with one
    orbit walk.  A generator with an isolated (d-2)-cycle, the paper's
    witness, leaves only transitivity to decide; otherwise `is_primitive`
    decides both, and reports intransitivity."""
    if _witness_cycle(gens, gens[0].degree - 2):
        transitive = is_transitive(gens)
        return transitive, transitive
    try:
        return True, is_primitive(gens)[0]
    except IntransitiveError:
        return False, False
    except GroupError:  # one point, or closure classes of unequal size
        return True, False


def verify_certificate(cert: HurwitzCertificate) -> VerificationReport:
    """Re-derive every claim of the certificate independently of its builder.

    The relation is checked as its rotation u_1 ... u_s a^2, which is the
    identity exactly when a^2 u_1 ... u_s is, on the generators' 0-based
    index tables: no product permutation is built.  Transitivity and
    primitivity come from `_group_verdict`, once per certificate.

    When the relation holds, u_s = (a^2 u_1 ... u_{s-1})^-1 lies in the
    group the other images span, and `_group_verdict` gets those alone,
    keeping at least one (a sphere certificate with s = 1 keeps u_1, which
    the relation makes the identity); otherwise it gets every image.
    """
    chi = euler_characteristic(cert.base, cert.degree, cert.datum.nu)

    gens = rotation = cert.u_images
    if cert.a_image is not None:
        gens = (cert.a_image, *gens)  # first: a constructed a-image is the witness
        rotation = (*rotation, cert.a_image, cert.a_image)
    relation_ok = _product_table(rotation) == tuple(range(cert.degree))

    cycle_types_ok = all(
        u.cycle_type() == p for u, p in zip(cert.u_images, cert.datum.partitions)
    )

    if relation_ok and len(gens) > 1:
        gens = gens[:-1]  # u_s: the product of the others, inverted
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
                (index,) = _numerals([key[2:-1]])
            except ValueError as exc:
                raise ParseError(f"malformed u index in {raw!r}") from exc
            u_lines.append((index, value.strip()))
        elif key not in ("base", "degree", "datum", "a"):
            raise ParseError(f"unknown field {key!r} in {raw!r}")
        elif key in fields:
            raise ParseError(f"repeated field {key!r} in {raw!r}")
        else:
            fields[key] = value.strip()
    try:
        base = fields["base"]
        (degree,) = _numerals([fields["degree"]])
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
