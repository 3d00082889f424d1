"""Certificate assembly and the independent verifier.

A certificate for the projective plane assigns permutations to the
standard generators of the punctured-plane fundamental group subject to
the single relation a^2 * u_1 * ... * u_s = 1; for the sphere the a-image
is absent and the u-images multiply to the identity.  The verifier
re-derives every claim (relation, per-point cycle types, transitivity,
primitivity, Euler characteristic) from the certificate alone, never
reusing builder state.
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
    u-images from `construct._build`: their product is a (d-2)-cycle, and
    the a-image is the inverse of its square root.  ``memo`` is a dict the
    caller owns (`oracle.census` makes one per call; see
    `construct._shared`): the factor pairs, reduced partitions and
    relabellings of identical sub-constructions, and the a-image of an
    equal product, are then built once and shared.  The verifier is the one
    check of every certificate; a product with no such square root fails it
    too.
    """
    if datum.base != "rp2":
        raise InadmissibleError("datum is not over the projective plane")
    d = datum.degree
    _require_constructible(datum)
    if len(datum.partitions) == 1:
        a, us = full_cycle_datum_construct(datum, seed)
    else:
        us = _build(datum, seed, memo)
        try:
            a = _shared(memo, _a_image, compose(*us))
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
    [d-2,1,1] with total defect at least 2d-2; the verifier is the one check
    of the certificate."""
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
    sigmas = _build(tail, seed, None)
    sigma1 = compose(*sigmas).inverse()
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


def verify_certificate(cert: HurwitzCertificate) -> VerificationReport:
    """Re-derive every claim of the certificate independently of its builder."""
    chi = euler_characteristic(cert.base, cert.degree, cert.datum.nu)

    if cert.base == "rp2":
        total = compose(cert.a_image, cert.a_image, *cert.u_images)
    else:
        total = compose(*cert.u_images)
    relation_ok = total.is_identity()

    cycle_types_ok = all(
        u.cycle_type() == p for u, p in zip(cert.u_images, cert.datum.partitions)
    )

    gens = list(cert.u_images)
    if cert.a_image is not None:
        gens.append(cert.a_image)
    # is_primitive searches the orbits once and reports intransitivity
    transitive = True
    try:
        primitive, _ = is_primitive(gens)
    except IntransitiveError:
        transitive = primitive = False
    except GroupError:  # one point, or closure classes of unequal size
        primitive = False

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
