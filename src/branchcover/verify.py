"""The independent verifier: certificate records, text format and checks.

A certificate for the projective plane assigns permutations to the
standard generators of the punctured-plane fundamental group subject to
the single relation a^2 * u_1 * ... * u_s = 1; for the sphere the a-image
is absent and the u-images multiply to the identity.  The verifier
re-derives every claim (relation, per-point cycle types, transitivity,
primitivity, Euler characteristic) from the certificate alone, in the same
way for every command.

It imports no builder: only `perm` (permutations, partitions, branch data
and their text), `groups` and `errors`.  `import branchcover.verify` loads
neither `construct` nor `eks`, so `branchcover verify` runs without them.
The arithmetic it trusts is `perm`'s: the relation is checked on
`perm._product_table`, the kernel that `compose` shares with the builder,
and the cycle types and group walks read the same 0-based index tables.
A defect of that kernel that kept the composition order would reach the
builder and the verifier alike; the tests anchor the kernel on golden
products and on an oracle that imports nothing from the library.

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

from collections import namedtuple

from .errors import ParseError
from .groups import (
    GroupError,
    IntransitiveError,
    _witness_cycle,
    is_primitive,
    is_transitive,
)
from .perm import (
    PermError,
    Permutation,
    _numerals,
    _product_table,
    format_cycles,
    parse_cycles,
    parse_datum,
)

_CHI_BASE = {"rp2": 1, "s2": 2}


class HurwitzCertificate(
    namedtuple("_CertificateFields", "base degree datum a_image u_images")
):
    """Generator images witnessing a realization; the verifiable artifact.

    Every way of making one runs the checks of ``__new__``, as for
    `BranchDatum`.
    """

    __slots__ = ()

    def __new__(cls, base, degree, datum, a_image, u_images):
        if base not in _CHI_BASE:
            raise ParseError(f"unknown base surface {base!r}")
        _check_structure(base, degree, datum, a_image is not None, len(u_images))
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


def _check_structure(base, degree, datum, has_a: bool, s: int) -> None:
    """The rules of a certificate's structure that need no image: an a-image
    iff the base is rp2, one u-image per branch point, and the datum's
    degree.  The text reader applies them before it builds any cycle."""
    if has_a != (base == "rp2"):
        raise ParseError("a-image present iff the base is the projective plane")
    if s != len(datum.partitions):
        raise ParseError("one u-image per branch point required")
    if datum.degree != degree:
        raise ParseError("datum degree disagrees with the certificate degree")


VerificationReport = namedtuple(
    "VerificationReport",
    "relation_ok cycle_types_ok transitive primitive chi_M verdict reason",
    defaults=("",),
)


def euler_characteristic(base: str, d: int, nu: int) -> int:
    """chi(M) = d * chi(N) - nu."""
    return d * _CHI_BASE[base] - nu


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
    u_lines.sort()
    if [i for i, _ in u_lines] != list(range(1, len(u_lines) + 1)):
        raise ParseError("u-lines must be numbered 1..s")
    # the text alone decides these, so no cycle is built on a claimed domain
    _check_structure(base, degree, datum, "a" in fields, len(u_lines))
    try:
        us = tuple(parse_cycles(txt, degree) for _, txt in u_lines)
        a = parse_cycles(fields["a"], degree) if "a" in fields else None
    except PermError as exc:
        raise ParseError(str(exc)) from exc
    return HurwitzCertificate(
        base=base, degree=degree, datum=datum, a_image=a, u_images=us
    )
