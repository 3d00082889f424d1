"""Command-line front end.

Exit codes: 0 success/verified, 1 verification failure, 2 inadmissible or
out-of-scope input, 3 parse error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .construct import (
    admissible,
    load_appendix_table,
    parse_datum,
    single_branch_verdict,
)
from .eks import EksError
from .errors import InadmissibleError, ParseError, VerificationError
from .oracle import census
from .perm import PermError
from .realize import (
    certificate_from_text,
    certificate_to_text,
    euler_characteristic,
    realize_rp2,
    realize_sphere,
    verify_certificate,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INADMISSIBLE = 2
EXIT_PARSE = 3


def _cmd_admissible(args) -> int:
    datum = parse_datum(args.datum, args.base)
    if datum.degree != args.degree:
        raise ParseError(
            f"datum degree {datum.degree} disagrees with --degree {args.degree}"
        )
    ok, reason = admissible(datum)
    chi = euler_characteristic(datum.base, datum.degree, datum.nu)
    if ok:
        print(f"nu={datum.nu} chi={chi} admissible {reason}")
        return EXIT_OK
    print(f"nu={datum.nu} chi={chi} inadmissible: {reason}")
    return EXIT_INADMISSIBLE


def _cmd_realize(args) -> int:
    datum = parse_datum(args.datum, args.base)
    cert = realize_rp2(datum, args.seed) if args.base == "rp2" else realize_sphere(
        datum, args.seed
    )
    text = certificate_to_text(cert)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    chi = euler_characteristic(cert.base, cert.degree, cert.datum.nu)
    print(f"verified valid-indecomposable chi={chi}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.certificate, encoding="utf-8") as fh:
        cert = certificate_from_text(fh.read())
    report = verify_certificate(cert)
    line = (
        f"verdict={report.verdict} relation={report.relation_ok} "
        f"types={report.cycle_types_ok} transitive={report.transitive} "
        f"primitive={report.primitive} chi={report.chi_M}"
    )
    if report.reason:
        line += f" reason={report.reason!r}"
    print(line)
    return EXIT_OK if report.verdict == "valid-indecomposable" else EXIT_VERIFY


def _cmd_check_table(args) -> int:
    rows = load_appendix_table()  # checks every row as it loads
    print(f"{len(rows)}/19 appendix rows verified")
    return EXIT_OK


def _cmd_census(args) -> int:
    rows = census(args.degree, args.max_s, args.seed)  # checks the caps
    counts = {"constructed": 0, "boundary": 0, "inadmissible": 0}
    # opened before the first datum is built, so a bad path fails at once
    with open(args.out, "w", newline="\n") if args.out else nullcontext() as fh:
        for row in rows:
            counts[row.classification] += 1
            line = f"{row.datum}\t{row.nu}\t{row.classification}\t{row.millis:.2f}"
            if fh is not None:
                fh.write(line + "\n")
            if not args.quiet:
                print(line)
    summary = (
        f"census d={args.degree} max_s={args.max_s}: "
        f"{counts['constructed']} constructed, {counts['boundary']} boundary, "
        f"{counts['inadmissible']} inadmissible"
    )
    print(summary)
    return EXIT_OK


def _cmd_single_branch(args) -> int:
    print(single_branch_verdict(args.degree))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="branchcover",
        description=(
            "Construct and verify permutation certificates for indecomposable "
            "branched coverings"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admissible", help="check the realizability gate")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--base", choices=["rp2", "s2"], required=True)
    p.add_argument("--datum", required=True)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("realize", help="build and self-verify a certificate")
    p.add_argument("--base", choices=["rp2", "s2"], required=True)
    p.add_argument("--datum", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-table", help="replay the 19 golden rows")
    p.set_defaults(func=_cmd_check_table)

    p = sub.add_parser("census", help="realize every admissible datum of a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-s", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser(
        "single-branch", help="decomposability verdict for the datum {[d]}"
    )
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_single_branch)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (ParseError, PermError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InadmissibleError as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (VerificationError, EksError) as exc:
        print(f"verification failure (internal defect): {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
