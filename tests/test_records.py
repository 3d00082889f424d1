"""The library's records: immutable, compared by value, validated on every
construction path, and importable without `dataclasses`."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import branchcover
from branchcover.construct import (
    AppendixRow,
    BranchDatum,
    ConstructionTrace,
    ReductionStep,
)
from branchcover.eks import MergeTrace
from branchcover.errors import ParseError
from branchcover.groups import BlockSystem
from branchcover.oracle import CensusRow
from branchcover.perm import Partition, from_cycles
from branchcover.realize import HurwitzCertificate, VerificationReport


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(branchcover.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import branchcover, branchcover.oracle, branchcover.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_P = from_cycles([(1, 2, 3)], 3)
_Q = from_cycles([(1, 2)], 3)


def _datum():
    return BranchDatum("rp2", 3, (Partition([3]), Partition([2, 1])))


_DATUM_REPR = (
    "BranchDatum(base='rp2', degree=3, partitions=(Partition([3]), Partition([2, 1])))"
)

# (build one instance, a field to assign, its repr as the dataclass records printed it)
RECORDS = {
    "CensusRow": (
        lambda: CensusRow(datum="[3];[3]", nu=4, classification="valid-indecomposable", millis=0.25),
        "millis",
        "CensusRow(datum='[3];[3]', nu=4, classification='valid-indecomposable', millis=0.25)",
    ),
    "VerificationReport": (
        lambda: VerificationReport(True, True, True, False, -1, "decomposable"),
        "verdict",
        "VerificationReport(relation_ok=True, cycle_types_ok=True, transitive=True, "
        "primitive=False, chi_M=-1, verdict='decomposable', reason='')",
    ),
    "BlockSystem": (
        lambda: BlockSystem(degree=4, blocks=((1, 3), (2, 4)), block_size=2),
        "blocks",
        "BlockSystem(degree=4, blocks=((1, 3), (2, 4)), block_size=2)",
    ),
    "AppendixRow": (
        lambda: AppendixRow(1, 3, Partition([3]), Partition([2, 1]), _P, _Q, _P),
        "beta",
        "AppendixRow(index=1, degree=3, D1=Partition([3]), D2=Partition([2, 1]), "
        "lam=Permutation('(1 2 3)', d=3), beta=Permutation('(1 2)', d=3), "
        "product=Permutation('(1 2 3)', d=3))",
    ),
    "ReductionStep": (
        lambda: ReductionStep(_datum(), _P, _Q, (0, 1), _P),
        "reduced",
        f"ReductionStep(reduced={_DATUM_REPR}, gamma1=Permutation('(1 2 3)', d=3), "
        "gamma2=Permutation('(1 2)', d=3), merged=(0, 1), product=Permutation('(1 2 3)', d=3))",
    ),
    "MergeTrace": (lambda: MergeTrace("split"), "kind", "MergeTrace(kind='split')"),
    "ConstructionTrace": (
        lambda: ConstructionTrace("case1", merge=MergeTrace("threading")),
        "merge",
        "ConstructionTrace(case='case1', merge=MergeTrace(kind='threading'))",
    ),
    "BranchDatum": (_datum, "base", _DATUM_REPR),
    "HurwitzCertificate": (
        lambda: HurwitzCertificate("rp2", 3, _datum(), _P, (_Q, _P)),
        "a_image",
        f"HurwitzCertificate(base='rp2', degree=3, datum={_DATUM_REPR}, "
        "a_image=Permutation('(1 2 3)', d=3), "
        "u_images=(Permutation('(1 2)', d=3), Permutation('(1 2 3)', d=3)))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_value(name):
    build, field, text = RECORDS[name]
    rec, twin = build(), build()
    assert type(rec).__name__ == name
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert rec == twin and hash(rec) == hash(twin)
    assert repr(rec) == text


FIELDS = {
    CensusRow: ("datum", "nu", "classification", "millis"),
    VerificationReport: (
        "relation_ok", "cycle_types_ok", "transitive", "primitive", "chi_M", "verdict", "reason"
    ),
    BlockSystem: ("degree", "blocks", "block_size"),
    AppendixRow: ("index", "degree", "D1", "D2", "lam", "beta", "product"),
    ReductionStep: ("reduced", "gamma1", "gamma2", "merged", "product"),
    MergeTrace: ("kind",),
    ConstructionTrace: ("case", "merge"),
    BranchDatum: ("base", "degree", "partitions"),
    HurwitzCertificate: ("base", "degree", "datum", "a_image", "u_images"),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_fields_and_defaults(cls):
    """The field names in order, and the two defaults: a report without a
    reason, and a route without a merge."""
    defaults = {
        VerificationReport: {"reason": ""},
        ConstructionTrace: {"merge": None},
    }
    assert cls._fields == FIELDS[cls]
    assert cls._field_defaults == defaults.get(cls, {})


_D3 = BranchDatum("rp2", 3, (Partition([3]),))

# (class, field names, bad inputs with the error each raises)
VALIDATED = {
    "BranchDatum": (
        BranchDatum,
        ("base", "degree", "partitions"),
        [
            (("torus", 3, (Partition([3]),)), ParseError, "unknown base surface 'torus'"),
            (("rp2", 3, ()), ParseError, "a branch datum needs at least one partition"),
            (("rp2", 5, (Partition([3]),)), ParseError, "partition [3] does not sum to degree 5"),
            (
                ("rp2", 3, (Partition([3]), Partition([1, 1, 1]))),
                ParseError,
                "trivial partition [1,...,1] is not a branch point",
            ),
        ],
    ),
    "HurwitzCertificate": (
        HurwitzCertificate,
        ("base", "degree", "datum", "a_image", "u_images"),
        [
            (("torus", 3, _D3, _P, (_P,)), ParseError, "unknown base surface 'torus'"),
            (
                ("s2", 3, _D3, _P, (_P,)),
                ParseError,
                "a-image present iff the base is the projective plane",
            ),
            (
                ("rp2", 3, _D3, None, (_P,)),
                ParseError,
                "a-image present iff the base is the projective plane",
            ),
            (("rp2", 3, _D3, _P, ()), ParseError, "one u-image per branch point required"),
            (
                ("rp2", 3, _D3._replace(base="s2"), _P, (_P,)),
                ParseError,
                "datum base disagrees with the certificate base",
            ),
            (
                ("s2", 3, _D3, None, (_P,)),
                ParseError,
                "datum base disagrees with the certificate base",
            ),
        ],
    ),
}


def _cases():
    for name, (_, _, bad) in VALIDATED.items():
        for i in range(len(bad)):
            yield pytest.param(name, i, id=f"{name}-{i}")


@pytest.mark.parametrize("name, i", _cases())
def test_validated_record_rejects_bad_input_by_position_and_keyword(name, i):
    cls, fields, bad = VALIDATED[name]
    args, error, message = bad[i]
    for build in (lambda: cls(*args), lambda: cls(**dict(zip(fields, args)))):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validated_record_has_no_unchecked_copy(name):
    """`_replace`, `_make`, copy and pickle either rebuild through the
    checked constructor or do not exist."""
    cls, fields, bad = VALIDATED[name]
    rec = RECORDS[name][0]()
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec
    for args, error, _ in bad:
        bad_fields = dict(zip(fields, args))
        if hasattr(rec, "_replace"):
            with pytest.raises(error):
                rec._replace(**bad_fields)
        if hasattr(cls, "_make"):
            with pytest.raises(error):
                cls._make(args)
        # copy and pickle rebuild from __reduce_ex__: the class, or a
        # function of it, called on the fields, and no state set afterwards
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            reduced = rec.__reduce_ex__(protocol)
            assert len(reduced) == 2, "state set after construction skips the checks"
            rebuild, rebuild_args = reduced
            assert rebuild_args == tuple(getattr(rec, f) for f in fields)
            with pytest.raises(error):
                rebuild(*args)


@pytest.mark.parametrize(
    "degree, a_image, u_images, message",
    [
        (7, _P, (_P,), "datum degree disagrees with the certificate degree"),
        (3, from_cycles([(1, 2, 3, 4)], 4), (_P,), "generator images must act on 1..3"),
        (3, _P, (from_cycles([(2, 3, 4)], (2, 3, 4)),), "generator images must act on 1..3"),
    ],
    ids=["degree", "a-domain", "u-gapped-domain"],
)
def test_certificate_checks_its_degree(degree, a_image, u_images, message):
    """The degree line, the datum and every image agree on 1..degree, on
    every construction path."""
    fields = ("rp2", degree, _D3, a_image, u_images)
    good = HurwitzCertificate("rp2", 3, _D3, _P, (_P,))
    for build in (
        lambda: HurwitzCertificate(*fields),
        lambda: HurwitzCertificate._make(fields),
        lambda: good._replace(degree=degree, a_image=a_image, u_images=u_images),
    ):
        with pytest.raises(ParseError) as info:
            build()
        assert str(info.value) == message
