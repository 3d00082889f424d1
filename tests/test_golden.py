"""Golden digests of certificate bytes and of `branchcover verify` output.

Each constant is a sha256 digest. A change to any certificate byte, any
verdict, any field of a verification line or any exit code moves one of
them.
"""

import hashlib
from itertools import combinations_with_replacement

import pytest

from branchcover.cli import main
from branchcover.construct import BranchDatum
from branchcover.oracle import partitions_of
from branchcover.realize import admissible, certificate_to_text, realize_rp2

# certificate_to_text of every datum that census(d, 3) constructs, in row
# order, each realized with the default seed and one memo per degree
CENSUS_DIGESTS = {
    5: "b8543a04ef9e3f68bdc4f0d4625c8ded2ae529a7b9bcfed730e1fd4ecba88b51",
    7: "53f10d8f059686ed12354a1cd7c686944be8dd252528e01d2a0694d7d85349ee",
    9: "70101dff59b435e1dcca5838f80d4137035afb18cb2d9cfee3ab764252449efa",
    11: "e3bb7904a9ac84be74081ac767aa97beb1be764300b41298796d7b72efa45ecd",
}

INDECOMPOSABLE = (
    "base: rp2\n"
    "degree: 9\n"
    "datum: [3,3,3];[3,3,3];[3,3,3]\n"
    "a: (3 6 9 7 4 5 8)\n"
    "u[1]: (1 8 2)(3 6 4)(5 7 9)\n"
    "u[2]: (1 3 5)(2 9 8)(4 7 6)\n"
    "u[3]: (1 3 2)(4 5 9)(6 7 8)\n"
)

# every generator keeps the blocks {1,2,3}, {4,5,6}, {7,8,9}
DECOMPOSABLE = (
    "base: rp2\n"
    "degree: 9\n"
    "datum: [2,2,2,2,1];[3,2,2,2];[3,2,1,1,1,1]\n"
    "a: (1 4 7)(2 5 8)(3 6 9)\n"
    "u[1]: (1 2)(4 7)(5 8)(6 9)\n"
    "u[2]: (1 4)(2 5)(3 6)(7 8 9)\n"
    "u[3]: (4 5)(7 9 8)\n"
)

# INDECOMPOSABLE with u[3] replaced by another element of its class
TAMPERED = INDECOMPOSABLE.replace("u[3]: (1 3 2)", "u[3]: (1 2 3)")

# sha256 of "<exit code>\n<stdout>" of `branchcover verify`
VERIFY_DIGESTS = {
    "indecomposable": (
        INDECOMPOSABLE,
        0,
        "dcdf6e0f6eb6cd933e1b734964719dc53a793acbb4befeae166d369704bef7a0",
    ),
    "decomposable": (
        DECOMPOSABLE,
        1,
        "963080bf164fa43b42fee10061cbfce6fc20f74019943115a9a061dc0e3f0b28",
    ),
    "tampered": (
        TAMPERED,
        1,
        "6df2a1bc1521ce117ef5789ff954bab36c9aeed821c585e7ba072c8fa9d41012",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _census_certificates(d: int) -> str:
    """The certificates of the data census(d, 3) constructs, enumerated as
    the census enumerates its rows."""
    memo = {}
    texts = []
    usable = [p for p in partitions_of(d) if not p.is_trivial()]
    for s in (1, 2, 3):
        for parts in combinations_with_replacement(usable, s):
            datum = BranchDatum(base="rp2", degree=d, partitions=parts)
            if admissible(datum) == (True, "strict"):
                texts.append(certificate_to_text(realize_rp2(datum, memo=memo)))
    return "".join(texts)


@pytest.mark.parametrize(
    "d", [5, 7, 9, pytest.param(11, marks=pytest.mark.slow)]
)
def test_census_certificates_are_pinned(d):
    assert _sha256(_census_certificates(d)) == CENSUS_DIGESTS[d]


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_output_is_pinned(name, tmp_path, capsys):
    text, code, digest = VERIFY_DIGESTS[name]
    path = tmp_path / "cert.txt"
    path.write_text(text)
    assert main(["verify", "--certificate", str(path)]) == code
    captured = capsys.readouterr()
    assert _sha256(f"{code}\n{captured.out}") == digest
