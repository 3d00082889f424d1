"""Golden digests of certificate bytes and of `branchcover verify` output.

Each constant is a sha256 digest. A change to any certificate byte, any
verdict, any field of a verification line or any exit code moves one of
them.
"""

import hashlib
import random
from itertools import combinations_with_replacement, product

import pytest

from branchcover.cli import main
from branchcover.construct import BranchDatum, fundamental_construct
from branchcover.eks import product_defect_reduced
from branchcover.errors import InadmissibleError
from branchcover.oracle import partitions_of
from branchcover.perm import Partition, format_cycles
from branchcover.realize import admissible, certificate_to_text, realize_rp2

# certificate_to_text of every datum that census(d, 3) constructs, in row
# order, each realized with the default seed and one memo per degree
CENSUS_DIGESTS = {
    5: "b8543a04ef9e3f68bdc4f0d4625c8ded2ae529a7b9bcfed730e1fd4ecba88b51",
    7: "53f10d8f059686ed12354a1cd7c686944be8dd252528e01d2a0694d7d85349ee",
    9: "70101dff59b435e1dcca5838f80d4137035afb18cb2d9cfee3ab764252449efa",
    11: "e3bb7904a9ac84be74081ac767aa97beb1be764300b41298796d7b72efa45ecd",
}

# certificate_to_text of every ordered datum of degree 7 with 2..4 branch
# points that realize_rp2 accepts, in `itertools.product` order, one memo for
# the sweep; orderings such as [2,1^5];[7];[2,1^5] merge positions 0 and 2
ORDERED_D7_DIGEST = "acee824eee0d7e23be3dd2dc457ca9e68f0571d9f9c6cbf8bb719e1f4e94719c"

# fundamental_construct on _seeded_data(): format_cycles of each factor
# joined by "|", one line per datum
SEEDED_D101_DIGEST = "c9c205e28cfef2b7d062aea350e0ee93dbfa46cfa55cf66b886793563c606c95"

# the same over _seeded_data_301(): four data each for s = 2, 3, 4 at d = 301
SEEDED_D301_DIGEST = "48a542f48c305000aaa4d608ae51855df664074a69ae65fee926590527791364"

# certificate_to_text of the single branch point {[d]}, d prime
SINGLE_BRANCH_DIGESTS = {
    3: "d9abb63eb3dda9e5a2019cff41aa44b66410dccca44645033ab9b73701c35a91",
    5: "5a2be304b4191fad47b25b3d7a1b1fde5fb4591e1518454379df4bcdf83c2893",
    7: "1784e7cbf2f0c9d7148eebed9ac9b4596995b1b25db78e9b35c08e98a62edaa6",
    11: "82e0c97b0e7f162c4ede722ca9002a383ddd04c2ab86b20847777c54dd7d5384",
    13: "a1c97755b48265a4cee08358940af2bdf08649d7b270189431eeda7234019cd6",
}

# certificate_to_text of d + 1 transposition branch points at d = 41
TRANSPOSITIONS_D41_DIGEST = "d5752733b47b23477ee8984c83d3613f63f54aec522c46878e331d45c618f271"

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


def _census_certificates(d: int, max_s: int = 3) -> str:
    """The certificates of the data census(d, max_s) constructs, enumerated
    as the census enumerates its rows."""
    memo = {}
    texts = []
    usable = [p for p in partitions_of(d) if not p.is_trivial()]
    for s in range(1, max_s + 1):
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


def test_ordered_certificates_of_degree_7_are_pinned():
    memo = {}
    texts = []
    usable = [p for p in partitions_of(7) if not p.is_trivial()]
    for s in (2, 3, 4):
        for parts in product(usable, repeat=s):
            try:
                cert = realize_rp2(BranchDatum("rp2", 7, parts), memo=memo)
            except InadmissibleError:
                continue
            texts.append(certificate_to_text(cert))
    assert _sha256("".join(texts)) == ORDERED_D7_DIGEST


def _random_partition(rng, d):
    """A partition of d with a log-uniform number of parts in 2..d-1."""
    k = min(d - 1, max(2, round(d ** rng.random())))
    cuts = sorted(rng.sample(range(1, d), k - 1))
    return Partition([b - a for a, b in zip([0, *cuts], [*cuts, d])])


def _seeded_data(seed=17, d=101):
    """Two admissible data of degree d for each s = 3..6."""
    rng = random.Random(seed)
    data = []
    for s in (3, 4, 5, 6):
        while len(data) < 2 * (s - 2):
            parts = tuple(_random_partition(rng, d) for _ in range(s))
            nu = sum(p.nu for p in parts)
            if nu % 2 == 0 and nu > d - 1:
                data.append(BranchDatum("rp2", d, parts))
    return data


def test_seeded_constructions_of_degree_101_are_pinned():
    lines = []
    for datum in _seeded_data():
        sigmas = fundamental_construct(datum)
        lines.append("|".join(format_cycles(u) for u in sigmas) + "\n")
    assert _sha256("".join(lines)) == SEEDED_D101_DIGEST


def _seeded_data_301(seed=301, d=301):
    """Four admissible data of degree d for each s = 2, 3, 4."""
    rng = random.Random(seed)
    data = []
    for s in (2, 3, 4):
        while len(data) < 4 * (s - 1):
            parts = tuple(_random_partition(rng, d) for _ in range(s))
            nu = sum(p.nu for p in parts)
            if nu % 2 == 0 and nu > d - 1:
                data.append(BranchDatum("rp2", d, parts))
    return data


def test_seeded_constructions_of_degree_301_are_pinned():
    lines = []
    for datum in _seeded_data_301():
        sigmas = fundamental_construct(datum)
        lines.append("|".join(format_cycles(u) for u in sigmas) + "\n")
    assert _sha256("".join(lines)) == SEEDED_D301_DIGEST


@pytest.mark.parametrize("d", sorted(SINGLE_BRANCH_DIGESTS))
def test_single_branch_certificates_are_pinned(d):
    cert = realize_rp2(BranchDatum("rp2", d, (Partition([d]),)))
    assert _sha256(certificate_to_text(cert)) == SINGLE_BRANCH_DIGESTS[d]


def test_transposition_certificate_of_degree_41_is_pinned():
    transposition = Partition([2] + [1] * 39)
    cert = realize_rp2(BranchDatum("rp2", 41, (transposition,) * 42))
    assert _sha256(certificate_to_text(cert)) == TRANSPOSITIONS_D41_DIGEST


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_output_is_pinned(name, tmp_path, capsys):
    text, code, digest = VERIFY_DIGESTS[name]
    path = tmp_path / "cert.txt"
    path.write_text(text)
    assert main(["verify", "--certificate", str(path)]) == code
    captured = capsys.readouterr()
    assert _sha256(f"{code}\n{captured.out}") == digest


# product_defect_reduced(A, B) for every ordered pair of partitions of d with
# r = nu(A) + nu(B) - (d-1) > 0, in `partitions_of` order: one line
# "A;B|alpha|beta" each, format_cycles of each factor
REDUCED_PAIR_DIGESTS = {
    5: "f33792af4ee738e5092e5e25c7fb940681c42cb23994d1c8e21498a2382b7425",
    7: "3bb7570b9ddf3bd25a20e6806f86e5b1a54614a0f772dbd77799c0c98580c9ba",
    9: "2cc3c1f1a2be3dc5514f9bca3f7ec6ec498188972bb98bcbd0d6bb7e3c98bbf4",
}


@pytest.mark.parametrize("d", sorted(REDUCED_PAIR_DIGESTS))
def test_reduced_defect_pairs_are_pinned(d):
    lines = []
    for A, B in product(partitions_of(d), repeat=2):
        if A.nu + B.nu - (d - 1) > 0:
            alpha, beta = product_defect_reduced(A, B)
            lines.append(f"{A};{B}|{format_cycles(alpha)}|{format_cycles(beta)}\n")
    assert _sha256("".join(lines)) == REDUCED_PAIR_DIGESTS[d]


# certificate_to_text of every datum that census(d, max_s) constructs past
# three branch points, keyed (d, max_s), as CENSUS_DIGESTS; (7, 5) is past the
# public caps (`oracle._census_rows`).  Their reductions unwind by the (0, 1),
# (0, 2) and (1, 2) moves in turn.
DEEP_CENSUS_DIGESTS = {
    (9, 4): "86b26126d910ef3d35df7e54635fcb0c2eaf63b669fc0d3605b055dfdab8be0f",
    (7, 5): "2261eb4245faa725155ae04307a693308e5c1ac2bfdb69f69e0c163b1d822e07",
}


@pytest.mark.parametrize("d, max_s", sorted(DEEP_CENSUS_DIGESTS))
def test_deep_census_certificates_are_pinned(d, max_s):
    assert _sha256(_census_certificates(d, max_s)) == DEEP_CENSUS_DIGESTS[d, max_s]
