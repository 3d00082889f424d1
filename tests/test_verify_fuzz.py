"""A differential fuzzer for `branchcover verify`.

Seeded mutations of certificate text run through the in-process command.
The expected outcome comes from an oracle written here that asks the
library nothing: a parser of the documented certificate format, the
relation and the cycle types by list arithmetic, transitivity by a
breadth-first walk and primitivity by enumerating every candidate block
through the first point.  A text the oracle cannot parse must exit 3;
any other must print the oracle's verdict line and exit 0 exactly when it
is valid-indecomposable.

The sources are census certificates at d = 7 and 9, wreath-product
certificates at d = 9 and 15, and sphere certificates at d = 8..12 whose
u[1] fixes point 1 (random, block-keeping and intransitive ones), so that
`is_primitive` prunes its closure scan by that generator.  A last family
breaks the relation with a last u-image that alone makes the group
transitive, or primitive: the verifier may leave u_s out of the group only
when the relation holds, and the transitive and primitive fields of the
line show whether it did.  A seeded share of the cases runs again through
the command in one `python -O` process.
"""

import json
import random
import re
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from branchcover.cli import main
from branchcover.construct import BranchDatum, admissible
from branchcover.oracle import partitions_of
from branchcover.realize import certificate_to_text, realize_rp2
from test_cli import _python_process

CHI = {"rp2": 1, "s2": 2}
KEYS = ("base", "degree", "datum", "a")


# -- the oracle -------------------------------------------------------------------


def _parse_cycles(text, d):
    """Images of 1..d as a list (index 0 unused), or None when the text is
    not cycle notation over 1..d with every label at most once."""
    text = text.strip()
    if not text or re.sub(r"\(([^()]*)\)", "", text).strip():
        return None
    images = list(range(d + 1))
    seen = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        tokens = body.split()
        if not all(re.fullmatch(r"[0-9]+", tok) for tok in tokens):
            return None
        labels = [int(tok) for tok in tokens]
        for x in labels:
            if not 1 <= x <= d or x in seen:
                return None
            seen.add(x)
        for x, y in zip(labels, labels[1:] + labels[:1]):
            images[x] = y
    return images


def _parse_datum(text):
    parts = [p.strip() for p in text.split(";") if p.strip()]
    out = []
    for p in parts:
        m = re.fullmatch(r"\[\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\]", p)
        if not m:
            return None
        nums = sorted((int(t) for t in m.group(1).split(",")), reverse=True)
        if nums[-1] < 1:
            return None
        out.append(tuple(nums))
    if not out or any(sum(p) != sum(out[0]) or max(p) == 1 for p in out):
        return None
    return out


def oracle_parse(data: bytes):
    """(base, d, datum, a, us), or None where the format is broken: a line
    without a colon, an unknown or repeated field, a missing field, a datum
    that is not partitions of one degree without the trivial one, a degree
    line that disagrees with it, u-lines not numbered 1..s for s the number
    of partitions, an a-line present unless the base is rp2, or cycle text
    that is not a permutation of 1..d.  Every number is ASCII digits alone."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    fields, us = {}, {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        m = re.fullmatch(r"u\[([0-9]+)\]", key)
        if not sep or not (m or key in KEYS):
            return None
        slot, name = (us, int(m.group(1))) if m else (fields, key)
        if name in slot:
            return None
        slot[name] = value.strip()
    if not {"base", "degree", "datum"} <= fields.keys():
        return None
    base, datum = fields["base"], _parse_datum(fields["datum"])
    if base not in CHI or datum is None or not re.fullmatch(r"[0-9]+", fields["degree"]):
        return None
    d = int(fields["degree"])
    if d != sum(datum[0]) or sorted(us) != list(range(1, len(datum) + 1)):
        return None
    if ("a" in fields) != (base == "rp2"):
        return None
    a = _parse_cycles(fields["a"], d) if base == "rp2" else None
    images = [_parse_cycles(us[i], d) for i in sorted(us)]
    if (base == "rp2" and a is None) or any(u is None for u in images):
        return None
    return base, d, datum, a, images


def _cycle_type(p):
    d = len(p) - 1
    seen = [False] * (d + 1)
    lengths = []
    for x in range(1, d + 1):
        n = 0
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def _transitive(gens, d):
    seen = {1}
    todo = [1]
    for x in todo:  # the list grows while it is walked
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                todo.append(g[x])
    return len(seen) == d


def _is_block(gens, block):
    """Whether the images of ``block`` under the group the generators span
    never overlap in part, grown by applying the generators to every image
    found."""
    images = [block]
    for b in images:  # the list grows while it is walked
        for g in gens:
            image = frozenset(g[x] for x in b)
            if image not in images:
                if any(image & c for c in images):
                    return False
                images.append(image)
    return True


_BLOCKS: dict = {}


def _has_block(gens, d):
    """Whether some set holding point 1, with a size properly between 1 and
    d that divides d, is a block: each candidate is tried in turn."""
    key = tuple(map(tuple, gens))
    if key not in _BLOCKS:
        _BLOCKS[key] = any(
            _is_block(gens, frozenset((1, *rest)))
            for size in range(2, d)
            if d % size == 0
            for rest in combinations(range(2, d + 1), size - 1)
        )
    return _BLOCKS[key]


def oracle_line(parsed):
    """The verdict line `branchcover verify` must print for a parsed text."""
    base, d, datum, a, us = parsed
    gens = us if a is None else [a, *us]
    x = list(range(d + 1))
    for g in ([a, a] if a else []) + us:  # a a u1 ... us, first factor first
        x = [g[y] for y in x]
    relation = x == list(range(d + 1))
    types = all(_cycle_type(u) == p for u, p in zip(us, datum))
    transitive = _transitive(gens, d)
    primitive = transitive and not _has_block(gens, d)
    if not relation:
        verdict, reason = "invalid", "relation violated"
    elif not types:
        verdict, reason = "invalid", "cycle type mismatch"
    elif not transitive:
        verdict, reason = "invalid", "monodromy not transitive (disconnected cover)"
    elif primitive:
        verdict, reason = "valid-indecomposable", ""
    else:
        verdict, reason = "valid-decomposable", "monodromy imprimitive"
    chi = d * CHI[base] - sum(d - len(p) for p in datum)
    line = (
        f"verdict={verdict} relation={relation} types={types} "
        f"transitive={transitive} primitive={primitive} chi={chi}"
    )
    return line + (f" reason={reason!r}" if reason else "")


# -- sources ----------------------------------------------------------------------


def _cycles_text(p):
    d = len(p) - 1
    seen = [False] * (d + 1)
    out = []
    for start in range(1, d + 1):
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        if len(cyc) > 1:
            out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def _certificate(base, d, a, us):
    datum = ";".join("[" + ",".join(map(str, _cycle_type(u))) + "]" for u in us)
    lines = [f"base: {base}", f"degree: {d}", f"datum: {datum}"]
    if a is not None:
        lines.append(f"a: {_cycles_text(a)}")
    lines += [f"u[{i}]: {_cycles_text(u)}" for i, u in enumerate(us, start=1)]
    return "\n".join(lines) + "\n"


def _close(head):
    """The image that makes the product of ``head`` and it the identity."""
    x = list(range(len(head[0])))
    for g in head:
        x = [g[y] for y in x]
    last = [0] * len(x)
    for i, y in enumerate(x):
        last[y] = i
    return last


def _block_keeping(rng, blocks, d, fix_first=False):
    """A random permutation of 1..d mapping blocks onto blocks; with
    ``fix_first`` it keeps blocks[0] and fixes its first point."""
    if fix_first:
        targets = blocks[:1] + rng.sample(blocks[1:], len(blocks) - 1)
    else:
        targets = rng.sample(blocks, len(blocks))
    p = list(range(d + 1))
    for src, dst in zip(blocks, targets):
        if fix_first and src is blocks[0]:
            src, dst = src[1:], dst[1:]
        for x, y in zip(src, rng.sample(dst, len(dst))):
            p[x] = y
    return p


def _census_sources():
    texts = []
    for d in (7, 9):
        usable = [p for p in partitions_of(d) if not p.is_trivial()]
        found = 0
        for parts in combinations_with_replacement(usable, 2):
            datum = BranchDatum(base="rp2", degree=d, partitions=parts)
            if admissible(datum) == (True, "strict"):
                texts.append(certificate_to_text(realize_rp2(datum)))
                found += 1
                if found == 4:
                    break
    return texts


def _wreath_sources(rng):
    """rp2 certificates whose generators keep a hidden system of blocks of
    3 at d = 9, and of 3 or of 5 at d = 15."""
    texts = []
    for d, size in ((9, 3),) * 3 + ((15, 3),) * 3 + ((15, 5),) * 2:
        labels = rng.sample(range(1, d + 1), d)
        blocks = [labels[i : i + size] for i in range(0, d, size)]
        a = _block_keeping(rng, blocks, d)
        u1 = _block_keeping(rng, blocks, d)
        texts.append(_certificate("rp2", d, a, [u1, _close([a, a, u1])]))
    return texts


def _sphere_sources(rng):
    """s = 3 sphere certificates at d = 8..12 with u[1] fixing point 1:
    random ones, block-keeping ones whose first block holds point 1, and
    intransitive ones that keep {1..k}."""
    texts = []
    for d in range(8, 13):
        sizes = [m for m in range(2, d) if d % m == 0]
        kinds = ["random", "intransitive"] + ["blocks"] * (2 if sizes else 0)
        for kind in kinds:
            if kind == "blocks":
                labels = [1, *rng.sample(range(2, d + 1), d - 1)]
                size = rng.choice(sizes)
                blocks = [labels[i : i + size] for i in range(0, d, size)]
                u1 = _block_keeping(rng, blocks, d, fix_first=True)
                u2 = _block_keeping(rng, blocks, d)
            elif kind == "intransitive":
                k = rng.randint(2, d - 2)
                u1 = [0, 1, *rng.sample(range(2, k + 1), k - 1)]
                u1 += rng.sample(range(k + 1, d + 1), d - k)
                u2 = [0, *rng.sample(range(1, k + 1), k)]
                u2 += rng.sample(range(k + 1, d + 1), d - k)
            else:
                u1 = [0, 1, *rng.sample(range(2, d + 1), d - 1)]
                u2 = [0, *rng.sample(range(1, d + 1), d)]
            texts.append(_certificate("s2", d, None, [u1, u2, _close([u1, u2])]))
    return texts


def _part_keeping(rng, parts, d):
    """A random permutation of 1..d mapping each of ``parts`` onto itself."""
    p = list(range(d + 1))
    for part in parts:
        for x, y in zip(part, rng.sample(part, len(part))):
            p[x] = y
    return p


def _broken_relation_sources(rng):
    """Certificates whose relation fails and whose last u-image alone makes
    the group transitive (the other images keep a split of the points in
    two) or primitive (they keep a system of blocks): rp2 with s = 2 at
    d = 9 and 15, and s2 with s = 3 at d = 8, 10 and 12."""
    texts = []
    for base, d in (("rp2", 9), ("rp2", 15), ("s2", 8), ("s2", 10), ("s2", 12)):
        for kind in ("transitive", "primitive"):
            while True:
                if kind == "transitive":
                    k = rng.randint(2, d - 2)
                    head = [_part_keeping(rng, [range(1, k + 1), range(k + 1, d + 1)], d)
                            for _ in range(2)]
                else:
                    size = rng.choice([m for m in range(2, d) if d % m == 0])
                    labels = rng.sample(range(1, d + 1), d)
                    blocks = [labels[i : i + size] for i in range(0, d, size)]
                    head = [_block_keeping(rng, blocks, d) for _ in range(2)]
                last = [0, *rng.sample(range(1, d + 1), d)]
                gens = [*head, last]
                relation = [head[0], *gens] if base == "rp2" else gens
                if _close(relation) == list(range(d + 1)) or any(
                    _cycle_type(u) == (1,) * d for u in gens[base == "rp2" :]
                ):
                    continue  # the relation must fail, and no u-image be trivial
                if kind == "transitive":
                    if _transitive(gens, d):
                        break
                elif _transitive(head, d) and _transitive(gens, d) and not _has_block(gens, d):
                    break
            a, us = (head[0], gens[1:]) if base == "rp2" else (None, gens)
            texts.append(_certificate(base, d, a, us))
    return texts


# -- mutations --------------------------------------------------------------------


def _generator_lines(lines):
    return [i for i, line in enumerate(lines) if line.startswith(("a:", "u["))]


def _relabel(line, mapping):
    key, _, value = line.partition(":")
    return key + ":" + re.sub(r"\d+", lambda m: str(mapping.get(int(m.group()), m.group())), value)


def _labels(line):
    return [int(t) for t in re.findall(r"\d+", line.partition(":")[2])]


def mutate(rng, text: str) -> bytes:
    """One seeded mutation of a certificate text, of a kind drawn at random."""
    lines = text.splitlines()
    d = int(lines[1].partition(":")[2])
    gens = _generator_lines(lines)
    kind = rng.choice(
        (
            "swap", "swap", "relabel", "repeat", "huge", "drop", "duplicate",
            "reorder", "degree", "empty", "crlf", "bytes", "datum", "datum-s",
            "base", "exchange", "retype", "retype", "sign", "underscore",
            "fullwidth",
        )
    )
    i = rng.choice(gens)
    if kind == "swap":  # conjugate one generator by a transposition
        x, y = rng.sample(range(1, d + 1), 2)
        lines[i] = _relabel(lines[i], {x: y, y: x})
    elif kind == "relabel":  # conjugate every generator by one permutation
        images = rng.sample(range(1, d + 1), d)
        mapping = dict(zip(range(1, d + 1), images))
        lines = [_relabel(line, mapping) if j in gens else line for j, line in enumerate(lines)]
    elif kind == "repeat":
        labels = _labels(lines[i])
        if len(labels) >= 2:
            x, y = rng.sample(labels, 2)
            lines[i] = _relabel(lines[i], {x: y})
    elif kind == "huge":
        labels = _labels(lines[i])
        if labels:
            lines[i] = _relabel(lines[i], {rng.choice(labels): rng.choice((0, d + 1, 10**30))})
    elif kind == "drop":
        del lines[rng.randrange(len(lines))]
    elif kind == "duplicate":
        j = rng.randrange(len(lines))
        lines.insert(rng.randrange(len(lines) + 1), lines[j])
    elif kind == "reorder":
        rng.shuffle(lines)
    elif kind == "degree":
        lines[1] = f"degree: {d + rng.choice((-2, 2))}"
    elif kind == "empty":
        key, _, value = lines[i].partition(":")
        cut = [m.start() for m in re.finditer(r"\(", value)] + [len(value)]
        j = rng.choice(cut)
        lines[i] = key + ":" + value[:j] + "()" * rng.randint(1, 3) + value[j:]
    elif kind == "crlf":
        return ("\r\n".join(lines) + "\r\n").encode()
    elif kind == "bytes":
        data = ("\n".join(lines) + "\n").encode()
        j = rng.randrange(len(data) + 1)
        return data[:j] + bytes([rng.choice((0xFF, 0xC3, 0x80))]) + data[j:]
    elif kind == "datum":  # restate one partition: merge its last two parts
        head, _, value = lines[2].partition(":")
        parts = value.strip().split(";")
        j = rng.randrange(len(parts))
        nums = [int(t) for t in parts[j].strip("[]").split(",")]
        nums = nums[:-2] + [nums[-2] + nums[-1]] if len(nums) > 1 else [d - 1, 1]
        parts[j] = "[" + ",".join(map(str, sorted(nums, reverse=True))) + "]"
        lines[2] = head + ": " + ";".join(parts)
    elif kind == "datum-s":  # another number of branch points
        head, _, value = lines[2].partition(":")
        parts = value.strip().split(";")
        parts = parts[:-1] if len(parts) > 1 and rng.random() < 0.5 else parts + parts[:1]
        lines[2] = head + ": " + ";".join(parts)
    elif kind == "base":
        lines[0] = "base: " + ("s2" if "rp2" in lines[0] else "rp2")
    elif kind == "exchange":  # swap the cycle text of two generator lines
        i, j = rng.sample(gens, 2)
        (ki, _, vi), (kj, _, vj) = lines[i].partition(":"), lines[j].partition(":")
        lines[i], lines[j] = ki + ":" + vj, kj + ":" + vi
    elif kind == "retype":  # another member of the generator's class
        images = rng.sample(range(1, d + 1), d)
        lines[i] = _relabel(lines[i], dict(zip(range(1, d + 1), images)))
    elif kind in ("sign", "underscore", "fullwidth"):  # a number int() reads alike
        # a number of the degree, the datum or a generator line
        j = rng.choice([j for j in (1, 2, *gens) if re.search(r"[0-9]", lines[j])])
        m = rng.choice(list(re.finditer(r"[0-9]+", lines[j])))
        a, b = m.span()
        if kind == "sign":
            lines[j] = lines[j][:a] + "+" + lines[j][a:]
        elif kind == "underscore":
            lines[j] = lines[j][:a] + "0_" + lines[j][a:]
        else:
            k = rng.randrange(a, b)
            lines[j] = lines[j][:k] + chr(ord(lines[j][k]) + 0xFEE0) + lines[j][k + 1 :]
    return ("\n".join(lines) + "\n").encode()


# -- the tests --------------------------------------------------------------------


@lru_cache(maxsize=1)
def _cases():
    """Every source text, each followed by ten seeded mutations of it."""
    rng = random.Random(2801)
    sources = _census_sources() + _wreath_sources(rng) + _sphere_sources(rng)
    cases = []
    for text in sources:
        cases.append(text.encode())
        cases += [mutate(rng, text) for _ in range(10)]
    rng = random.Random(3001)
    for text in _broken_relation_sources(rng):
        cases.append(text.encode())
        cases += [mutate(rng, text) for _ in range(10)]
    return tuple(cases)


def _expected(data):
    """(exit status, stdout, stderr prefix) that the command must give."""
    parsed = oracle_parse(data)
    if parsed is None:
        return 3, "", "parse error: "
    line = oracle_line(parsed)
    return (0 if "verdict=valid-indecomposable " in line else 1), line + "\n", ""


def test_mutated_certificates_get_the_oracle_verdict(tmp_path, capsys):
    cases = _cases()
    counts = dict.fromkeys(
        ("parse", "indecomposable", "decomposable", "invalid", "pruned", "u_s"), 0
    )
    f = tmp_path / "certificate.txt"
    for data in cases:
        f.write_bytes(data)
        code = main(["verify", "--certificate", str(f)])
        out, err = capsys.readouterr()
        want_code, want_out, want_err = _expected(data)
        assert (code, out) == (want_code, want_out), data
        assert err.startswith(want_err) and bool(err) == bool(want_err), data
        if want_code == 3:
            counts["parse"] += 1
            continue
        counts[want_out.split()[0].partition("=")[2].removeprefix("valid-")] += 1
        _, d, _, a, us = oracle_parse(data)
        composite = any(d % k == 0 for k in range(2, d))
        fixing = any(g[1] == 1 for g in (us if a is None else [a, *us]))
        counts["pruned"] += composite and fixing and "transitive=True" in want_out
        # the relation fails, and the images less u_s span a group that is
        # not transitive, or not primitive, where all of them are both
        head = us[:-1] if a is None else [a, *us[:-1]]
        if "relation=False" in want_out and head and "primitive=True" in want_out:
            counts["u_s"] += not _transitive(head, d) or _has_block(head, d)
    assert len(cases) >= 400
    assert counts["parse"] >= 60 and counts["invalid"] >= 60
    assert counts["indecomposable"] >= 30 and counts["decomposable"] >= 30
    assert counts["pruned"] >= 60 and counts["u_s"] >= 20


# Verifies each certificate file named on the command line, as `branchcover
# verify` does, and prints one JSON line [status, stdout, stderr] per file.
_VERIFY_EACH = """
import contextlib, io, json, sys
from branchcover.cli import main
for path in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--certificate", path])
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def test_mutated_certificates_under_optimize(tmp_path):
    """A seeded share of the cases, the broken-relation family among them,
    gives the oracle's line and exit status in one `python -O` process, in
    which every `assert` is stripped."""
    cases = _cases()
    picked = sorted(random.Random(3011).sample(range(len(cases)), 120))
    paths = []
    for i in picked:
        path = tmp_path / f"case{i}.txt"
        path.write_bytes(cases[i])
        paths.append(str(path))
    proc = _python_process("-c", _VERIFY_EACH, *paths, optimize=True)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    results = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    assert len(results) == len(picked)
    for i, (code, out, err) in zip(picked, results):
        want_code, want_out, want_err = _expected(cases[i])
        assert (code, out) == (want_code, want_out), cases[i]
        assert err.startswith(want_err) and bool(err) == bool(want_err), cases[i]
    assert sum(i >= len(cases) - 110 for i in picked) >= 20  # the last family's 110
