"""Reference code that tests compare the library against."""

import re

from branchcover.perm import PermError, Permutation, _numerals, from_cycles

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def regex_parse_cycles(text: str, domain) -> Permutation:
    """`perm.parse_cycles` as a regular expression reads cycle notation:
    the text, stripped, must be nothing but whitespace once every
    parenthesised body without parentheses is removed."""
    text = text.strip()
    if not text:
        raise PermError("empty cycle expression")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise PermError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        body = body.strip()
        if not body:
            continue
        try:
            cycles.append(_numerals(body.split()))
        except ValueError as exc:
            raise PermError(f"malformed cycle notation: {text!r}") from exc
    return from_cycles(cycles, domain)


def insertion_recombine(lam: Permutation, downstairs: Permutation, keep) -> Permutation:
    """Recombine lam with a product computed on the kept points.

    Given the product ``downstairs == project(lam, keep) * b`` for some
    permutation b of ``keep``, produce ``lam * embed(b)`` symbolically: in
    each cycle of ``downstairs`` every kept label w is replaced by w followed
    by its run of deleted labels from lam's cyclic decomposition, and cycles
    of lam wholly outside ``keep`` pass through verbatim.
    """
    kept = tuple(sorted(set(keep)))
    keep_set = set(kept)
    if downstairs.domain != kept:
        raise PermError("downstairs permutation does not act on the kept points")
    if not keep_set.issubset(lam.domain):
        raise PermError("kept points not in lam's domain")
    runs: dict[int, list[int]] = {}
    outside = []
    for cyc in lam.cycles():
        anchors = [i for i, x in enumerate(cyc) if x in keep_set]
        if not anchors:
            if len(cyc) > 1:
                outside.append(cyc)
            continue
        n = len(cyc)
        for j, i in enumerate(anchors):
            stop = anchors[(j + 1) % len(anchors)]
            run = []
            k = (i + 1) % n
            while k != stop:
                run.append(cyc[k])
                k = (k + 1) % n
            runs[cyc[i]] = run
    cycles = list(outside)
    for cyc in downstairs.cycles():
        expanded = []
        for w in cyc:
            expanded.append(w)
            expanded.extend(runs[w])
        if len(expanded) > 1:
            cycles.append(expanded)
    return from_cycles(cycles, lam.domain)
