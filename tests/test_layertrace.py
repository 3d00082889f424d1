"""The records that the benchmark's layer tracer reads.

`perfbench/layertrace.py` counts routes from what the library returns: the
`.kind` of the second value of `eks.merge_with_trace` and the `.case` of the
third value of `construct.two_datum_construct`.  A traced realization of a
case-1 pair with a split merge and of a table pair runs both hooks.
"""

import sys
from pathlib import Path

from branchcover.construct import parse_datum
from branchcover.oracle import census
from branchcover.realize import realize_rp2

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402


def test_traced_realizations_count_their_routes():
    tracer = layertrace.Tracer()
    restore = layertrace.install(tracer)
    try:
        for text in ("[7];[7]", "[3,2];[3,2]"):
            realize_rp2(parse_datum(text, "rp2"))
    finally:
        layertrace.uninstall(restore)
    assert tracer.outcomes["construct.case.case1"] == 1
    assert tracer.outcomes["construct.case.case2-table"] == 1
    assert tracer.outcomes["eks.merge.kind.split"] == 1
    assert tracer.calls["construct.two_datum"] == 2
    assert tracer.calls["eks.merge"] == 1


def test_traced_census_reaches_the_traced_entry_points():
    """The census builds through the entry points the tracer wraps, so its
    routes stay visible: a change that took it off them would read zero."""
    tracer = layertrace.Tracer()
    restore = layertrace.install(tracer)
    try:
        rows = list(census(7, 3))
    finally:
        layertrace.uninstall(restore)
    constructed = sum(row.classification == "constructed" for row in rows)
    assert tracer.calls["realize.realize"] == constructed > 0
    for case in ("case1", "case2-table", "case3"):
        assert tracer.outcomes["construct.case." + case] > 0
    assert tracer.outcomes["eks.merge.kind.split"] > 0
    assert tracer.outcomes["eks.merge.kind.threading"] > 0
    assert tracer.calls["eks.factor"] == tracer.outcomes["eks.merge.kind.split"]
