"""The records that the benchmark's layer tracer reads.

`perfbench/layertrace.py` counts routes from what the library returns: the
`.kind` of the second value of `eks.merge_with_trace` and the `.case` of the
third value of `construct.two_datum_construct`.  A traced realization of a
case-1 pair with a split merge and of a table pair runs both hooks.
"""

import sys
from pathlib import Path

from branchcover.construct import parse_datum
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
