"""Layer tracer: spans and counters around calls into the library's modules.

The tracer lives entirely in the benchmark.  ``install`` rebinds each
layer's entry points in every ``branchcover`` module namespace that holds
them (``from .x import f`` copies the binding), patches the ``Permutation``
methods, and ``uninstall`` puts the originals back.

At each layer boundary a span records name, start, end, parent and
operation id.  The hot primitives (``perm`` and the block closure) only add
to a call count and summed time, so trace memory stays bounded.  A span's
self time is its duration minus the part its children cover; the self
times of one operation therefore add up to that operation's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open frames: [layer, start, child_s, span_id]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)  # per layer
        self.cross: defaultdict = defaultdict(float)  # (parent layer, layer) -> s
        self.outcomes: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self.op_id = None
        self._op_self = 0.0
        self._next_id = 0

    def call(self, name: str, layer: str, span: bool, fn, args=(), kwargs=None):
        parent = self.stack[-1] if self.stack else None
        self._next_id += 1
        frame = [layer, self.clock(), 0.0, self._next_id]
        self.stack.append(frame)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            self.stack.pop()
            duration = end - frame[1]
            own = duration - frame[2]
            self.calls[name] += 1
            self.inclusive[name] += duration
            self.self_s[layer] += own
            self._op_self += own
            if parent is not None:
                parent[2] += duration
                self.cross[parent[0], layer] += duration
            if span:
                self.spans.append(
                    (frame[3], parent[3] if parent else None, self.op_id, name, frame[1], end)
                )

    def run_op(self, op_id, fn, *args):
        """Run one operation as a root span; returns (result, wall, self sum)."""
        self.stack.clear()
        self.op_id = op_id
        self._op_self = 0.0
        start = self.clock()
        try:
            result = self.call("bench.op", "bench", True, fn, args)
        finally:
            wall = self.clock() - start
        return result, wall, self._op_self


# -- entry points -------------------------------------------------------------------


def _merge_kind(tracer, result):
    tracer.outcomes["eks.merge.kind." + result[1].kind] += 1


def _construction_case(tracer, result):
    tracer.outcomes["construct.case." + result[2].case] += 1


def _fast_path_hit(tracer, result):
    if result is True:
        tracer.outcomes["groups.fast_path.hit"] += 1


# (module, attribute, span name, layer, record a span, outcome hook)
ENTRY_POINTS = (
    ("perm", "compose", "perm.compose", "perm", False, None),
    ("perm", "parse_cycles", "perm.parse_cycles", "perm", False, None),
    ("perm", "format_cycles", "perm.format_cycles", "perm", False, None),
    ("groups", "is_primitive", "groups.is_primitive", "groups", True, None),
    ("groups", "is_transitive", "groups.is_transitive", "groups", True, None),
    ("groups", "primitivity_fast_path", "groups.fast_path", "groups", True, _fast_path_hit),
    ("groups", "_block_closure", "groups.block_closure", "groups", False, None),
    ("eks", "merge_with_trace", "eks.merge", "eks", True, _merge_kind),
    ("eks", "_factor_two_cycles_rng", "eks.factor", "eks", True, None),
    ("eks", "product_defect_exact", "eks.product_defect_exact", "eks", True, None),
    ("eks", "product_defect_reduced", "eks.product_defect_reduced", "eks", True, None),
    ("eks", "_search_merge", "eks.search_merge", "eks", True, None),
    ("eks", "_search_defect", "eks.search_defect", "eks", True, None),
    ("construct", "fundamental_construct", "construct.fundamental", "construct", True, None),
    ("construct", "two_datum_construct", "construct.two_datum", "construct", True, _construction_case),
    ("construct", "reduce_collection", "construct.reduce", "construct", True, None),
    ("construct", "_pair_search_fallback", "construct.pair_search_fallback", "construct", True, None),
    ("construct", "full_cycle_datum_construct", "construct.full_cycle", "construct", True, None),
    ("construct", "_full_cycle_partner_search", "construct.partner_search", "construct", True, None),
    ("realize", "realize_rp2", "realize.realize", "realize", True, None),
    ("realize", "realize_sphere", "realize.realize", "realize", True, None),
    ("realize", "verify_certificate", "realize.verify", "realize", True, None),
    ("realize", "certificate_from_text", "realize.text.parse", "realize", True, None),
    ("realize", "certificate_to_text", "realize.text.format", "realize", True, None),
)

# Permutation methods: (method, span name); counted like the perm functions.
METHODS = (("cycles", "perm.cycles"), ("inverse", "perm.inverse"))


def _wrap(tracer, fn, name, layer, span, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, layer, span, fn, args, kwargs)
        if hook is not None:
            hook(tracer, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every entry point wherever a branchcover module binds it.

    Returns the (namespace, name, original) triples ``uninstall`` restores.
    """
    modules = [
        m for key, m in list(sys.modules.items())
        if key == "branchcover" or key.startswith("branchcover.")
    ]
    restore = []
    for mod_name, attr, name, layer, span, hook in ENTRY_POINTS:
        original = getattr(sys.modules["branchcover." + mod_name], attr)
        wrapper = _wrap(tracer, original, name, layer, span, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, original))
                    setattr(module, key, wrapper)
    perm_class = sys.modules["branchcover.perm"].Permutation
    for method, name in METHODS:
        original = perm_class.__dict__[method]
        restore.append((perm_class, method, original))
        setattr(perm_class, method, _wrap(tracer, original, name, "perm", False, None))
    return restore


def uninstall(restore: list[tuple]) -> None:
    for namespace, key, original in reversed(restore):
        setattr(namespace, key, original)


# -- per-layer metrics ---------------------------------------------------------------

CASES = ("d3", "case1", "case2-table", "case2-general", "case3", "search")
KINDS = ("threading", "split", "search")

# (metric, unit, better); every value is per operation unless its unit says
# otherwise.
PER_LAYER = (
    ("perm.compose.calls", "calls/op", "lower"),
    ("perm.compose.s", "s/op", "lower"),
    ("perm.inverse.calls", "calls/op", "lower"),
    ("perm.inverse.s", "s/op", "lower"),
    ("perm.cycles.calls", "calls/op", "lower"),
    ("perm.cycles.s", "s/op", "lower"),
    ("perm.parse_cycles.s", "s/op", "lower"),
    ("perm.format_cycles.s", "s/op", "lower"),
    ("perm.self_s", "s/op", "lower"),
    ("groups.is_primitive.calls", "calls/op", "lower"),
    ("groups.is_primitive.s", "s/op", "lower"),
    ("groups.block_closure.calls", "calls/op", "lower"),
    ("groups.closures_per_primitive", "ratio", "lower"),
    ("groups.is_transitive.calls", "calls/op", "lower"),
    ("groups.is_transitive.s", "s/op", "lower"),
    ("groups.fast_path.calls", "calls/op", "higher"),
    ("groups.fast_path.hit_ratio", "ratio", "higher"),
    ("groups.self_s", "s/op", "lower"),
    ("eks.merge.calls", "calls/op", "lower"),
    ("eks.merge.s", "s/op", "lower"),
    *((f"eks.merge.kind.{k}", "calls/op", "lower" if k == "search" else "higher") for k in KINDS),
    ("eks.factor.calls", "calls/op", "lower"),
    ("eks.factor.s", "s/op", "lower"),
    ("eks.product_defect_exact.calls", "calls/op", "lower"),
    ("eks.product_defect_exact.s", "s/op", "lower"),
    ("eks.product_defect_reduced.calls", "calls/op", "lower"),
    ("eks.product_defect_reduced.s", "s/op", "lower"),
    ("eks.search_fallback.calls", "calls/op", "lower"),
    ("eks.self_s", "s/op", "lower"),
    ("construct.two_datum.calls", "calls/op", "lower"),
    ("construct.two_datum.s", "s/op", "lower"),
    *((f"construct.case.{c}", "calls/op", "lower" if c == "search" else "higher") for c in CASES),
    ("construct.reduce.calls", "calls/op", "lower"),
    ("construct.reduce.s", "s/op", "lower"),
    ("construct.pair_search_fallback.calls", "calls/op", "lower"),
    ("construct.full_cycle.calls", "calls/op", "lower"),
    ("construct.full_cycle.s", "s/op", "lower"),
    ("construct.partner_search.calls", "calls/op", "lower"),
    ("construct.partner_search.s", "s/op", "lower"),
    ("construct.self_s", "s/op", "lower"),
    ("realize.realize.calls", "calls/op", "lower"),
    ("realize.realize.s", "s/op", "lower"),
    ("realize.verify.calls", "calls/op", "lower"),
    ("realize.verify.s", "s/op", "lower"),
    ("realize.verify.per_cert", "ratio", "lower"),
    ("realize.construct_share", "ratio", "lower"),
    ("realize.text.parse_s", "s/op", "lower"),
    ("realize.text.format_s", "s/op", "lower"),
    ("oracle.census.self_s", "s/op", "lower"),
    ("oracle.census.rows", "rows/pass", "higher"),
    ("oracle.census.constructed", "rows/pass", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)


def layer_metrics(
    tracer: Tracer, ops: int, census_rows=(0, 0), census_passes: int = 0,
    overhead_share: float = 0.0,
) -> dict[str, float]:
    """Every PER_LAYER value from one traced run of ``ops`` operations."""
    calls, incl, out = tracer.calls, tracer.inclusive, tracer.outcomes

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "groups.closures_per_primitive": ratio(
            calls["groups.block_closure"], calls["groups.is_primitive"]
        ),
        "groups.fast_path.hit_ratio": ratio(
            out["groups.fast_path.hit"], calls["groups.fast_path"]
        ),
        "eks.search_fallback.calls": ratio(
            calls["eks.search_merge"] + calls["eks.search_defect"], ops
        ),
        "realize.verify.per_cert": ratio(
            calls["realize.verify"], calls["realize.realize"] + calls["realize.text.parse"]
        ),
        "realize.construct_share": ratio(
            tracer.cross["realize", "construct"], incl["realize.realize"]
        ),
        "realize.text.parse_s": ratio(incl["realize.text.parse"], ops),
        "realize.text.format_s": ratio(incl["realize.text.format"], ops),
        "oracle.census.rows": ratio(census_rows[0], census_passes),
        "oracle.census.constructed": ratio(census_rows[1], census_passes),
        "trace.overhead_share": overhead_share,
    }
    for name, _unit, _better in PER_LAYER:
        if name in values:
            continue
        stem, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = ratio(calls[stem], ops)
        elif field == "s":
            values[name] = ratio(incl[stem], ops)
        elif field == "self_s":
            values[name] = ratio(tracer.self_s[stem.split(".")[0]], ops)
        else:  # outcome counts: eks.merge.kind.*, construct.case.*
            values[name] = ratio(out[name], ops)
    return values


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write("id\tparent\top\tname\tstart\tend\n")
        for sid, parent, op, name, start, end in tracer.spans:
            fh.write(f"{sid}\t{'' if parent is None else parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")
