"""branchcover benchmark: one caller, one process, closed loop.

    python3 perfbench/run.py --workload census-d9 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and nowhere else.  Workloads:

  census-d9        oracle.census(9, 3), whole passes; one operation is one
                   datum constructed (2322 per pass).
  construct-large  construct.fundamental_construct on seeded admissible rp2
                   data, d=301, s=2, log-uniform part counts.
  verify-large     realize.certificate_from_text + verify_certificate on
                   seeded certificates (valid-indecomposable,
                   valid-decomposable, invalid) at d=101, 201, 301.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same loop runs with the layer
tracer installed, is then replayed untraced on identical inputs to measure
the tracing overhead, and the JSON carries the per-layer metrics.  Times
in the end-to-end metrics are scaled to a nominal machine speed measured
all through the run (see calib.py).  Output checks never use the verifier
under test.  Exit status: 0 when every output
checked out, 1 on any output mismatch, 2 when the library cannot be loaded
from the checkout.
"""

from __future__ import annotations

import argparse
from array import array
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import arith  # noqa: E402
import calib  # noqa: E402
import gen  # noqa: E402
import layertrace  # noqa: E402
from deadline import OK, OpTimer  # noqa: E402

# Far above the slowest completing operation of any workload (under 1 s on
# a 2-core x86-64 VM), so an operation cannot flip between passing and
# overrunning from one run to the next.
DEADLINE_S = 20.0

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 21

CONSTRUCT_DEGREE, CONSTRUCT_S = 301, 2
CENSUS_DEGREE, CENSUS_MAX_S = 9, 3

# Fixed tail percentile per workload: the highest one that keeps at least
# ten samples beyond it at the slowest expected run (census at least one
# pass of 2322, construct-large about 500, verify-large about 90).
TAIL_PERCENTILE = {"census-d9": 99.0, "construct-large": 95.0, "verify-large": 80.0}

# Times one set-up, then the reference kernel in the same interpreter.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import branchcover\n"
    "branchcover.load_appendix_table()\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calib\n"
    "print(t, calib.kernel_median(9))\n"
)


class Library:
    """The branchcover modules of this checkout."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import branchcover
        from branchcover import construct, oracle, perm, realize

        origin = Path(branchcover.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"branchcover imported from {origin}, not from {SRC}")
        self.construct, self.oracle, self.perm, self.realize = (
            construct, oracle, perm, realize,
        )


# -- workloads -------------------------------------------------------------------------
#
# Each workload yields items (input, expected) through ``next_item`` outside the
# timed region, runs ``op`` on the input inside it, and checks the output with
# ``check`` outside it again.


class ConstructLarge:
    cycle = 1

    def __init__(self, lib: Library, seed: int):
        self.lib = lib
        self.stream = gen.construct_stream(seed, CONSTRUCT_DEGREE, CONSTRUCT_S)

    def next_item(self):
        parts = next(self.stream)
        datum = self.lib.construct.BranchDatum(
            base="rp2",
            degree=CONSTRUCT_DEGREE,
            partitions=tuple(self.lib.perm.Partition(p) for p in parts),
        )
        return datum, parts

    def op(self, datum):
        return self.lib.construct.fundamental_construct(datum, 0)

    @staticmethod
    def check(parts, sigmas) -> bool:
        """Each sigma_i has its partition's cycle type, the product is a
        (d-2)-cycle and the span is transitive (own orbit search).  With
        gcd(d-2, d) = 1 and d-2 above every proper divisor of d, these imply
        primitivity."""
        d = sum(parts[0])
        gens = [[0, *s.images] for s in sigmas]
        return (
            len(gens) == len(parts)
            and all(len(g) == d + 1 for g in gens)
            and all(arith.cycle_type(g) == p for g, p in zip(gens, parts))
            and arith.cycle_type(arith.compose(*gens)) == (d - 2, 1, 1)
            and arith.is_transitive(gens)
        )


class VerifyLarge:
    # whole cycles of certificate kinds, so every run has the same mix
    cycle = len(gen.VERIFY_CELLS)

    def __init__(self, lib: Library, seed: int):
        self.lib = lib
        self.stream = gen.verify_stream(seed)

    def next_item(self):
        return next(self.stream)

    def op(self, text):
        realize = self.lib.realize
        return realize.verify_certificate(realize.certificate_from_text(text)).verdict

    @staticmethod
    def check(expected, verdict) -> bool:
        return verdict == expected


def closed_loop(workload, timer: OpTimer, seconds: float, run_op, items=None):
    """Run operations back to back until ``seconds`` of them are timed and
    the inputs are at the end of a cycle (or over exactly ``items`` when
    given).  Returns the run record."""
    rec = Record()
    used = []

    def more():
        if items is not None:
            return len(used) < len(items)
        return rec.timed < seconds or len(used) % workload.cycle

    while more():
        item = workload.next_item() if items is None else items[len(used)]
        used.append(item)
        outcome, result, dt = timer.run(run_op, item[0])
        rec.add(outcome, dt, outcome == OK and workload.check(item[1], result))
    rec.items = used
    return rec


class Record:
    """Latencies, failures and output mismatches of one loop, and the
    reference kernel samples taken between its operations."""

    def __init__(self):
        self.ref = calib.Reference()
        self.timed = 0.0
        # timed seconds and latencies, each with its position among the
        # kernel samples, so that it can be scaled by the machine's speed
        # at the time it ran; arrays, so that the benchmark's own memory
        # hardly grows with the number of operations
        self.timed_at: dict[int, float] = {}
        self.latencies = array("d")
        self.positions = array("l")
        self.attempted = self.failed = self.mismatched = 0
        self.items: list = []
        self.passes = self.rows = self.constructed = 0  # census only

    def spend(self, dt: float) -> int:
        """Count ``dt`` timed seconds; returns their kernel position."""
        pos = self.ref.position()
        self.timed += dt
        self.timed_at[pos] = self.timed_at.get(pos, 0.0) + dt
        self.ref.after(dt)
        return pos

    def add(self, outcome: str, dt: float, output_ok: bool) -> None:
        self.positions.append(self.spend(dt))
        self.attempted += 1
        if outcome == OK and output_ok:
            self.latencies.append(dt)
            return
        # a failed operation misses any latency limit
        self.failed += 1
        self.latencies.append(math.inf)

    def scaled(self) -> tuple[float, list[float]]:
        """(timed seconds, latencies) on the nominal machine; see calib.py."""
        factor = self.ref.factors()
        timed = sum(dt * factor[pos] for pos, dt in self.timed_at.items())
        return timed, [dt * factor[pos] for dt, pos in zip(self.latencies, self.positions)]
        if outcome == OK:
            self.mismatched += 1


def _census_admissible(datum: str) -> bool:
    """nu even and above d-1, from the row's datum text."""
    nu = sum(CENSUS_DEGREE - len(p.split(",")) for p in datum.split(";"))
    return nu % 2 == 0 and nu > CENSUS_DEGREE - 1


def census_loop(lib: Library, timer: OpTimer, seconds: float, run_next, passes=None):
    """Whole census passes until ``seconds`` are timed (or exactly ``passes``).

    One operation is one constructed datum: the timed ``next()`` on the
    census generator that yields it.  The other rows add to the timed wall
    but are not operations.  Each row's classification and each complete
    pass's totals are checked against the benchmark's own count.
    """
    want = gen.census_totals(CENSUS_DEGREE, CENSUS_MAX_S)
    rec = Record()
    while (rec.timed < seconds) if passes is None else (rec.passes < passes):
        census = lib.oracle.census(CENSUS_DEGREE, CENSUS_MAX_S)
        rows = constructed = 0
        while True:
            outcome, row, dt = timer.run(run_next, census)
            if outcome != OK:
                rec.add(outcome, dt, False)
                break  # a generator that raised is finished
            if row is None:
                rec.spend(dt)
                if (rows, constructed) != want:
                    rec.add(OK, 0.0, False)  # wrong pass totals
                break
            rows += 1
            built = row.classification == "constructed"
            admissible = _census_admissible(row.datum)
            if built or admissible:
                constructed += built
                rec.add(outcome, dt, built and admissible)
            else:
                rec.spend(dt)
        rec.passes += 1
        rec.rows += rows
        rec.constructed += constructed
    return rec


# -- metrics -----------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    return value, sum(1 for v in ordered if v > value)


def setup_seconds(probes: int = SETUP_PROBES) -> tuple[float, float]:
    """Medians over fresh interpreters of import branchcover plus
    load_appendix_table(): (scaled by the kernel timed in the same
    interpreter, raw) seconds."""
    scaled, raw = [], []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup, kernel = map(float, out.stdout.split()[-2:])
        scaled.append(setup * calib.REF_UNIT_S / kernel)
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(name: str, rec: Record, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """Every time is scaled to the nominal machine (see calib.py); the raw
    wall-clock figures are printed as notes."""
    # before the metrics below allocate anything of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct = TAIL_PERCENTILE[name]
    timed, latencies = rec.scaled()
    raw = list(rec.latencies)

    def as_ms(v):
        return (DEADLINE_S if math.isinf(v) else v) * 1000.0

    p50, _ = percentile(latencies, 50.0)
    tail, beyond = percentile(latencies, pct)
    completed = rec.attempted - rec.failed
    metrics = {
        "ops_per_s": (completed / timed, "1/s"),
        "latency_p50_ms": (as_ms(p50), "ms"),
        "latency_tail_ms": (as_ms(tail), "ms"),
        "success_rate": (completed / rec.attempted, "ratio"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"fail_rate {rec.failed / rec.attempted:.6g} ratio "
        f"({rec.failed} of {rec.attempted} attempted)",
        f"latency_tail_ms is p{pct:g}: {beyond} of {len(rec.latencies)} samples beyond it",
        f"reference kernel median {statistics.median(rec.ref.samples) * 1000.0:.4g} ms "
        f"over {len(rec.ref.samples)} samples; times scaled by {timed / rec.timed:.4g} overall",
        f"raw: ops_per_s {completed / rec.timed:.6g} 1/s, "
        f"latency_p50_ms {as_ms(percentile(raw, 50.0)[0]):.6g} ms, "
        f"latency_tail_ms {as_ms(percentile(raw, pct)[0]):.6g} ms, setup_s {setup[1]:.6g} s, "
        f"timed wall {rec.timed:.3f} s",
    ]
    if beyond < 10:
        notes.append(f"warning: fewer than 10 samples beyond p{pct:g}")
    return metrics, notes


# -- running a workload --------------------------------------------------------------------


def census_next(census):
    return next(census, None)


def workload_loop(lib: Library, name: str, seed: int):
    """(loop, op) of a workload: ``loop(timer, seconds, op, replay=None)`` runs
    the closed loop, or exactly the inputs of the record ``replay``."""
    if name == "census-d9":
        def loop(timer, seconds, op, replay=None):
            return census_loop(lib, timer, seconds, op, replay and replay.passes)

        return loop, census_next
    workload = (ConstructLarge if name == "construct-large" else VerifyLarge)(lib, seed)

    def loop(timer, seconds, op, replay=None):
        return closed_loop(workload, timer, seconds, op, replay and replay.items)

    return loop, workload.op


def run_traced(lib: Library, name: str, seed: int, seconds: float, timer: OpTimer):
    """Traced loop, then the same inputs untraced; returns the traced record,
    the tracer and the overhead share."""
    loop, plain_op = workload_loop(lib, name, seed)
    tracer = layertrace.Tracer()
    gaps = []
    inner = plain_op
    if name == "census-d9":
        def inner(census):
            return tracer.call("oracle.census", "oracle", True, census_next, (census,))

    def traced_op(arg):
        result, wall, self_sum = tracer.run_op(len(gaps), inner, arg)
        gaps.append(abs(wall - self_sum))
        return result

    restore = layertrace.install(tracer)
    try:
        rec = loop(timer, seconds, traced_op)
    finally:
        layertrace.uninstall(restore)
    plain = loop(timer, 0, plain_op, replay=rec)
    rec.max_gap_s = max(gaps, default=0.0)
    traced_s, plain_s = rec.scaled()[0], plain.scaled()[0]
    return rec, tracer, (traced_s - plain_s) / plain_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        lib = Library()
    except ImportError as exc:
        print(f"cannot load branchcover from {SRC}: {exc}", file=sys.stderr)
        return 2
    # warm-up: lazy tables and first-call paths of every layer, untimed
    list(lib.oracle.census(5, 2))
    gc.collect()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} deadline {DEADLINE_S:g} s")
    with OpTimer(DEADLINE_S) as timer:
        if args.trace:
            rec, tracer, overhead = run_traced(lib, args.workload, args.seed, args.seconds, timer)
            ops = rec.attempted
            values = layertrace.layer_metrics(
                tracer, ops, (rec.rows, rec.constructed), rec.passes, overhead
            )
            units = {n: u for n, u, _ in layertrace.PER_LAYER}
            metrics = {n: (values[n], units[n]) for n in units}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            layertrace.write_spans(tracer, spans_path)
            notes = [
                f"traced {ops} operations, {len(tracer.spans)} spans -> {spans_path}",
                f"tracing overhead {overhead:.4f} of untraced wall",
                f"largest |wall - sum of self times| per operation {rec.max_gap_s:.3g} s",
            ]
        else:
            loop, op = workload_loop(lib, args.workload, args.seed)
            rec = loop(timer, args.seconds, op)
            metrics, notes = end_to_end(args.workload, rec, setup_seconds())

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes:
        print(line)
    correct = rec.mismatched == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
