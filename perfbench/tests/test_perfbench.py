"""Tests of the benchmark itself: generators, expected verdicts, the
tracer's self-time arithmetic, the scaling to the nominal machine, the
deadline and the output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import arith
import calib
import gen
import layertrace
import run
from deadline import DEADLINE, OK, OpTimer
from branchcover import construct, oracle, perm, realize

BENCH_DIR = Path(run.__file__).resolve().parent


def test_construct_stream_is_seeded_and_admissible():
    take = lambda seed: [next(s) for s in [gen.construct_stream(seed, 301, 2)] for _ in range(30)]  # noqa: E731
    first = take(7)
    assert first == take(7)
    assert first != take(8)
    for datum in first:
        assert len(datum) == 2
        for p in datum:
            assert sum(p) == 301 and 2 <= len(p) <= 300
        nu = sum(301 - len(p) for p in datum)
        assert nu % 2 == 0 and nu > 300


def test_part_counts_cover_few_and_many_parts():
    rng = random.Random(0)
    counts = [len(gen.random_partition(rng, 1001)) for _ in range(400)]
    assert min(counts) <= 3 and max(counts) >= 300


def test_verify_stream_is_seeded():
    take = lambda seed: [next(s) for s in [gen.verify_stream(seed)] for _ in range(len(gen.VERIFY_CELLS))]  # noqa: E731
    first = take(3)
    assert first == take(3)
    assert first != take(4)


def _verdict(text):
    return realize.verify_certificate(realize.certificate_from_text(text)).verdict


def _partitions(text):
    datum = next(l for l in text.splitlines() if l.startswith("datum: "))
    return [list(map(int, p.strip("[]").split(","))) for p in datum[7:].split(";")]


def test_small_certificates_carry_expected_verdicts():
    rng = random.Random(5)
    for d in (13, 15, 21, 25):
        for base in ("rp2", "s2"):
            kinds = [gen.VALID_INDECOMPOSABLE, gen.INVALID]
            if not arith.is_prime(d):
                kinds.append(gen.VALID_DECOMPOSABLE)
            for kind in kinds:
                for _ in range(3):
                    text, expected = gen.certificate(rng, kind, base, d)
                    assert expected == kind
                    assert all(max(p) > 1 for p in _partitions(text))
                    assert _verdict(text) == expected, (d, base, kind)


def test_workload_certificates_carry_expected_verdicts():
    stream = gen.verify_stream(11)
    for cell in gen.VERIFY_CELLS:
        text, expected = next(stream)
        assert expected == cell[0]
        assert _verdict(text) == expected, cell


def test_census_totals():
    assert gen.census_totals(9, 3) == (4959, 2322)
    rows = list(oracle.census(5, 3))
    built = sum(r.classification == "constructed" for r in rows)
    assert gen.census_totals(5, 3) == (len(rows), built)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_sum_to_operation_wall():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock=clock)

    def leaf():
        clock.now += 4

    def inner():
        clock.now += 2
        tracer.call("c.leaf", "c", False, leaf)

    def outer(_):
        clock.now += 1
        tracer.call("b.inner", "b", True, inner)
        clock.now += 8

    def op(arg):
        return tracer.call("a.outer", "a", True, outer, (arg,))

    _, wall, self_sum = tracer.run_op(0, op, None)
    assert wall == 15 and self_sum == 15
    assert dict(tracer.self_s) == {"a": 9, "b": 2, "c": 4, "bench": 0}
    assert tracer.inclusive["a.outer"] == 15 and tracer.inclusive["b.inner"] == 6
    assert tracer.cross["a", "b"] == 6 and tracer.cross["b", "c"] == 4
    names = [s[3] for s in tracer.spans]
    assert sorted(names) == ["a.outer", "b.inner", "bench.op"]  # no span for the leaf
    by_name = {s[3]: s for s in tracer.spans}
    assert by_name["b.inner"][1] == by_name["a.outer"][0]
    assert all(s[2] == 0 for s in tracer.spans)


def test_times_are_scaled_by_the_kernel_speed_where_they_ran():
    unit = calib.REF_UNIT_S
    rec = run.Record()
    rec.ref.samples = [unit] * calib.WINDOW  # nominal speed
    rec.add(OK, 0.5, True)  # kernel sampled after it, at nominal speed
    rec.ref.samples[-1:] = [unit]
    rec.ref.samples += [2 * unit] * 2 * calib.WINDOW  # machine twice as slow
    rec.add(OK, 0.5, True)
    rec.spend(0.25)
    timed, latencies = rec.scaled()
    assert latencies == [0.5, 0.25]
    assert timed == 0.5 + 0.25 + 0.125
    assert rec.timed == 1.25  # raw


def test_install_wraps_every_binding_and_uninstall_restores():
    original = construct.is_primitive
    original_cycles = perm.Permutation.__dict__["cycles"]
    tracer = layertrace.Tracer()
    restore = layertrace.install(tracer)
    try:
        assert construct.is_primitive is not original
        assert realize.is_primitive is construct.is_primitive
        cert = realize.realize_rp2(construct.parse_datum("[3,2];[3,2]", "rp2"))
        assert tracer.calls["realize.realize"] == 1
        assert tracer.calls["realize.verify"] == 1
        assert tracer.calls["perm.compose"] > 0
        assert cert.a_image.cycles()
    finally:
        layertrace.uninstall(restore)
    assert construct.is_primitive is original
    assert perm.Permutation.__dict__["cycles"] is original_cycles
    calls = tracer.calls["perm.cycles"]
    cert.a_image.cycles()
    assert tracer.calls["perm.cycles"] == calls


def test_deadline_turns_a_slow_stub_into_one_failure():
    class Stub:
        items = [("slow", None), ("fast", None), ("fast", None)]

        @staticmethod
        def op(kind):
            if kind == "slow":
                time.sleep(5)
            return "done"

        @staticmethod
        def check(expected, result):
            return result == "done"

    start = time.perf_counter()
    with OpTimer(0.05) as timer:
        assert timer.run(Stub.op, "slow")[0] == DEADLINE
        rec = run.closed_loop(Stub, timer, 0, Stub.op, Stub.items)
    assert time.perf_counter() - start < 2
    assert (rec.attempted, rec.failed, rec.mismatched) == (3, 1, 0)
    assert len(rec.latencies) == 3


def test_construct_check_catches_a_wrong_output():
    parts = ((5, 4, 3, 2, 1), (6, 5, 2, 1, 1))
    datum = construct.BranchDatum(
        base="rp2", degree=15, partitions=tuple(perm.Partition(p) for p in parts)
    )
    sigmas = construct.fundamental_construct(datum, 0)
    check = run.ConstructLarge.check
    assert check(parts, sigmas)
    assert not check(parts, sigmas[::-1])
    assert not check(parts, (sigmas[0], sigmas[0]))


def test_percentile_counts_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 50.0) == (50.0, 50)
    assert run.percentile(values, 90.0) == (90.0, 10)


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(layertrace.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.TAIL_PERCENTILE)
    rec = run.Record()
    rec.add(OK, 0.5, True)
    metrics, _ = run.end_to_end("verify-large", rec, (0.1, 0.1))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        n: u for n, (_, u) in metrics.items()
    }


def test_exits_nonzero_without_a_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
