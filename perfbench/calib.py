"""Machine-speed reference for the benchmark's timings.

On a shared host the CPU speed available to one process drifts by tens of
percent over minutes, in CPU time as well as in wall time, and a census pass
with fixed inputs takes anywhere from 4 to 8 s.  To measure the program
rather than the host, a fixed reference kernel built from the benchmark's
own permutation arithmetic is timed between operations all through a run,
and every reported time is scaled by ``REF_UNIT_S / kernel time`` at the
point of the run where it was measured: times are given as they would read
on a machine on which the kernel takes exactly ``REF_UNIT_S``.  The kernel never calls the library, so a change to
the library moves the scaled times exactly as much as the raw ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import arith

# One kernel run on the nominal machine; about what it takes on an unloaded
# 2-core x86-64 VM, so scaled times stay close to raw ones there.
REF_UNIT_S = 0.5e-3

# A kernel sample is taken after every SAMPLE_EVERY_S of timed operations,
# so the samples are spread evenly over the run's timed wall.
SAMPLE_EVERY_S = 0.05

# Samples around a point in the run whose median gives the speed there.
WINDOW = 8

_rng = random.Random("perfbench reference kernel")
_PERMS = [arith.random_perm(_rng, 61) for _ in range(8)]


def kernel() -> int:
    """Compose, cycle types and an orbit search on fixed degree-61
    permutations: the operations the library itself is made of."""
    acc = 0
    for a in _PERMS:
        for b in _PERMS:
            acc += len(arith.cycle_type(arith.compose(a, b)))
        acc += arith.is_transitive([a, _PERMS[0]])
    return acc


def time_kernel() -> float:
    """Seconds of one kernel run, with the garbage collector held off so
    that the program's own heap is never collected on the kernel's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def kernel_median(runs: int, warmup: int = 3) -> float:
    """Median seconds of ``runs`` kernel runs, after ``warmup`` untimed ones."""
    for _ in range(warmup):
        time_kernel()
    return statistics.median(time_kernel() for _ in range(runs))


class Reference:
    """Kernel samples taken between the operations of one loop.

    Work done after ``position()`` samples is scaled by the median of the
    WINDOW samples around that point, so that each operation is scaled by
    the machine's speed at the time it ran.
    """

    def __init__(self):
        kernel_median(1)  # warm-up, then the first half window
        self.samples = [time_kernel() for _ in range(WINDOW // 2)]
        self._since = 0.0

    def position(self) -> int:
        return len(self.samples)

    def after(self, seconds: float) -> None:
        """Note ``seconds`` of timed work; sample the kernel when due."""
        self._since += seconds
        if self._since >= SAMPLE_EVERY_S:
            self._since = 0.0
            self.samples.append(time_kernel())

    def factors(self) -> list[float]:
        """For each position, the factor from raw seconds to seconds on the
        nominal machine."""
        half = WINDOW // 2
        return [
            REF_UNIT_S / statistics.median(self.samples[max(0, pos - half) : pos + half])
            for pos in range(len(self.samples) + 1)
        ]
