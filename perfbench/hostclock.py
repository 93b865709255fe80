"""Host-speed probes: host seconds rescaled to a fixed reference speed.

Shared hosts lend their cores to other tenants. On the 2-vCPU Xeon guest
this benchmark was calibrated on (Python 3.11), each CPU flips between a
fast and a slow state (the slow one about 1.7 times slower for
pure-Python work) several times a minute, so a raw wall-clock reading
measures the neighbours as much as the simulator. Between timed
segments the benchmark therefore runs a probe: a fixed pure-Python
reference kernel (``ref_kernel``: heap pushes and pops, dict updates,
slot-object allocation and generator resumption, the interpreter work
the simulator's event loop does) that never calls the program.

A run's times are rescaled by ``(REF_NOMINAL_S / r) ** SENSITIVITY``,
where ``r`` is the median probe of the run. The exponent is measured, not
chosen: across the host's speed states the simulator's host time scaled
as the reference kernel's time to the power 0.47 (log-log slope over 78
one-second selfish-detour segments, each between two probes), so a full
rescaling (exponent 1) over-corrects on a slow host. A change to the
program moves the rescaled time exactly as it moves the raw time.

Segments whose work runs on several CPUs at once (pool workers) are
probed on each of those CPUs, pinned, and the CPUs combined as parallel
throughput combines (harmonic mean); they are rescaled by the median of
those probes instead.
"""

from __future__ import annotations

import heapq
import os
import statistics
import time
from typing import Any, Callable, List, Tuple

#: Iterations of one reference-kernel call (about 25 ms on a 2-core
#: Xeon guest with Python 3.11).
REF_ITERS = 20_000
#: Reference-kernel time that defines "reference speed": the median of
#: ``ref_sample()`` measured on that host. Normalized times are host
#: seconds at this speed.
REF_NOMINAL_S = 0.025
#: Calls per probe; the fastest is kept, so a single preemption during
#: the probe does not count as a slow host.
REF_REPS = 3
#: Measured sensitivity of the simulator's host time to the reference
#: kernel's (see the module docstring).
SENSITIVITY = 0.5
#: Expected return value of ``ref_kernel()`` (a guard that the kernel ran
#: its full fixed work).
REF_CHECKSUM = 1309160408


class _Ev:
    __slots__ = ("t", "k")

    def __init__(self, t: int, k: int):
        self.t = t
        self.k = k


def _lcg(k: int):
    x = 1
    while True:
        x = (x * 1103515245 + k) & 0xFFFFFFFF
        k = yield x


def ref_kernel(iters: int = REF_ITERS) -> int:
    """Fixed interpreter work; returns a checksum of it."""
    heap: List[Tuple[int, int, _Ev]] = []
    table = {}
    gen = _lcg(12345)
    next(gen)
    acc = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(iters):
        t = (i * 2654435761) & 0xFFFFF
        push(heap, (t, i, _Ev(t, i)))
        if len(heap) > 256:
            _, j, ev = pop(heap)
            acc ^= gen.send(j) ^ ev.k
        key = i & 1023
        table[key] = table.get(key, 0) + 1
    return acc ^ len(table)


def ref_sample(reps: int = REF_REPS) -> float:
    """Fastest of ``reps`` timed reference-kernel calls (seconds)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        checksum = ref_kernel()
        best = min(best, time.perf_counter() - t0)
        if checksum != REF_CHECKSUM:
            raise RuntimeError(f"reference kernel checksum {checksum}")
    return best


def ref_sample_cpus(cpus, reps: int = REF_REPS) -> float:
    """Reference time for work spread over ``cpus``: each CPU is probed
    pinned, and the results combine as parallel throughput does (the
    harmonic mean), so one slow CPU counts for half on two."""
    saved = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(ref_sample(reps))
    finally:
        os.sched_setaffinity(0, saved)
    return len(times) / sum(1.0 / t for t in times)


class SpeedProbe:
    """Times segments and probes the host after each one (before and
    after each pooled one)."""

    def __init__(self) -> None:
        self.refs: List[float] = [ref_sample()]
        self.pool_refs: List[float] = []

    def segment(self, fn: Callable[..., Any], *args: Any,
                cpus=None, **kwargs: Any) -> Tuple[Any, float]:
        """Run ``fn`` as one segment; returns ``(result, raw_s)``.

        ``cpus`` names the CPUs the segment's work runs on when that is
        more than the calling process's own. If ``fn`` raises, the probe
        still runs and the exception propagates.
        """
        if cpus is not None:
            self.pool_refs.append(ref_sample_cpus(cpus))
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            if cpus is not None:
                self.pool_refs.append(ref_sample_cpus(cpus))
            else:
                self.refs.append(ref_sample())
        return result, raw

    def factor(self, pooled: bool = False) -> float:
        """Multiplier from raw host seconds to reference seconds."""
        refs = self.pool_refs if pooled else self.refs
        if not refs:
            return 1.0
        return (REF_NOMINAL_S / statistics.median(refs)) ** SENSITIVITY

    def speed(self) -> float:
        """Host speed relative to the reference (>1 = faster): nominal
        over the median probe of this process."""
        return REF_NOMINAL_S / statistics.median(self.refs)
