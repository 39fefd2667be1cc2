"""The machine under the benchmark: one pinned CPU, its stolen time, its speed.

The benchmark shares a two-CPU virtual machine with other tenants.  Spread
over both CPUs, the processes of a workload hand every message from one CPU
to the other, and the host takes up to a third of one CPU's time for minutes
at a time; wall-time figures then varied by a third between runs of the same
code.  So a run pins itself and every child it starts to one CPU (pinned()),
and the benchmark takes the time the host stole from that CPU out of the wall
time it reports (cpu_ticks()).  The CPU's own speed drifts as well, by up to
a fifth over minutes: slowness() times a short fixed loop in thread CPU time
against its time at reference speed, and the benchmark divides its times by
the mean of the samples it took during the run.  The loop allocates small
objects, as term copies do; a loop of integer arithmetic alone moved only
about four fifths as much as the termbus code did.  calibrate() times a
longer run of the same loop once per run (calib_s in the run record).  The
loop makes no termbus call.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import time

REF_LOOP_S = 0.002    # thread CPU time of one LOOP_N loop at reference speed
LOOP_N = 3_000


@contextlib.contextmanager
def pinned():
    """Run the block, and every process started in it, on the last allowed CPU."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) ticks so far of the CPU this process is pinned to, or
    of the whole machine when it is not pinned; (0, 0) when the kernel does
    not say."""
    allowed = os.sched_getaffinity(0)
    name = f"cpu{next(iter(allowed))}" if len(allowed) == 1 else "cpu"
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                parts = line.split()
                if parts and parts[0] == name:
                    fields = [int(x) for x in parts[1:9]]
                    return fields[7], sum(fields)
    except (OSError, ValueError):
        pass
    return 0, 0


def cpu_seconds() -> float:
    """User plus system CPU time of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _loop(n: int) -> None:
    keep = []
    for i in range(n):
        keep.append(_Cell(i, (i, [i])))
        if len(keep) > 512:
            keep = []


def calibrate(loops: int = 3, n: int = 100_000) -> float:
    """Median wall time of a fixed loop, in seconds."""
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        _loop(n)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slowness(reps: int = 3) -> float:
    """This CPU's speed now against the reference: 1.5 is half again as slow.

    The collector is off while the loop runs, so that the size of the heap
    of the process that measures does not count as CPU speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(reps):
            t0 = time.thread_time()
            _loop(LOOP_N)
            dt = time.thread_time() - t0
            best = dt if best is None else min(best, dt)
    finally:
        if enabled:
            gc.enable()
    return best / REF_LOOP_S
