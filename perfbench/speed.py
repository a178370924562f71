"""Host speed gauge: every reported time is scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed moves with
its neighbours' load.  On a 2-vCPU Xeon VM one fixed piece of ``Fraction``
arithmetic took 0.08 to 0.18 s back to back, with CPU time equal to wall
time (the process was never descheduled: the cores themselves ran slower),
and the median over ten-second windows moved by half.  A whole run can
land in a fast or a slow phase lasting minutes, which no statistic inside
the run removes.

So the gauge times a small fixed kernel of pure-Python work, the kind the
program does (``Fraction`` arithmetic, tuple keys in a dict), between
jobs: before the first job and then whenever ``EVERY_S`` has passed.  A
job longer than ``TICK_S`` is also sampled inside, every ``TICK_S`` of
CPU time, from a ``SIGPROF`` handler; the time those samples take is left
out of the job's time.  A job's scale is ``REF_S`` over the median of the
kernel times from ``REACH_S`` before it to ``REACH_S`` after it, and its
reported time is its measured time times that scale: the time it would
take on a host that runs the kernel in ``REF_S``.  A change to the
program moves the job, not the kernel (which
runs only the standard library, with the garbage collector off, so the
program's live objects do not slow it); a change of host speed moves
both.  In a 60 s test of one ``quiver 3,4,4`` job run back to back, its
scaled time spread (interquartile range over median) 8 % where its raw time
spread 28 %, and its medians over ten-second windows moved 3 % instead of
17 %.  For ``quiver 4,5,6`` (3 to 4 s) the samples before and after
alone left a spread of 29 %; with samples inside every 0.25 s it was 5 %.

Set-up time (spawning an interpreter, importing, generating inputs) moves
with the host in another way: the process start and imports do system work
the kernel above does not.  Its gauge is the start of a bare interpreter
(``python -c pass``), timed before and after each set-up child, with
``START_REF_S`` as its reference.  Over 60 set-ups in five stretches the
stretch medians of the raw time moved 27 %, of the time scaled by the
``Fraction`` kernel 31 %, and of the time scaled by the bare start 8 %.

Raw times are kept next to the scaled ones in the run's record.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# kernel size: about 7 ms on the host above
ROUNDS = 3000
# kernel time of the reference host; scaled times are in its seconds
REF_S = 0.0075
# take a new kernel sample before a job once this much time has passed
EVERY_S = 0.1
# sample inside a running job every this many seconds of CPU time
TICK_S = 0.25
# a job is scaled by the samples from this long before it to this long after
REACH_S = 0.25
# bare interpreter start on the reference host
START_REF_S = 0.05


def _work(rounds: int):
    acc = Fraction(0)
    seen = {}
    for i in range(1, rounds):
        acc += Fraction(i % 89 + 1, i % 97 + 1)
        key = (i % 61, i % 37)
        seen[key] = seen.get(key, 0) + i
    return acc, len(seen)


def kernel_seconds() -> float:
    """Time one run of the fixed kernel, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work(ROUNDS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def interpreter_start_seconds() -> float:
    """Time one start and exit of a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


class Gauge:
    """Kernel samples between (and inside) jobs; a scale for each job."""

    def __init__(self, kernel=kernel_seconds, ref_s: float = REF_S,
                 every_s: float = EVERY_S, reach_s: float = REACH_S):
        self.kernel = kernel
        self.ref_s = ref_s
        self.every_s = every_s
        self.reach_s = reach_s
        # (time at the middle of the sample, kernel seconds)
        self.samples: list[tuple[float, float]] = []
        self._jobs: list = []
        self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        k = self.kernel()
        self.last_at = time.perf_counter()
        self.samples.append(((start + self.last_at) / 2, k))

    def before_job(self) -> None:
        if time.perf_counter() - self.last_at >= self.every_s:
            self._sample()

    def tick(self) -> float:
        """Sample inside a running job; returns the seconds it took, which
        the job leaves out of its time."""
        start = time.perf_counter()
        self._sample()
        return time.perf_counter() - start

    def after_job(self, outcome, start: float, end: float) -> None:
        self._jobs.append((outcome, start, end))

    def finish(self) -> None:
        """Sample once more, then give every job its scale: ``ref_s`` over
        the median of the samples from ``reach_s`` before it started to
        ``reach_s`` after it ended (the nearest sample if none is that
        close).  The median keeps one disturbed sample from moving a job."""
        self._sample()
        for outcome, start, end in self._jobs:
            near = [k for t, k in self.samples
                    if start - self.reach_s <= t <= end + self.reach_s]
            if not near:
                near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
            outcome.scale = self.ref_s / statistics.median(near)
        self._jobs = []
