"""Workload definitions and the in-process job runner.

A job is one ``singlab.cli.main(argv)`` call.  Every job runs with the
program's own caches emptied and the garbage collector drained, so each call
pays what a fresh ``singlab`` invocation pays, minus interpreter start and
imports (those are measured separately as ``setup_s``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

# A timed job that runs longer than this is a failure, not a sample.
TIMED_CAP_S = 60.0
# The probes are known defects; the cap (interpreter start included) is what
# "fixed" has to beat.
PROBE_CAP_S = 2.0

# Partition inputs come from a pool whose members were timed once, at the
# commit that defined this benchmark, and sorted into narrow cost bands
# (centre in ms, +-BAND_WIDTH).  Each pass takes a fixed number of members
# from every band, so every seed gets different inputs with the same cost
# profile.  The heavy bands reproduce the tail of random sequences; no job
# is cheaper than about 2 ms, the CLI's own overhead.  The median and p90
# positions of the 52 jobs fall mid-way into the 15 ms and 250 ms bands.
BAND_WIDTH = 1.12
PARTITION_MIX = {
    "decompose": ((2.5, 8), (6, 6), (15, 6), (40, 6), (100, 3), (250, 6),
                  (600, 2)),
    "analyze": ((4, 4), (8, 4), (20, 3), (50, 2)),
}

# strand and coxeter have an odd number of jobs, and the jobs next to the
# median (and to the p75 position) differ in cost by 1.5x or more or hardly
# at all, so noise that swaps two neighbours barely moves either statistic.
STRAND_JOBS = tuple(
    ("orbit", "--weights", "2,2", "--window", str(w)) for w in (0, 1, 3, 4)) + tuple(
    ("orbit", "--weights", "3,3", "--window", str(w)) for w in (0, 1)) + tuple(
    ("mf", "--max-d", str(d)) for d in range(2, 10)) + (
    ("verify", "mf", "--max-d", "4"),)
# 8 to 60 vertices; enough triples that the tail percentile lands on one.
# Entries stay ascending: permuting them changes the Kronecker order and the
# cost (2,5,3 takes half as long again as 2,3,5).
COXETER_TRIPLES = ((2, 3, 5), (3, 3, 3), (3, 3, 5), (3, 4, 4), (3, 4, 5),
                   (4, 4, 4), (3, 5, 5), (4, 4, 5), (4, 5, 6))
ADE_NAMES = ("A2", "A5", "D4", "E6", "E8")
VERIFY_PARTITION = (("verify", "groups"), ("verify", "counts"))

PROBES = (
    # raises ValueError: gamma = e_x - e_y is not torsion for unequal weights
    ("orbit", "--weights", "2,4", "--window", "1"),
    # runs for minutes: node_limit counts memo states (at most 2^20 here,
    # under the default 2,000,000), not the candidates each state enumerates
    ("decompose", ",".join(str(x) for x in range(3, 23))),
)

WORKLOADS = ("strand", "partition", "coxeter")


@dataclass(frozen=True)
class Job:
    argv: tuple

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float
    # host speed scale from speed.Gauge; scaled time = seconds * scale
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so no handler in the
    program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def load_pool() -> dict:
    with open(DATA / "partition_pool.json", encoding="utf-8") as fh:
        return json.load(fh)


def in_band(ms: float, centre: float) -> bool:
    return centre / BAND_WIDTH <= ms <= centre * BAND_WIDTH


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The timed jobs of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "strand":
        argvs = list(STRAND_JOBS)
    elif workload == "coxeter":
        argvs = [("quiver", ",".join(map(str, t))) for t in COXETER_TRIPLES]
        argvs += [("quiver", name) for name in ADE_NAMES]
        argvs.append(("verify", "quiver"))
    elif workload == "partition":
        pool = load_pool()["entries"]
        argvs = list(VERIFY_PARTITION)
        for command, bands in PARTITION_MIX.items():
            for centre, count in bands:
                members = sorted(e["weights"] for e in pool
                                 if e["command"] == command
                                 and in_band(e["ms"], centre))
                if len(members) < count:
                    raise RuntimeError(f"pool band {command}@{centre}ms has "
                                       f"{len(members)} members, needs {count}")
                argvs += [(command, w) for w in rng.sample(members, count)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(argvs)
    return [Job(tuple(a)) for a in argvs]


def probe_jobs() -> list[Job]:
    return [Job(a) for a in PROBES]


def cache_clearers(package: str = "singlab") -> list:
    """cache_clear of every functools cache at module level in the package."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    out.append(clear)
    return out


def run_job(main, job: Job, clearers=(), gauge=None) -> Outcome:
    """Run one cli.main call with stdout/stderr captured, under a time cap.

    With a ``speed.Gauge``, a job longer than ``speed.TICK_S`` of CPU time
    takes host speed samples inside, and their time is left out of its own.
    """
    for clear in clearers:
        clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    ticked = 0.0

    def on_tick(signum, frame):
        nonlocal ticked
        ticked += gauge.tick()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    previous_prof = signal.signal(signal.SIGPROF, on_tick)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, TIMED_CAP_S)
        if gauge is not None:
            signal.setitimer(signal.ITIMER_PROF, speed.TICK_S, speed.TICK_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(job.argv))
    except JobTimeout:
        error = f"over the {TIMED_CAP_S:g} s cap"
    except Exception as exc:  # a traceback is a failed job, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start - ticked
        signal.signal(signal.SIGPROF, previous_prof)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(rc, out.getvalue(), err.getvalue(), error, seconds)


def run_probe(job: Job, src: Path) -> Outcome:
    """Run a probe as its own ``python -m singlab.cli`` process, killed at
    the cap, so a runaway search cannot hold memory in this process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "singlab.cli", *job.argv],
                              capture_output=True, text=True, env=env,
                              cwd=src.parent, timeout=PROBE_CAP_S)
    except subprocess.TimeoutExpired:
        return Outcome(None, "", "", f"over the {PROBE_CAP_S:g} s cap",
                       time.perf_counter() - start)
    seconds = time.perf_counter() - start
    error = None
    if "Traceback" in done.stderr:
        error = "uncaught " + done.stderr.strip().splitlines()[-1]
    return Outcome(done.returncode, done.stdout, done.stderr, error, seconds)


_SEARCH_STATS = re.compile(r'"search_stats": \{[^{}]*\}')


def output_digest(stdout: str) -> str:
    """SHA-256 of a job's stdout with search counters blanked.

    ``search_stats`` reports how the partition search ran (nodes, pruned,
    bound bookkeeping), not what it proved; planned search changes alter it
    while the certificates stay byte-identical.  Every other byte counts.
    """
    text = _SEARCH_STATS.sub('"search_stats": {}', stdout)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def raw_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()
