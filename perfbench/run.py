"""singlab benchmark: time whole CLI jobs, check their output, trace layers.

    python3 perfbench/run.py --workload strand|partition|coxeter \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One client in one thread calls ``singlab.cli.main(argv)`` in-process, each
call after the previous one returns (a closed loop).  A pass is the
workload's job list; passes repeat until the next one would end after
``--seconds`` (at least ``MIN_PASSES``).  The two known-defect probes then
run once, each in its own process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of stdout is the JSON result; a fuller record with provenance goes to
``perfbench/out/``.  See perfbench/NOTES.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import jobs
import provenance
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
# after the first pass, untraced passes run a job that took less than
# REP_S that many times over back to back (at most MAX_REPS), so short
# jobs get as many samples as the run has time for
REP_S = 0.1
MAX_REPS = 8
SETUP_REPS = 9
TAIL_LADDER = (99, 95, 90, 75, 50)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.tail": "ms",
    "ops_failed_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {}
for _name in ("linalg.rank", "mfengine.strand_cohomology", "mfengine.monomials_of",
              "abgroup.reduce_element", "decompose.min_partition",
              "abgroup.smith_normal_form", "weightcalc",
              "quiverlab.coxeter_polynomial", "linalg.matmul", "linalg.inverse",
              "linalg.charpoly", "linalg.det", "linalg.solve"):
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.s"] = "s"
PER_LAYER_UNITS.update({
    "linalg.rank.entries": "count",
    "linalg.rank.nnz": "count",
    "linalg.rank.density": "ratio",
    "mfengine.strand_cohomology.self_s": "s",
    "mfengine.orbit_hom_check.s": "s",
    "mfengine.monomials_of.hit_ratio": "ratio",
    "decompose.nodes": "count",
    "decompose.pruned": "count",
    "decompose.prune_ratio": "ratio",
    "weightcalc.sod_summary.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "B",
    "cli.report.s": "s",
    "quiverlab.coxeter_polynomial.self_s": "s",
    "quiverlab.coxeter_polynomial.max_vertices": "count",
    "trace.overhead_frac": "ratio",
})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=jobs.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def measure_setup(args) -> list:
    """Seconds from starting a fresh interpreter to its first job being
    ready (imports plus input generation), once per child process, each
    scaled by the bare interpreter starts around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    gauge = speed.Gauge(speed.interpreter_start_seconds, speed.START_REF_S,
                        every_s=0)
    for _ in range(SETUP_REPS):
        gauge.before_job()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up child failed")
        sample = jobs.Outcome(0, "", "", None, ready - start)
        gauge.after_job(sample, start, ready)
        samples.append(sample)
    gauge.finish()
    return samples


def setup_child(args) -> int:
    from singlab import cli  # noqa: F401
    jobs.workload_jobs(args.workload, args.seed)
    print("ready", flush=True)
    return 0


# ---------------------------------------------------------------------------
# the closed loop


def run_pass(cli_main, timed, clearers, gauge, reps=None, tracer=None) -> dict:
    """One pass: every timed job in order, ``reps[i]`` times over (once if
    ``reps`` is None), traced or not, with host speed samples between jobs,
    and inside long jobs of untraced passes (outside the job timings; never
    inside a trace span).  ``timed`` holds (job index, outcome) pairs."""
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        for i, job in enumerate(timed):
            for _ in range(reps[i] if reps else 1):
                gauge.before_job()
                start = time.perf_counter()
                with tracer.job_span(i) if tracer else contextlib.nullcontext():
                    outcome = jobs.run_job(cli_main, job, clearers,
                                           None if tracer else gauge)
                gauge.after_job(outcome, start, time.perf_counter())
                outcomes.append((i, outcome))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"traced": tracer is not None, "timed": outcomes,
            "wall_s": sum(o.seconds for _, o in outcomes)}


def closed_loop(cli_main, timed, clearers, seconds, tracer) -> list:
    """Repeat passes until the next would overrun ``seconds``.  With a tracer,
    passes alternate untraced / traced, so both see the same conditions;
    traced passes run every job once, so layer counts are per pass."""
    passes = []
    gauge = speed.Gauge()
    reps = None
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(cli_main, timed, clearers, gauge, reps))
        if reps is None:
            reps = [max(1, min(MAX_REPS, int(REP_S / o.seconds)))
                    for _, o in passes[-1]["timed"]]
        if tracer is not None:
            passes.append(run_pass(cli_main, timed, clearers, gauge,
                                   tracer=tracer))
        step = time.perf_counter() - p0
        enough = len([p for p in passes if not p["traced"]]) >= (
            1 if tracer is not None else MIN_PASSES)
        if enough and time.perf_counter() - start + step > seconds:
            gauge.finish()
            return passes


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def job_medians_s(passes, scaled=True) -> list[float]:
    """Each job's median time over the passes, scaled to the reference host
    speed (speed.py) unless ``scaled`` is false.  A burst of interference on
    the shared host then moves single samples, not the job's time."""
    times = {}
    for p in passes:
        for i, o in p["timed"]:
            times.setdefault(i, []).append(o.scaled_s if scaled else o.seconds)
    return [statistics.median(times[i]) for i in sorted(times)]


def end_to_end(passes, setup_samples, tail_q, peak_rss_mb, failed_frac) -> dict:
    job_ms = [t * 1000 for t in job_medians_s(passes)]
    return {
        "setup_s": statistics.median(o.scaled_s for o in setup_samples),
        "wall_s": sum(job_ms) / 1000,
        "job_ms.p50": statistics.median(job_ms),
        "job_ms.tail": percentile(job_ms, tail_q),
        "ops_failed_frac": failed_frac,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced, untraced) -> dict:
    n = len(traced)
    calls, incl, self_t, ctr = (tracer.calls, tracer.inclusive,
                                tracer.self_time, tracer.counters)
    out = {}
    for name in PER_LAYER_UNITS:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[base] / n
        elif field == "s":
            out[name] = incl[base] / n
        elif field == "self_s":
            out[name] = self_t[base] / n
    entries = ctr["linalg.rank.entries"]
    nodes, pruned = ctr["decompose.nodes"], ctr["decompose.pruned"]
    mono = calls["mfengine.monomials_of"]
    out.update({
        "linalg.rank.entries": entries / n,
        "linalg.rank.nnz": ctr["linalg.rank.nnz"] / n,
        "linalg.rank.density": ctr["linalg.rank.nnz"] / entries if entries else 0.0,
        "mfengine.monomials_of.hit_ratio":
            ctr["mfengine.monomials_of.hits"] / mono if mono else 0.0,
        "decompose.nodes": nodes / n,
        "decompose.pruned": pruned / n,
        "decompose.prune_ratio": pruned / (nodes + pruned) if nodes + pruned else 0.0,
        "cli.emit.bytes": ctr["cli.emit.bytes"] / n,
        "quiverlab.coxeter_polynomial.max_vertices":
            ctr["quiverlab.coxeter_polynomial.max_vertices"],
        "trace.overhead_frac": (sum(job_medians_s(traced))
                                / sum(job_medians_s(untraced)) - 1),
    })
    return {k: out[k] for k in PER_LAYER_UNITS}


def self_time_ranking(tracer, traced_wall, top=8) -> list:
    names = [k for k in tracer.self_time if k != "job"]
    names.sort(key=lambda k: -tracer.self_time[k])
    return [(k, tracer.self_time[k] / traced_wall) for k in names[:top]]


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    from singlab import cli

    setup_samples = measure_setup(args)
    timed = jobs.workload_jobs(args.workload, args.seed)
    probes = jobs.probe_jobs()
    checker = checks.Checker(checks.load_references())
    clearers = jobs.cache_clearers()
    tail_q = tail_percentile(len(timed) * MIN_PASSES)
    if tail_q is None:
        raise RuntimeError(f"{args.workload} has too few jobs for a tail")

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    passes = closed_loop(cli.main, timed, clearers, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_status = [(job.key, checker.probe_problem(job, jobs.run_probe(job, SRC)))
                    for job in probes]

    failures = []
    for p in passes:
        for i, o in p["timed"]:
            problem = checker.timed_problem(timed[i], o)
            if problem:
                failures.append((timed[i].key, p["traced"], problem))
    attempted = sum(len(p["timed"]) for p in passes)
    failed = len(failures)
    # a job (a distinct command) fails if any of its executions failed
    failed_jobs = len({key for key, _, _ in failures})
    failed_frac = ((failed_jobs + sum(1 for _, problem in probe_status if problem))
                   / (len(timed) + len(probes)))
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if tracer is None:
        metrics = end_to_end(untraced, setup_samples, tail_q, peak_rss_mb,
                             failed_frac)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(tracer, traced, untraced)
        units = PER_LAYER_UNITS
    load_end = os.getloadavg()

    info = provenance.machine()
    info.update({
        "commit": provenance.git_commit(ROOT),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loadavg_start": load_start, "loadavg_end": load_end,
    })
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes of "
          f"{len(timed)} jobs; {attempted} timed jobs, {failed} failed")
    if untraced:
        raw = job_medians_s(untraced, scaled=False)
        scale = statistics.median(o.scale for p in untraced for _, o in p["timed"])
        print(f"  unscaled: wall_s = {sum(raw):.6g} s, job_ms.p50 = "
              f"{statistics.median(raw) * 1000:.6g} ms, setup_s = "
              f"{statistics.median(o.seconds for o in setup_samples):.6g} s; "
              f"median host speed scale {scale:.4g}")
    print(f"  samples: setup_s median of {len(setup_samples)} children; "
          f"wall_s and job_ms from {len(timed)} job medians over "
          f"{len(untraced)} passes ({attempted} timed jobs), tail = p{tail_q}; "
          f"ops_failed_frac over {len(timed)} jobs + {len(probes)} probes")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for key, problem in probe_status:
        print(f"  probe [{key}]: {'FAIL: ' + problem if problem else 'pass'}")
    for key, was_traced, problem in failures[:20]:
        print(f"  FAILED [{key}]{' (traced)' if was_traced else ''}: {problem}")
    if tracer is not None:
        wall = sum(p["wall_s"] for p in traced)
        print("  self time share of traced wall: " + ", ".join(
            f"{k} {share:.1%}" for k, share in self_time_ranking(tracer, wall)))
    print("provenance: " + json.dumps(info, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job_keys = [job.key for job in timed]
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "provenance": info, "metrics": metrics,
            "units": {k: units[k] for k in metrics},
            "setup_samples_s": [o.seconds for o in setup_samples],
            "setup_scales": [o.scale for o in setup_samples],
            "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                        "job": [i for i, _ in p["timed"]],
                        "job_s": [o.seconds for _, o in p["timed"]],
                        "job_scale": [o.scale for _, o in p["timed"]]}
                       for p in passes],
            "jobs": job_keys, "probes": probe_status, "failures": failures,
        }, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl", job_keys)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then one table."""
    rows = {}
    for workload in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        rows[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(rows[jobs.WORKLOADS[0]]["metrics"])
    print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in rows))
    for name in names:
        unit = rows[jobs.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:44s} {unit:6s} " + " ".join(
            f"{rows[w]['metrics'][name]['value']:12.6g}" for w in rows))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}/{k}": v for w, r in rows.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "singlab" / "cli.py").is_file():
        print(f"singlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        sys.path.insert(0, str(SRC))
        return setup_child(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
