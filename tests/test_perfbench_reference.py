"""The benchmark's jobs still print their reference output.

Each job runs as the benchmark runs it (`perfbench/jobs.run_job`, caches
emptied), and the digest of its stdout (`jobs.output_digest`) must equal the
recorded one: the 15 strand jobs (`orbit`, and the certified one-variable
tables of `mf` and `verify mf`), the 15 coxeter jobs (`quiver` on the
weight triples and ADE names, and `verify quiver`) and `verify groups` /
`verify counts` against `perfbench/data/reference.json`, and against their
`sha256` in `perfbench/data/partition_pool.json` the 48 `analyze` entries
and the 72 `decompose` entries whose calibrated time is at most 50 ms (the
bare partition certificates; the benchmark checks the longer ones).  The
harness files are only read; nothing under `perfbench/` is changed.
"""

import importlib
import json
from pathlib import Path

from singlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _harness(monkeypatch):
    """The `jobs` module and the reference digests by job key."""
    # jobs.py imports its sibling speed.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    jobs = importlib.import_module("jobs")
    with open(PERFBENCH / "data" / "reference.json", encoding="utf-8") as fh:
        return jobs, json.load(fh)["digests"]


def _check_digests(jobs, wanted):
    """Run each job of `wanted` (job -> digest) and compare its digest."""
    clearers = jobs.cache_clearers()
    for job, digest in wanted.items():
        outcome = jobs.run_job(cli.main, job, clearers)
        assert outcome.error is None and outcome.rc == 0, (job.key, outcome.error)
        assert jobs.output_digest(outcome.stdout) == digest, job.key


def test_strand_jobs_match_reference_digests(monkeypatch):
    jobs, digests = _harness(monkeypatch)
    strand_jobs = [jobs.Job(argv) for argv in jobs.STRAND_JOBS]
    assert len(strand_jobs) == 15
    assert sum(job.argv[0] == "orbit" for job in strand_jobs) == 6
    _check_digests(jobs, {job: digests[job.key] for job in strand_jobs})


def test_coxeter_jobs_match_reference_digests(monkeypatch):
    jobs, digests = _harness(monkeypatch)
    argvs = [("quiver", ",".join(map(str, t))) for t in jobs.COXETER_TRIPLES]
    argvs += [("quiver", name) for name in jobs.ADE_NAMES]
    argvs.append(("verify", "quiver"))
    wanted = {jobs.Job(argv): digests[" ".join(argv)] for argv in argvs}
    assert len(wanted) == 15
    assert {job.key for job in wanted} == {
        job.key for job in jobs.workload_jobs("coxeter", 0)}
    _check_digests(jobs, wanted)


def test_grading_jobs_match_reference_digests(monkeypatch):
    jobs, digests = _harness(monkeypatch)
    wanted = {jobs.Job(argv): digests[" ".join(argv)]
              for argv in jobs.VERIFY_PARTITION}
    assert len(wanted) == 2
    analyze = [e for e in jobs.load_pool()["entries"] if e["command"] == "analyze"]
    assert len(analyze) == 48
    wanted.update({jobs.Job(("analyze", e["weights"])): e["sha256"] for e in analyze})
    _check_digests(jobs, wanted)


def test_decompose_jobs_match_pool_digests(monkeypatch):
    jobs, _ = _harness(monkeypatch)
    short = [e for e in jobs.load_pool()["entries"]
             if e["command"] == "decompose" and e["ms"] <= 50]
    assert len(short) == 72
    _check_digests(jobs, {jobs.Job(("decompose", e["weights"])): e["sha256"]
                          for e in short})
