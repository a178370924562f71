"""The strand benchmark's jobs still print their reference output.

All 15 strand jobs (`orbit`, and the certified one-variable tables of `mf`
and `verify mf`) run as the benchmark runs them (`perfbench/jobs.run_job`,
caches emptied), and the digest of each job's stdout
(`jobs.output_digest`) must equal the one recorded in
`perfbench/data/reference.json`.  The harness files are only read; nothing
under `perfbench/` is changed.
"""

import importlib
import json
from pathlib import Path

from singlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_strand_jobs_match_reference_digests(monkeypatch):
    # jobs.py imports its sibling speed.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    jobs = importlib.import_module("jobs")
    with open(PERFBENCH / "data" / "reference.json", encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]
    strand_jobs = [jobs.Job(argv) for argv in jobs.STRAND_JOBS]
    assert len(strand_jobs) == 15
    assert sum(job.argv[0] == "orbit" for job in strand_jobs) == 6
    clearers = jobs.cache_clearers()
    for job in strand_jobs:
        outcome = jobs.run_job(cli.main, job, clearers)
        assert outcome.error is None and outcome.rc == 0, (job.key, outcome.error)
        assert jobs.output_digest(outcome.stdout) == digests[job.key], job.key
