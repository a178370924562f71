"""The `orbit` jobs of the strand benchmark still print their reference output.

Each job runs as the benchmark runs it (`perfbench/jobs.run_job`, caches
emptied), and the digest of its stdout (`jobs.output_digest`) must equal the
one recorded in `perfbench/data/reference.json`.  The harness files are only
read; nothing under `perfbench/` is changed.
"""

import importlib
import json
from pathlib import Path

from singlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_strand_orbit_jobs_match_reference_digests(monkeypatch):
    # jobs.py imports its sibling speed.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    jobs = importlib.import_module("jobs")
    with open(PERFBENCH / "data" / "reference.json", encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]
    orbit_jobs = [jobs.Job(argv) for argv in jobs.STRAND_JOBS if argv[0] == "orbit"]
    assert len(orbit_jobs) == 6
    clearers = jobs.cache_clearers()
    for job in orbit_jobs:
        outcome = jobs.run_job(cli.main, job, clearers)
        assert outcome.error is None and outcome.rc == 0, (job.key, outcome.error)
        assert jobs.output_digest(outcome.stdout) == digests[job.key], job.key
