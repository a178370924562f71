"""The CI workflow runs the tier-1 command that ROADMAP.md states, on a
matrix whose lowest Python is the `requires-python` minimum.

The workflow and pyproject.toml are read as text: CI installs only the
packages of the `test` extra, and `tomllib` is not on Python 3.10.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.M).group(1)
    optimized = tier1.replace(" python -m pytest ", " python -O -m pytest ")
    assert optimized != tier1
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = [line.strip()[len("run:"):].strip() for line in workflow.splitlines()
            if line.strip().startswith("run:")]
    assert tier1 in runs
    assert optimized in runs


def _version(text):
    return tuple(int(part) for part in text.split("."))


def test_lowest_ci_python_is_the_required_minimum():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    required = re.search(r'^requires-python = ">=([\d.]+)"', pyproject, re.M).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    matrix = re.search(r"^\s*python-version: \[([^\]]*)\]", workflow, re.M).group(1)
    versions = re.findall(r'"([\d.]+)"', matrix)
    assert versions and min(versions, key=_version) == required


def test_ci_installs_exactly_the_test_extra():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[([^\]]*)\]", pyproject, re.M).group(1)
    wanted = sorted(re.findall(r'"([^"]+)"', extra))
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    installs = [line.split("pip install", 1)[1].split()
                for line in workflow.splitlines() if "pip install" in line]
    assert wanted and installs
    assert all(sorted(packages) == wanted for packages in installs), installs


BENCH_CHECK = ("python3 perfbench/run.py --workload all --seed 1 --seconds 2"
               " | tail -n 1 | grep -F '\"correct\": true'")


def _jobs(workflow):
    """The workflow's jobs as {name: text}, split at two-space job keys."""
    body = workflow.split("\njobs:\n", 1)[1]
    parts = re.split(r"^  ([\w-]+):\n", body, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_ci_runs_the_benchmark_output_checks():
    # grep fails the step unless the last stdout line, the JSON result,
    # says every output was correct; a crashed run prints no such line.
    # The second job strips asserts in every process the run starts.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    jobs = {name: text for name, text in _jobs(workflow).items() if BENCH_CHECK in text}
    assert sorted(jobs) == ["bench-outputs", "bench-outputs-optimized"]
    for name, prefix in (("bench-outputs", ""),
                         ("bench-outputs-optimized", "PYTHONOPTIMIZE=1 ")):
        job = jobs[name]
        runs = [line.strip()[len("run:"):].strip() for line in job.splitlines()
                if line.strip().startswith("run:")]
        assert runs == [prefix + BENCH_CHECK], name
        assert re.search(r'^\s*python-version: "3\.11"$', job, re.M), name
        assert "pip install" not in job, name


def test_every_job_sets_a_timeout():
    # a runaway search must fail in bounded time, not after the runner's
    # six-hour default
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    jobs = _jobs(workflow)
    assert jobs
    for name, text in jobs.items():
        minutes = re.findall(r"^    timeout-minutes: (\d+)$", text, re.M)
        assert len(minutes) == 1 and 0 < int(minutes[0]) <= 30, name
