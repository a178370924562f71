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
