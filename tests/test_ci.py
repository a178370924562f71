"""The CI workflow runs the tier-1 command that ROADMAP.md states, on a
matrix whose lowest Python is the `requires-python` minimum.

The workflow is read as text: CI installs only pytest and hypothesis.
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
