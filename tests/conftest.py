import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import singlab

# Prepended to every script: exit 4 if asserts are still on.
_OPTIMIZED_GUARD = "import sys\nif __debug__:\n    sys.exit(4)\n"


@pytest.fixture
def run_optimized():
    """Run a script under `python -O` with this checkout's singlab importable."""
    src = str(Path(singlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(script: str, timeout: float = 120):
        code = _OPTIMIZED_GUARD + textwrap.dedent(script)
        return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=timeout)

    return run
