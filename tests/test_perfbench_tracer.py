"""The benchmark's span recorder still installs on, and uninstalls from, the package.

The traced benchmark pass wraps the public functions of every layer module
and `RingWithPotential.monomials_of` by name; a refactor that drops one of
those names breaks the pass.  The recorder is loaded from its file, and
nothing under `perfbench/` is changed.
"""

import importlib.util
import inspect
from pathlib import Path

from singlab import cli, mfengine

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions(tracer):
    """Every function object the recorder may replace, by (holder, name)."""
    out = {}
    for short in tracer.MODULES:
        module = importlib.import_module(f"singlab.{short}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                out[(module.__name__, name)] = obj
    out[("RingWithPotential", "monomials_of")] = \
        mfengine.RingWithPotential.__dict__["monomials_of"]
    return out


def test_tracer_counts_strand_layer_and_restores_everything(capsys):
    tracer_module = _load_tracer()
    before = _functions(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install("singlab")
    try:
        assert mfengine.strand_cohomology is not before[("singlab.mfengine",
                                                          "strand_cohomology")]
        with tracer.job_span(0):
            assert cli.main(["orbit", "--weights", "2,2", "--window", "0"]) == 0
    finally:
        tracer.uninstall()
    assert '"ok": true' in capsys.readouterr().out
    assert tracer.calls["mfengine.strand_cohomology"] > 0
    after = _functions(tracer_module)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
