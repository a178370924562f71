"""Each engine module's `__all__` names exactly its public top-level
functions and classes, and `linalg` exports only the elimination."""

import importlib
import inspect

import pytest

ENGINES = ("abgroup", "weightcalc", "decompose", "quiverlab", "mfengine", "linalg")


@pytest.mark.parametrize("name", ENGINES)
def test_all_names_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"singlab.{name}")
    public = {key for key, obj in vars(mod).items()
              if not key.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert len(mod.__all__) == len(set(mod.__all__))
    assert set(mod.__all__) == public


def test_linalg_exports_only_the_elimination():
    from singlab import linalg

    assert sorted(linalg.__all__) == sorted(
        ["independent_rows", "pivot_columns", "rank", "nullspace", "solve"])
