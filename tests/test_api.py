"""Each engine module's `__all__` names exactly its public top-level
functions and classes, `linalg` exports only the elimination, and no
engine type renders itself to JSON: `cli` alone writes the schema."""

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


@pytest.mark.parametrize("name", ("abgroup", "weightcalc", "decompose",
                                  "quiverlab", "mfengine"))
def test_no_engine_class_renders_json(name):
    mod = importlib.import_module(f"singlab.{name}")
    for key in mod.__all__:
        obj = getattr(mod, key)
        if inspect.isclass(obj):
            assert not {"report", "to_json"} & set(vars(obj)), key
