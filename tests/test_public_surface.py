"""The public surface: exports match definitions, and the traced benchmark resolves."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LIBRARY_MODULES = ["bounds", "threshold_solver", "constructions", "random_models", "arrow_checker"]
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _is_definition(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    mod = importlib.import_module(f"ramsey_lab.{name}")
    for export in mod.__all__:
        assert hasattr(mod, export), export
    exported = {e for e in mod.__all__ if _is_definition(getattr(mod, e))}
    defined = {
        attr for attr, obj in vars(mod).items()
        if not attr.startswith("_") and _is_definition(obj) and obj.__module__ == mod.__name__
    }
    assert exported == defined


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for mod_name, fn_name, _, _ in spans.TRACED:
        mod = importlib.import_module(f"ramsey_lab.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_no_public_function_takes_a_cap(name):
    """Caps are module constants, never keywords a caller could lift."""
    mod = importlib.import_module(f"ramsey_lab.{name}")
    for export in mod.__all__:
        obj = getattr(mod, export)
        if inspect.isclass(obj):
            functions = [f for f in vars(obj).values() if inspect.isfunction(f)]
        else:
            functions = [obj] if inspect.isfunction(obj) else []
        for fn in functions:
            capped = [p for p in inspect.signature(fn).parameters if p.endswith("_cap")]
            assert not capped, (name, fn.__qualname__, capped)
