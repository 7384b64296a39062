"""The public surface: the names the benchmark tracer wraps and the names
``polymod.__all__`` exports must all resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import polymod

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    """The tracer module, loaded by path without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(monkeypatch):
    traced = load_tracer(monkeypatch).TRACED
    assert traced
    for layer, fname in traced:
        module = importlib.import_module(f"polymod.{layer}")
        assert callable(getattr(module, fname, None)), f"polymod.{layer}.{fname}"


def test_exported_names_resolve_once():
    names = polymod.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(polymod, name)]
    assert missing == []
