"""The public surface: the names the benchmark tracer wraps and the names
``polymod.__all__`` exports must all resolve, every exported name must have
a caller, and the README's library example must run."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import polymod

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def names_read_in_src():
    """Every name that some module of ``src/polymod`` reads, as a variable
    or as an attribute; a definition alone reads nothing."""
    read = set()
    for path in (ROOT / "src" / "polymod").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def readme_library():
    """The README's Library section, up to the next heading."""
    return (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_exported_name_has_a_caller(monkeypatch):
    """Each name of ``__all__`` is read in ``src/``, read by the benchmark
    (a traced function, or ``polymod.<name>`` in ``perfbench/run.py``), or
    named in the README's Library section."""
    bench = {fname for _, fname in load_tracer(monkeypatch).TRACED}
    bench |= set(re.findall(r"\bpolymod\.(\w+)", (ROOT / "perfbench" / "run.py").read_text()))
    called, library = names_read_in_src() | bench, readme_library()
    orphans = [n for n in polymod.__all__ if n not in called and not re.search(rf"\b{n}\b", library)]
    assert orphans == []


def test_the_readme_library_example_runs():
    block = re.search(r"```python\n(.*?)```", readme_library(), re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert max(map(abs, (a - b for a, b in zip(scope["back"], scope["theta"])))) < 1e-9
    assert scope["w"].imag > 0.0 and len(scope["sides"].lengths) == 5
    assert scope["comp"].num_cells == 60 and polymod.cusp_classes(scope["comp"])["classes"] == 10
