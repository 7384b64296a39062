"""The public surface: the names the benchmark tracer wraps and the names
``polymod.__all__`` exports must all resolve, every exported name must have
a caller, and the README's library example must run.  The tracer runs on
each command and changes none of its output, with its per-row counts on
``sweep``'s float rows."""

import ast
import importlib
import importlib.util
import json
import random
import re
import sys
from pathlib import Path

import pytest

import polymod

from fresh import fresh

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


def mixed_rows() -> str:
    """303 float-literal rows for n=5 with a pi-expression row at 50, 151
    and 252, the only rows ``sweep`` parses token by token."""
    rng, rows = random.Random(5), []
    for i in range(303):
        if i % 101 == 50:
            rows.append("2pi/5,2pi/5,2pi/5,2pi/5,2pi/5")
            continue
        w = [rng.uniform(0.8, 1.2) for _ in range(5)]
        rows.append(",".join(repr(6.283185307179586 * x / sum(w)) for x in w))
    return "\n".join(rows) + "\n"


EQUAL6_OFF = "0.9,0.9,0.9,1.2,1.2,1.1831853071795865"
#: id: (command line, the text of its ``{input}``, calls the spans record besides ``cli.main``).
TRACED_COMMANDS = {
    "verify": ("verify --suite all --n 5 --samples 5", "", {}),
    "cusps": ("complex --n 6 --report cusps", "", {}),
    "euler": ("complex --n 5 --report euler", "", {}),
    "singular": (f"complex --n 6 --report singular --theta {EQUAL6_OFF}", "", {}),
    "invert": ("invert --n 6 --shape1 1,1,1 --shape2 1,1,1", "", {}),
    "sweep5": (
        "sweep --n 5 --input {input} --out -",
        "2pi/5,2pi/5,2pi/5,2pi/5,2pi/5\n0.9,1.4,1.2,1.5,1.2831853071795865\nbad,1,1,1,1\n", {},
    ),
    "sweep6": (
        "sweep --n 6 --input {input} --out -",
        f"pi/3,pi/3,pi/3,pi/3,pi/3,pi/3\n{EQUAL6_OFF}\nbad,1,1,1,1,1\n", {},
    ),
    "mixed-sweep": (
        "sweep --n 5 --input {input} --out {out}",
        mixed_rows(), {"jsonio.parse_theta": 3, "jsonio.csv_row": 0},
    ),
}


@pytest.mark.parametrize("line, rows, calls", TRACED_COMMANDS.values(), ids=TRACED_COMMANDS)
def test_the_tracer_changes_no_output_and_counts_the_calls(tmp_path, line, rows, calls):
    """``perfbench/tracer.py`` and ``python -m polymod.cli``, each in a fresh
    process: the same exit code, stdout, stderr and ``{out}`` file."""
    source, spans = tmp_path / "rows.csv", tmp_path / "spans.json"
    source.write_text(rows, encoding="utf-8")

    def run(out, *command, **env):
        argv = [arg.format(input=source, out=out) for arg in line.split()]
        proc = fresh(*command, *argv, **env)
        written = out.read_bytes() if "{out}" in line else None
        return proc.returncode, proc.stdout, proc.stderr, written

    traced = run(tmp_path / "traced.csv", str(TRACER), PERFBENCH_SPANS=str(spans))
    assert traced == run(tmp_path / "plain.csv", "-m", "polymod.cli")
    functions = json.loads(spans.read_text(encoding="utf-8"))["functions"]
    calls = {"cli.main": 1, **calls}
    assert {name: functions.get(name, {"calls": 0})["calls"] for name in calls} == calls
