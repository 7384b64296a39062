"""The start-up contract: what each command loads.

``import polymod`` loads no layer, ``import polymod.cli`` loads no numpy,
and the commands that need no numeric layer finish without loading numpy.
No module loads ``dataclasses`` or ``inspect`` (record classes compile no
source), so neither does an import of the CLI or a ``complex`` report.
Every check runs in a fresh interpreter, since this test process has long
since loaded everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_surface import load_tracer

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``polymod.cli.main`` on argv and reports, after stdout, whether
# numpy was loaded by then.
_RUN_MAIN = """
import sys
from polymod.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def python(code: str, *args: str) -> str:
    """stdout of ``code`` run with ``args`` in a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import json\n" + code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_importing_the_cli_registers_every_traced_layer_without_numpy(monkeypatch):
    layers = sorted({f"polymod.{layer}" for layer, _ in load_tracer(monkeypatch).TRACED})
    out = python(
        "import sys, polymod.cli\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,"
        " 'missing': [m for m in sys.argv[1:] if m not in sys.modules]}))",
        *layers,
    )
    assert json.loads(out) == {"numpy": False, "missing": []}


#: What building classes with generated source would load (about 10 ms).
CODEGEN_MODULES = ["dataclasses", "inspect"]


def test_neither_import_nor_a_complex_report_loads_dataclasses_or_inspect():
    out = python(
        "import io, sys, contextlib\n"
        "import polymod.cli\n"
        "after_import = [m for m in sys.argv[1:] if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = polymod.cli.main(['complex', '--n', '6', '--report', 'cusps'])\n"
        "print(json.dumps({'code': code, 'after_import': after_import,\n"
        "                  'after_report': [m for m in sys.argv[1:] if m in sys.modules]}))",
        *CODEGEN_MODULES,
    )
    assert json.loads(out) == {"code": 0, "after_import": [], "after_report": []}


def module_level_imports(tree: ast.Module):
    """Modules a source file imports when it runs: every import outside a
    function body (class bodies and ``if``/``try`` blocks run too)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        todo.extend(ast.iter_child_nodes(node))


def test_no_module_imports_dataclasses_or_inspect_when_it_loads():
    files = sorted((SRC / "polymod").glob("*.py"))
    assert len(files) >= 12
    found = {
        path.name: name
        for path in files
        for name in module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in CODEGEN_MODULES
    }
    assert found == {}


EQUAL6_OFF = "0.9,0.9,0.9,1.2,1.2,1.1831853071795865"


@pytest.mark.parametrize(
    "argv, code, schema, error",
    [
        (["complex", "--n", "5", "--report", "euler"], 0, "polymod-complex/1", None),
        (["complex", "--n", "6", "--report", "cusps"], 0, "polymod-complex/1", None),
        (["complex", "--n", "6", "--report", "pairings"], 0, "polymod-complex/1", None),
        (
            ["complex", "--n", "6", "--report", "cusps", "--theta", EQUAL6_OFF],
            5, "polymod-error/1", "NotEqualWeight",
        ),
        (
            ["forward", "--n", "5", "--theta", "1,1,1,1.5,1.7831853071795865"],
            2, "polymod-error/1", "PairSumTooLarge",
        ),
        (["forward", "--n", "6", "--theta", "5x2pi/5"], 2, "polymod-error/1", "OutOfRange"),
        (["complex", "--n", "5", "--report", "singular"], 2, "polymod-error/1", "OutOfRange"),
        (["verify", "--suite", "all", "--n", "5", "--tol", "inf"], 2, "polymod-error/1", "OutOfRange"),
        (
            ["invert", "--n", "6", "--shape1", "1,1,1", "--shape2", "1,1,1", "--tol", "nan"],
            2, "polymod-error/1", "OutOfRange",
        ),
    ],
    ids=[
        "euler", "cusps", "pairings", "not-equal-weight", "pair-sum", "count-mismatch",
        "singular-n5", "verify-tol", "invert-tol",
    ],
)
def test_commands_without_numeric_work_never_load_numpy(argv, code, schema, error):
    doc_line, status_line = python(_RUN_MAIN, *argv).splitlines()
    doc = json.loads(doc_line)
    assert json.loads(status_line) == {"code": code, "numpy": False}
    assert doc["schema"] == schema
    assert doc.get("error") == error


def test_a_forward_map_loads_numpy():
    """The contrast case: the probe does see numpy when a command needs it."""
    _, status_line = python(_RUN_MAIN, "forward", "--n", "5", "--theta", "5x2pi/5").splitlines()
    assert json.loads(status_line) == {"code": 0, "numpy": True}


def test_star_import_binds_every_exported_name_and_dir_lists_them():
    out = python(
        "import sys, polymod\n"
        "layers = sorted(m for m in sys.modules if m.startswith('polymod.'))\n"
        "before = {m: type(sys.modules[m]).__name__ for m in layers}\n"
        "ns = {}\n"
        "exec('from polymod import *', ns)\n"
        "print(json.dumps({\n"
        "    'unloaded_before': sorted(m for m, kind in before.items() if kind == 'module'),\n"
        "    'unbound': [name for name in polymod.__all__ if name not in ns],\n"
        "    'not_in_dir': sorted(set(polymod.__all__) - set(dir(polymod))),\n"
        "}))"
    )
    assert json.loads(out) == {"unloaded_before": [], "unbound": [], "not_in_dir": []}


def test_numpy_values_serialize_as_before_when_numpy_loads_after_jsonio():
    """The bytes the serializer gave when it imported numpy itself."""
    out = python(
        "import sys\n"
        "from polymod.jsonio import csv_row, dumps_canonical\n"
        "plain = dumps_canonical({'a': [1, 2.5, None, True], 'b': 'x'})\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy as np\n"
        "values = [np.float32(0.1), np.float64(1 / 3), np.int64(-7),\n"
        "          np.array([[1.5, np.float32(2.25)], [3, 4]]), np.array([1, 2], dtype=np.int64),\n"
        "          {'a': np.array([0.1, 1e300]), 'b': [np.int64(2), np.float32(3.5)]}]\n"
        "row = csv_row([np.float32(0.1), np.float64(1 / 3), np.int64(-7),\n"
        "               np.array([1.5, 2.0]), 'x', 4, 2.5])\n"
        "print(json.dumps([plain, [dumps_canonical(v) for v in values], row]))"
    )
    plain, docs, row = json.loads(out)
    assert plain == '{"a":[1,2.5,null,true],"b":"x"}'
    assert docs == [
        "0.10000000149011612",
        "0.33333333333333331",
        "-7",
        "[[1.5,2.25],[3,4]]",
        "[1,2]",
        '{"a":[0.10000000000000001,1.0000000000000001e+300],"b":[2,3.5]}',
    ]
    assert row == "0.10000000149011612,0.33333333333333331,-7,[1.5 2. ],x,4,2.5"
