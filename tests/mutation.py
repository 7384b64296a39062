"""Which gates does the test suite reach?  A mutation probe, outside the
test collection (pytest collects only ``test_*.py``).

Each site of a package is a gate written in one of four forms:

* a ``raise`` statement;
* a ``first_failures(...)``, ``unwrap(...)`` or ``fail_parallel(...)``
  statement;
* ``return E(...)``, E an error class, as an error builder returns its error;
* ``... = E(...)`` inside a loop, a row's error assigned.

One at a time, in a scratch copy of the repository, a return site becomes
``return None`` and any other site ``pass``, and the tests run there with
``-x``.  An error class is a builtin exception, a class of the package
derived from one, or a name ending in ``Error``.  A site whose mutant
still passes every test is a survivor: a path that no test reaches, a gate
that no input reaches, or a check shadowed by an earlier one.

    python tests/mutation.py [--root .] [--package src/polymod] [--jobs 2]

Prints each survivor as ``survived <file>:<line> <statement>``, each
mutant whose tests ran past ``_TIMEOUT`` as ``timeout <file>:<line>
<statement>``, and then a summary ``<sites> sites, <killed> killed,
<survived> survived, <timeout> timed out in <s> s``; exits 1 if any site
survived or timed out.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
#: Seconds one mutant's test run may take before it counts as ``timeout``.
_TIMEOUT = 600.0


#: The statements that record or raise a row's failure.
_GATE_CALLS = {"first_failures", "unwrap", "fail_parallel"}


def _name(node) -> str | None:
    """The called name of a call, or None."""
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None))


def error_classes(trees) -> set[str]:
    """The builtin exception names and the classes of the modules ``trees``
    derived from one, however deep."""
    names = {k for k, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    while grown := [c.name for c in classes if c.name not in names
                    and any(getattr(b, "id", getattr(b, "attr", None)) in names for b in c.bases)]:
        names.update(grown)
    return names


def sites(tree: ast.Module, errors: set[str]) -> list[ast.stmt]:
    """The statements of one module that the probe removes, in line order."""
    in_loop = {id(n) for loop in ast.walk(tree) if isinstance(loop, (ast.For, ast.While))
               for n in ast.walk(loop)}

    def is_error(node) -> bool:
        return _name(node) in errors or (_name(node) or "").endswith("Error")

    def is_site(node) -> bool:
        return (isinstance(node, ast.Raise)
                or isinstance(node, ast.Expr) and _name(node.value) in _GATE_CALLS
                or isinstance(node, ast.Return) and is_error(node.value)
                or isinstance(node, ast.Assign) and id(node) in in_loop and is_error(node.value))

    return sorted((n for n in ast.walk(tree) if is_site(n)), key=lambda n: n.lineno)


def mutant(source: str, node: ast.stmt) -> str:
    """``source`` with the statement ``node`` replaced by ``return None``
    (a return) or ``pass``; blank lines keep every later line number."""
    lines = source.splitlines(keepends=True)
    first, last = lines[node.lineno - 1], lines[node.end_lineno - 1]
    body = "return None" if isinstance(node, ast.Return) else "pass"
    kept = first[: node.col_offset] + body + last[node.end_col_offset :]
    return "".join(lines[: node.lineno - 1] + [kept] + ["\n"] * (node.end_lineno - node.lineno)
                   + lines[node.end_lineno :])


def run(copy: Path, package: str) -> str:
    """``killed``, ``survived`` or ``timeout``: the tests in ``copy``, with
    the package's parent on the path and no bytecode or example database
    carried over.  A run past ``_TIMEOUT`` may be a hang or a slow machine,
    so it is neither a kill nor a survivor."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / Path(package).parent), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=copy, env=env, timeout=_TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--package", default="src/polymod", help="relative to --root")
    parser.add_argument("--jobs", type=int, default=2, help="scratch copies run in parallel")
    args = parser.parse_args(argv)
    root, jobs, start = args.root.resolve(), max(1, args.jobs), time.monotonic()
    # the sources are read once, so an edit during the run changes no mutant
    files = sorted((root / args.package).glob("*.py"))
    sources = {path.relative_to(root): path.read_text() for path in files}
    trees = {rel: ast.parse(source) for rel, source in sources.items()}
    errors = error_classes(trees.values())
    todo = [(rel, node) for rel, tree in trees.items() for node in sites(tree, errors)]
    copies = queue.Queue()  # one scratch copy per worker, lent out per mutant

    def check(site) -> str:
        rel, node = site
        copy, source = copies.get(), sources[rel]
        try:
            (copy / rel).write_text(mutant(source, node))
            return run(copy, args.package)
        finally:
            (copy / rel).write_text(source)
            copies.put(copy)

    with tempfile.TemporaryDirectory() as scratch:
        for k in range(jobs):
            shutil.copytree(root, Path(scratch) / str(k), ignore=_SKIP)
            copies.put(Path(scratch) / str(k))
        with ThreadPoolExecutor(jobs) as pool:
            outcomes = list(pool.map(check, todo))
    for (rel, node), outcome in zip(todo, outcomes):
        if outcome != "killed":
            print(f"{outcome} {rel}:{node.lineno} {ast.unparse(node).splitlines()[0]}")
    counts = {outcome: outcomes.count(outcome) for outcome in ("killed", "survived", "timeout")}
    seconds = time.monotonic() - start
    print(f"{len(todo)} sites, {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['timeout']} timed out in {seconds:.0f} s")
    return 0 if counts["killed"] == len(todo) else 1


if __name__ == "__main__":
    sys.exit(main())
