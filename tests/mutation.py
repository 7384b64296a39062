"""Which gates does the test suite reach?  A mutation probe, outside the
test collection (pytest collects only ``test_*.py``).

Each site of a package, a ``raise`` statement or a ``first_failures(...)``
statement, is replaced with ``pass``, one at a time, in a scratch copy of
the repository, and the tests run there with ``-x``.  A site whose mutant
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


def sites(path: Path) -> list[ast.stmt]:
    """The statements of one module that the probe removes, in line order."""

    def is_site(node):
        if isinstance(node, ast.Raise):
            return True
        call = node.value if isinstance(node, ast.Expr) else None
        func = call.func if isinstance(call, ast.Call) else None
        return getattr(func, "id", getattr(func, "attr", None)) == "first_failures"

    return sorted((n for n in ast.walk(ast.parse(path.read_text())) if is_site(n)), key=lambda n: n.lineno)


def mutant(source: str, node: ast.stmt) -> str:
    """``source`` with the statement ``node`` replaced by ``pass``; blank
    lines keep every later line number."""
    lines = source.splitlines(keepends=True)
    first, last = lines[node.lineno - 1], lines[node.end_lineno - 1]
    kept = first[: node.col_offset] + "pass" + last[node.end_col_offset :]
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
    todo = [(path.relative_to(root), node) for path in sorted((root / args.package).glob("*.py"))
            for node in sites(path)]
    copies = queue.Queue()  # one scratch copy per worker, lent out per mutant

    def check(site) -> str:
        rel, node = site
        copy, source = copies.get(), (root / rel).read_text()
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
