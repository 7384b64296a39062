"""Commands in a fresh interpreter: what an import loads, a warning printed
once per process, or a traceback on stderr shows only there."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(*argv: str, stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    """``python *argv`` in a new interpreter on ``src`` with ``env`` added,
    writing no bytecode; stderr, and stdout unless it is given, captured as
    text."""
    return subprocess.run(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", **env),
    )
