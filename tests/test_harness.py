"""The test run itself: under the repository's pytest settings, which turn
every warning into an error, a failing property test still fails as a
test and prints its falsifying example; and the mutation probe,
``tests/mutation.py``, tells a gate that a test reaches from one that none
does."""

from fresh import SRC, fresh

PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 10
"""


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    config = SRC.parent / "pyproject.toml"
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path)]
    proc = fresh(*args, str(tmp_path / "test_planted.py"), cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


PACKAGE = """
class PlantedError(ValueError):
    pass


def unwrap(row):
    if isinstance(row, PlantedError):
        raise row
    return row


def half(x):
    if x % 2:
        raise ValueError("odd")
    return x // 2


def third(x):
    if x % 3:
        raise ValueError("not a multiple of 3")
    return x // 3


def _odd(x):
    if x % 2:
        return PlantedError(f"{x} is odd")
    return None


def strict_half(x):
    unwrap(_odd(x))
    return x // 2


def halves(xs):
    out = []
    for x in xs:
        value = x // 2
        if x % 2:
            value = PlantedError("odd")
        out.append(value)
    return out
"""

PACKAGE_TESTS = """
import pytest

from planted import PlantedError, half, halves, strict_half, third


def test_half():
    assert half(4) == 2
    with pytest.raises(ValueError):
        half(3)


def test_third():
    assert third(9) == 3


def test_strict_half():
    assert strict_half(4) == 2
    with pytest.raises(PlantedError):
        strict_half(3)


def test_halves():
    assert [isinstance(v, PlantedError) for v in halves([2, 3])] == [False, True]
"""


def test_the_mutation_probe_kills_a_tested_gate_and_reports_an_untested_one(tmp_path):
    """Six sites, one of each form: a raise (three), an ``unwrap`` statement,
    an error builder's return and a row error assigned in a loop.  The
    tests reach all but the raise in ``third``."""
    (tmp_path / "src" / "planted").mkdir(parents=True)
    (tmp_path / "src" / "planted" / "__init__.py").write_text(PACKAGE, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text(PACKAGE_TESTS, encoding="utf-8")
    probe = SRC.parent / "tests" / "mutation.py"
    proc = fresh(str(probe), "--root", str(tmp_path), "--package", "src/planted", "--jobs", "1")
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert lines[0] == "survived src/planted/__init__.py:20 raise ValueError('not a multiple of 3')"
    assert lines[1].startswith("6 sites, 5 killed, 1 survived, 0 timed out in ") and len(lines) == 2
