"""The test run itself: under the repository's pytest settings, which turn
every warning into an error, a failing property test still fails as a
test and prints its falsifying example."""

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
