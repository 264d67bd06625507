"""The repository's pytest settings keep a failing test an ordinary failure,
make a misspelt marker or settings key an error, and fail an xfail-marked
test that passes."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


MISSPELT_MARKER = """
import pytest


@pytest.mark.slwo
def test_marked():
    pass
"""


PASSING_XFAIL = """
import pytest


@pytest.mark.xfail(reason="expected to fail, but passes")
def test_marked():
    pass
"""


def run_probe(tmp_path, source, config=PYPROJECT):
    """pytest under the repository's settings (or config) on one probe file in tmp_path."""
    (tmp_path / "test_probe.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_property_test_fails_without_stopping_the_session(tmp_path):
    """filterwarnings = error must not turn the DeprecationWarning that
    hypothesis's failure report raises (it imports libcst, which reaches
    mypy_extensions.TypedDict) into an INTERNALERROR, exit 3, that stops
    every later test."""
    done = run_probe(tmp_path, PROBE)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_unregistered_marker_fails(tmp_path):
    """strict_markers turns a marker missing from the markers list, here a
    misspelt slow, into a collection error instead of a silent no-op."""
    done = run_probe(tmp_path, MISSPELT_MARKER)
    assert done.returncode == 2, done.stdout + done.stderr  # interrupted by the error
    assert "'slwo' not found in `markers` configuration option" in done.stdout


def test_unknown_settings_key_fails(tmp_path):
    """strict_config turns a key pytest does not know, here a misspelt
    filterwarnings, into a usage error instead of a warning."""
    config = tmp_path / "pyproject.toml"
    config.write_text(PYPROJECT.read_text().replace(
        "[tool.pytest.ini_options]\n", "[tool.pytest.ini_options]\nfilterwarning = []\n"))
    done = run_probe(tmp_path, "def test_passes():\n    pass\n", config)
    assert done.returncode == 4, done.stdout + done.stderr  # usage error
    assert "Unknown config option: filterwarning" in done.stdout + done.stderr


def test_passing_xfail_test_fails_the_run(tmp_path):
    """xfail_strict reports an xfail-marked test that passes as XPASS(strict),
    a failure, instead of an XPASS that leaves the run green."""
    done = run_probe(tmp_path, PASSING_XFAIL)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout and "XPASS(strict)" in done.stdout
