"""Smoke tests: every bundled example runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path):
    completed = subprocess.run([sys.executable, str(path)],
                               capture_output=True, text=True,
                               timeout=600)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "streaming_pagerank", "online_svm",
            "fault_tolerance_demo"} <= names
