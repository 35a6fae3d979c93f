"""Smoke tests: the runnable examples must stay runnable.

Each example executes in a subprocess with the repo's interpreter, and
its module body (its imports) also runs in-process.
"""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "diagnose_slow_transfer.py",
    "peer_group_blocking.py",
    "pcap_workflow.py",
    "survey_delay_factors.py",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{name} produced no output"


@pytest.mark.parametrize(
    "name", sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
)
def test_example_imports(name):
    namespace = runpy.run_path(str(EXAMPLES_DIR / name), run_name="example")
    assert callable(namespace["main"])


def test_examples_inventory():
    """Every example file is smoke-tested."""
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert present == set(FAST_EXAMPLES)
