"""Each demo runs to completion against the package in src/ without writing
to stderr and prints the bytes of its golden stdout, and README's library
tour runs as written. `python tests/test_golden.py` rewrites the goldens."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_GOLDEN = ROOT / "tests" / "golden" / "demos"


def run_demo(demo):
    """The finished process of one demo run against the package in src/, its
    output as bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300)


def test_demos_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (DEMO_GOLDEN / f"{demo.stem}.stdout").read_bytes()


def test_readme_python_blocks_run_in_order():
    """README's python blocks are one session: each runs in the namespace the
    blocks before it left, so the tour stays in step with the API."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
