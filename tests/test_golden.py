"""Golden-bytes regression: fixed CLI runs must reproduce committed output.

Each case runs `fluxfem.cli.main` in-process and compares its stdout,
stderr and exit code exactly with the files under `tests/golden/`
(`<case>.stdout`, `<case>.stderr`, and `exit_codes.json`). A refactor
must keep every byte. A change that alters output on purpose
regenerates the files in the same change, with

    PYTHONPATH=src python tests/test_golden.py

and records the largest relative change of any printed number in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fluxfem.cli import main

GOLDEN = Path(__file__).with_name("golden")
EXIT_CODES = GOLDEN / "exit_codes.json"

CONVERGE = ["converge", "--kmin", "0", "--kmax", "8"]
CASES = {
    "converge-nitsche-pointwise": [*CONVERGE, "--method", "nitsche", "--flux-variant", "pointwise"],
    "converge-nitsche-variational": [*CONVERGE, "--method", "nitsche", "--flux-variant", "variational"],
    "converge-lagrange": [*CONVERGE, "--method", "lagrange", "--alpha", "0.25"],
    "dual-check-nitsche": ["dual-check", "--method", "nitsche", "--seed", "0"],
    "dual-check-nitsche-kappa10": ["dual-check", "--method", "nitsche", "--kappa", "10", "--seed", "0"],
    "dual-check-lagrange": ["dual-check", "--method", "lagrange", "--alpha", "0.25", "--seed", "0"],
    "patch-test-nitsche": ["patch-test", "--method", "nitsche"],
    "patch-test-lagrange": ["patch-test", "--method", "lagrange"],
}


def run_case(argv):
    """(stdout bytes, stderr bytes, exit code) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue().encode(), err.getvalue().encode(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    stdout, stderr, code = run_case(CASES[name])
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert stderr == (GOLDEN / f"{name}.stderr").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        stdout, stderr, codes[name] = run_case(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        (GOLDEN / f"{name}.stderr").write_bytes(stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
