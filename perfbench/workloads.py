"""The fluxfem command lines each benchmark workload runs, and the checks on their output.

An op is one call of `fluxfem.cli.main(argv)` with stdout and stderr
captured. It fails on a nonzero exit code, an exception, or any output
check below that does not hold; outputs are never skipped.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("converge-nitsche", "converge-lagrange", "dual")

# Every float of a converge CSV must match the reference to this relative
# tolerance. It allows the last printed digits to move (a new ordering or
# elimination order rounds differently) and nothing that changes a result.
CSV_REL_TOL = 1e-6
CSV_FLOAT_COLUMNS = ("h_grid", "h_max", "flux_err", "energy_err", "l2_err")
# The slope is printed with 4 decimals.
SLOPE_ABS_TOL = 2e-4
SLOPE_WINDOW_H = 0.1
SLOPE_LINE = re.compile(r"fitted flux slope \(h_grid <= 0\.1\): (\S+)")

FULL_KMAX = 12
SMOKE_KMAX = 6

# A +-1 field on the boundary of the unit square (length 4) has |psi|^2 = 4.
PSI_NORM_SQ = 4.0
PSI_NORM_REL_TOL = 1e-9
IDENTITY_TOL = 1e-6
DUAL_LEVELS = (8, 16, 32, 64)
IDENTITY_LEVELS = (8, 16, 32)
DUAL_HEADER = "method,kappa,n,h_grid,psi_norm_sq,Q1,Q2,Q3,Q4,Q5,ratio_sum"
IDENTITY_HEADER = "method,n,identity_residual"
# (method, kappa, extra flags). Every saddle system here is at alpha = 0.25,
# where the multiplier block gives exactly n_multiplier negative pivots.
DUAL_CONFIGS = (
    ("nitsche", 0.0, ()),
    ("nitsche", 10.0, ("--kappa", "10")),
    ("lagrange", 0.0, ("--alpha", "0.25")),
)
DUAL_SEEDS_PER_PASS = 4


@dataclass(frozen=True)
class Op:
    """One fluxfem command line and the check of what it printed."""

    argv: tuple[str, ...]
    check: Callable[[int, str, str], list[str]]


@dataclass(frozen=True)
class OpOutcome:
    argv: tuple[str, ...]
    problems: list[str]


def import_fluxfem(root: Path):
    """Import `fluxfem.cli` from `root/src`, refusing any other copy."""
    package = root / "src" / "fluxfem"
    if not (package / "cli.py").is_file():
        raise FileNotFoundError(f"no fluxfem sources at {package}")
    sys.path.insert(0, str(root / "src"))
    import fluxfem.cli

    if Path(fluxfem.cli.__file__).resolve().parent != package.resolve():
        raise ImportError(f"fluxfem was imported from {fluxfem.cli.__file__}, not {package}")
    return fluxfem.cli


def call(cli, argv) -> tuple[int, str, str]:
    """Run `cli.main(argv)` with its output captured; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_ops(cli, ops) -> list[tuple[int, str, str] | str]:
    """Run each op; an exception ends only its op and is kept as that op's result."""
    results = []
    for op in ops:
        try:
            results.append(call(cli, op.argv))
        except Exception as exc:  # an op boundary: record the failure and go on
            results.append(f"raised {type(exc).__name__}: {exc}")
    return results


def check_results(ops, results) -> list[OpOutcome]:
    outcomes = []
    for op, result in zip(ops, results):
        problems = [result] if isinstance(result, str) else op.check(*result)
        outcomes.append(OpOutcome(op.argv, problems))
    return outcomes


def _exit_problems(code: int, err: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if err:
        problems.append(f"stderr: {err.strip()[:300]}")
    return problems


# -- patch-test (warm-up) ----------------------------------------------------------


def check_patch_test(code: int, out: str, err: str) -> list[str]:
    problems = _exit_problems(code, err)
    if out != "patch tests passed\n":
        problems.append(f"patch-test printed {out[:300]!r}")
    return problems


def warm_up_ops() -> list[Op]:
    return [
        Op(("patch-test", "--method", method), check_patch_test)
        for method in ("nitsche", "lagrange")
    ]


# -- converge -------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergeReference:
    header: str
    rows: list[list[str]]


def load_reference(workload: str) -> ConvergeReference:
    lines = (REFERENCE_DIR / f"{workload}.out").read_text(encoding="utf-8").splitlines()
    csv = [line for line in lines if not SLOPE_LINE.fullmatch(line)]
    return ConvergeReference(header=csv[0], rows=[line.split(",") for line in csv[1:]])


def expected_slope(header: str, rows: list[list[str]]) -> float | None:
    """Least-squares slope of log(flux_err) on log(h_grid) over h_grid <= 0.1."""
    columns = header.split(",")
    h = np.array([float(r[columns.index("h_grid")]) for r in rows])
    e = np.array([float(r[columns.index("flux_err")]) for r in rows])
    window = h <= SLOPE_WINDOW_H
    if window.sum() < 3:
        return None
    return float(np.polyfit(np.log(h[window]), np.log(e[window]), 1)[0])


def _float_mismatch(got: str, want: str) -> bool:
    try:
        value = float(got)
    except ValueError:
        return True
    return not (math.isfinite(value) and abs(value - float(want)) <= CSV_REL_TOL * abs(float(want)))


def check_converge(reference: ConvergeReference, kmax: int, code: int, out: str, err: str) -> list[str]:
    problems = _exit_problems(code, err)
    columns = reference.header.split(",")
    want_rows = [row for row in reference.rows if int(row[0]) <= kmax]
    lines = out.splitlines()
    csv, rest = lines[: 1 + len(want_rows)], lines[1 + len(want_rows) :]
    if csv[:1] != [reference.header]:
        problems.append(f"CSV header {csv[:1]!r}")
    if len(csv) != 1 + len(want_rows):
        problems.append(f"{len(csv) - 1} CSV rows, want {len(want_rows)}")
    for line, want in zip(csv[1:], want_rows):
        got = line.split(",")
        if len(got) != len(columns):
            problems.append(f"row {line!r} has {len(got)} fields")
            continue
        for name, g, w in zip(columns, got, want):
            bad = _float_mismatch(g, w) if name in CSV_FLOAT_COLUMNS else g != w
            if bad:
                problems.append(f"k={want[0]} {name}: {g} against reference {w}")

    slope = expected_slope(reference.header, want_rows)
    if slope is None:
        if rest:
            problems.append(f"unexpected lines after the CSV: {rest!r}")
    else:
        match = SLOPE_LINE.fullmatch(rest[0]) if len(rest) == 1 else None
        if match is None:
            problems.append(f"slope line missing or malformed: {rest!r}")
        elif not (_finite(match.group(1)) and abs(float(match.group(1)) - slope) <= SLOPE_ABS_TOL):
            problems.append(f"fitted slope {match.group(1)}, want {slope:.4f}")
    return problems


def converge_op(workload: str, flags: tuple[str, ...], kmax: int) -> Op:
    argv = ("converge", *flags, "--kmin", "0", "--kmax", str(kmax))
    return Op(argv, partial(check_converge, load_reference(workload), kmax))


# -- dual-check -----------------------------------------------------------------------


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_dual(method: str, kappa: float, code: int, out: str, err: str) -> list[str]:
    problems = _exit_problems(code, err)
    blocks = out.rstrip("\n").split("\n\n")
    if len(blocks) != 2:
        return problems + [f"expected 2 tables, got {len(blocks)}"]
    stability, identity = (block.splitlines() for block in blocks)

    if stability[:1] != [DUAL_HEADER] or len(stability) != 1 + len(DUAL_LEVELS):
        problems.append(f"stability table malformed: {stability[:2]!r}")
    for line, n in zip(stability[1:], DUAL_LEVELS):
        f = line.split(",")
        if len(f) != 11 or f[0] != method or f[2] != str(n) or not _finite(f[1]) or float(f[1]) != kappa:
            problems.append(f"stability row {line!r}")
            continue
        if not (_finite(f[4]) and abs(float(f[4]) - PSI_NORM_SQ) <= PSI_NORM_REL_TOL * PSI_NORM_SQ):
            problems.append(f"n={n}: psi_norm_sq {f[4]}, want 4")
        q5_ok = _finite(f[9]) if method == "lagrange" else f[9] == ""
        if not (all(_finite(r) for r in f[5:9] + f[10:]) and q5_ok):
            problems.append(f"n={n}: ratio columns {f[5:]!r}")

    if identity[:1] != [IDENTITY_HEADER] or len(identity) != 1 + len(IDENTITY_LEVELS):
        problems.append(f"identity table malformed: {identity[:2]!r}")
    for line, n in zip(identity[1:], IDENTITY_LEVELS):
        f = line.split(",")
        if len(f) != 3 or f[0] != method or f[1] != str(n) or not _finite(f[2]):
            problems.append(f"identity row {line!r}")
        elif not float(f[2]) <= IDENTITY_TOL:
            problems.append(f"n={n}: identity residual {f[2]} exceeds {IDENTITY_TOL}")
    return problems


def dual_ops(seed: int, seeds_per_pass: int) -> list[Op]:
    """dual-check for each config over the consecutive seeds seed, seed + 1, ..."""
    return [
        Op(
            ("dual-check", "--method", method, *flags, "--seed", str(s)),
            partial(check_dual, method, kappa),
        )
        for s in range(seed, seed + seeds_per_pass)
        for method, kappa, flags in DUAL_CONFIGS
    ]


def pass_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The ops of one timed pass. `smoke` runs the same commands at reduced size."""
    kmax = SMOKE_KMAX if smoke else FULL_KMAX
    if workload == "converge-nitsche":
        return [converge_op(workload, ("--method", "nitsche", "--flux-variant", "variational"), kmax)]
    if workload == "converge-lagrange":
        return [converge_op(workload, ("--method", "lagrange", "--alpha", "0.25"), kmax)]
    if workload == "dual":
        return dual_ops(seed, 1 if smoke else DUAL_SEEDS_PER_PASS)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
