"""Golden-bytes regression: fixed CLI runs must reproduce committed output.

Each case runs `fluxfem.cli.main` in-process and compares its stdout,
stderr and exit code exactly with the files under `tests/golden/`
(`<case>.stdout`, `<case>.stderr`, and `exit_codes.json`). A refactor
must keep every byte. A change that alters output on purpose
regenerates the files in the same change, with

    PYTHONPATH=src python tests/test_golden.py

and records the largest relative change of any printed number in
CHANGES.md. The files are bit-exact only on the numpy and scipy of
GOLDEN_VERSIONS, which `.github/workflows/tier1.yml` pins; `regenerate`
refuses to run on any other.

The same command writes `matrix_fingerprints.json`: the sha256 of the
CSR arrays (`indptr`, `indices`, `data` and their dtypes) of each
assembled operator on the grids n = 1..32 and 64. SciPy sums duplicate
COO entries in an order set by the order of the entries, so the last
bits of a matrix, and the minimum-degree ordering after them, pin the
layout of every scatter. It also writes `load_fingerprints.json`: the
sha256 of the load vector of the trig problem (at both volume degrees)
and of each config's dual data of its g, on the same grids, which pins
the order of every product and sum in the vector kernels. And it writes
`error_norm_fingerprints.json`: `float.hex` of the (energy, L2) error
norms of the trig problem, without and with multipliers, for seeded
coefficients on the same grids, which pins every bit of the blocked
volume sums in `error_norms`. Last, it writes `dual_fingerprints.json`:
`float.hex` of every `StabilityReport` field at n = 8..64 and of each
identity defect at n = 8..32, the levels of `dual-check`, for its seeded
boundary data, which pins every bit of the dual-check paths behind the
12 printed digits. It writes `scan_fingerprints.json`: `float.hex` of both
suprema of `interp_error_scan` for the trig problem at n = 8..64 and
delta_0 = 0.25 and 0.4999, which pins every bit of the point evaluation
behind the 4 digits that demo 05 prints. And it writes each demo's stdout to
`demos/<demo>.stdout`, which `test_demos` compares byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from fluxfem.analysis import (
    dual_stability_report,
    error_norms,
    error_representation_residuals,
    interp_error_scan,
    rademacher_boundary_field,
)
from fluxfem.cli import main
from fluxfem.fem import P1Space, load_vector, mass_matrix, nodal_interpolant, stiffness_matrix
from fluxfem.lagrange import SaddleConfig
from fluxfem.mesh import build_unit_square_mesh
from fluxfem.nitsche import NitscheConfig
from fluxfem.problems import trig_problem
from test_demos import DEMO_GOLDEN, DEMOS, run_demo

# the goldens depend on numpy's einsum loop order and on scipy's SuperLU layout
GOLDEN_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
ROADMAP = Path(__file__).resolve().parents[1] / "ROADMAP.md"
GOLDEN = Path(__file__).with_name("golden")
EXIT_CODES = GOLDEN / "exit_codes.json"
MATRIX_FINGERPRINTS = GOLDEN / "matrix_fingerprints.json"
LOAD_FINGERPRINTS = GOLDEN / "load_fingerprints.json"
ERROR_NORM_FINGERPRINTS = GOLDEN / "error_norm_fingerprints.json"
DUAL_FINGERPRINTS = GOLDEN / "dual_fingerprints.json"
SCAN_FINGERPRINTS = GOLDEN / "scan_fingerprints.json"

CONVERGE = ["converge", "--kmin", "0", "--kmax", "8"]
# k = 12 (n = 256) pins the bytes of the largest default level
CONVERGE_K12 = ["converge", "--kmin", "12", "--kmax", "12"]
CASES = {
    "converge-nitsche-pointwise": [*CONVERGE, "--method", "nitsche", "--flux-variant", "pointwise"],
    "converge-nitsche-variational": [*CONVERGE, "--method", "nitsche", "--flux-variant", "variational"],
    "converge-lagrange": [*CONVERGE, "--method", "lagrange", "--alpha", "0.25"],
    "converge-k12-nitsche-pointwise": [*CONVERGE_K12, "--method", "nitsche", "--flux-variant", "pointwise"],
    "converge-k12-nitsche-variational": [*CONVERGE_K12, "--method", "nitsche", "--flux-variant", "variational"],
    "converge-k12-lagrange": [*CONVERGE_K12, "--method", "lagrange", "--alpha", "0.25"],
    "dual-check-nitsche": ["dual-check", "--method", "nitsche", "--seed", "0"],
    "dual-check-nitsche-kappa10": ["dual-check", "--method", "nitsche", "--kappa", "10", "--seed", "0"],
    "dual-check-lagrange": ["dual-check", "--method", "lagrange", "--alpha", "0.25", "--seed", "0"],
    "dual-check-lagrange-kappa10": [
        "dual-check", "--method", "lagrange", "--alpha", "0.25", "--kappa", "10", "--seed", "0"
    ],
    "dual-check-nitsche-delta0": ["dual-check", "--delta0", "0.125", "--seed", "0"],
    "dual-check-nitsche-seed3": ["dual-check", "--method", "nitsche", "--seed", "3"],
    # delta0 = 0.45 puts contours near the inradius, where grid and diagonal cuts crowd together
    "dual-check-lagrange-delta0-045-seed5": [
        "dual-check", "--method", "lagrange", "--alpha", "0.25", "--delta0", "0.45", "--seed", "5"
    ],
    # alpha = 10 is outside the stable range: the spread gate fails (exit 1)
    "dual-check-lagrange-alpha10-seed3": ["dual-check", "--method", "lagrange", "--alpha", "10", "--seed", "3"],
    # delta0 = 0.4999 crowds the contours at the inradius, where the last ones are shortest
    "dual-check-nitsche-delta0-04999-seed7": [
        "dual-check", "--method", "nitsche", "--delta0", "0.4999", "--seed", "7"
    ],
    # a shifted saddle problem with a small alpha, so Q5 is large
    "dual-check-lagrange-alpha01-kappa10-seed11": [
        "dual-check", "--method", "lagrange", "--alpha", "0.1", "--kappa", "10", "--seed", "11"
    ],
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


# the saddle matrices at (n, alpha, kappa) = (2, 0.1, 10) and (5, 0.5, 10)
# change bits when the facet blocks are scattered as one 4x4 block
FINGERPRINT_SIZES = [*range(1, 33), 64]
NITSCHE_CONFIGS = [NitscheConfig(beta, kappa) for beta in (1.0, 10.0) for kappa in (0.0, 10.0)]
SADDLE_CONFIGS = [SaddleConfig(alpha, kappa) for alpha in (0.1, 0.25, 0.5, 10.0) for kappa in (0.0, 10.0)]


def fingerprint(*arrays) -> str:
    """sha256 of the arrays, each with its dtype."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def matrix_fingerprint(matrix) -> str:
    """sha256 of a CSR matrix's indptr, indices and data, each with its dtype."""
    return fingerprint(matrix.indptr, matrix.indices, matrix.data)


def matrix_fingerprints():
    """{operator and grid: fingerprint} of every pinned assembled matrix."""
    prints = {}
    for n in FINGERPRINT_SIZES:
        space = P1Space(build_unit_square_mesh(n))
        prints[f"stiffness n={n}"] = matrix_fingerprint(stiffness_matrix(space))
        prints[f"mass n={n}"] = matrix_fingerprint(mass_matrix(space))
        for cfg in NITSCHE_CONFIGS + SADDLE_CONFIGS:
            prints[f"{cfg!r} n={n}"] = matrix_fingerprint(cfg.matrix(space))
    return prints


def load_fingerprints():
    """{vector and grid: fingerprint} of every pinned load vector and dual data."""
    trig = trig_problem()
    prints = {}
    for n in FINGERPRINT_SIZES:
        space = P1Space(build_unit_square_mesh(n))
        for degree in (4, 6):
            prints[f"load degree={degree} n={n}"] = fingerprint(load_vector(space, trig.f, degree))
        for cfg in NITSCHE_CONFIGS + SADDLE_CONFIGS:
            prints[f"{cfg!r} dual_data n={n}"] = fingerprint(cfg.dual_data(space, trig.g))
    return prints


def error_norm_fingerprints():
    """{norm and grid: [float.hex(energy), float.hex(L2)]} of the error norms of
    a perturbed interpolant of the trig solution, without multipliers (Nitsche's
    norm) and with seeded ones (the saddle norm)."""
    trig = trig_problem()
    prints = {}
    for n in FINGERPRINT_SIZES:
        space = P1Space(build_unit_square_mesh(n))
        rng = np.random.default_rng(n)
        u = nodal_interpolant(trig.u, space) + 1e-3 * rng.standard_normal(space.n_dofs)
        lam = rng.standard_normal(space.mesh.n_facets)
        prints[f"nitsche n={n}"] = [norm.hex() for norm in error_norms(trig, space, u)]
        prints[f"saddle n={n}"] = [norm.hex() for norm in error_norms(trig, space, u, lam)]
    return prints


DUAL_CONFIGS = [NitscheConfig(), NitscheConfig(kappa=10.0), SaddleConfig(), SaddleConfig(kappa=10.0)]
DUAL_SEEDS = (0, 3)


def dual_fingerprints():
    """{quantity, config, seed and grid: float.hex} of the stability reports
    at n = 8..64 (int fields as they are, a missing q5 as None) and of the
    five identity defects at n = 8..32, the latter for the unshifted configs
    only, with the boundary data `dual-check` draws."""
    trig = trig_problem()
    prints = {}
    for n in (8, 16, 32, 64):
        space = P1Space(build_unit_square_mesh(n))
        for cfg in DUAL_CONFIGS:
            for seed in DUAL_SEEDS:
                psi = rademacher_boundary_field(space.mesh, seed)
                report = dual_stability_report(space, cfg, psi)
                prints[f"stability {cfg!r} seed={seed} n={n}"] = {
                    name: value.hex() if isinstance(value, float) else value
                    for name, value in vars(report).items()
                }
                if cfg.kappa == 0.0 and n <= 32:
                    psis = [rademacher_boundary_field(space.mesh, seed + s) for s in range(5)]
                    defects = error_representation_residuals(trig, space, cfg, psis)
                    prints[f"identity {cfg!r} seed={seed} n={n}"] = [d.hex() for d in defects]
    return prints


def scan_fingerprints():
    """{grid and delta_0: [float.hex(sup value error), float.hex(sup gradient
    error)]} of the interpolation-error scan of the trig problem."""
    trig = trig_problem()
    prints = {}
    for n in (8, 16, 32, 64):
        space = P1Space(build_unit_square_mesh(n))
        for delta_0 in (0.25, 0.4999):
            scan = interp_error_scan(trig, space, delta_0)
            prints[f"scan n={n} delta_0={delta_0}"] = [scan.sup_value_error.hex(), scan.sup_gradient_error.hex()]
    return prints


def _mismatches(path, prints):
    golden = json.loads(path.read_text())
    assert sorted(prints) == sorted(golden)
    return [name for name in golden if prints[name] != golden[name]]


def test_assembled_matrices_match_golden_fingerprints():
    assert _mismatches(MATRIX_FINGERPRINTS, matrix_fingerprints()) == []


def test_load_vectors_and_dual_data_match_golden_fingerprints():
    assert _mismatches(LOAD_FINGERPRINTS, load_fingerprints()) == []


def test_error_norms_match_golden_fingerprints():
    assert _mismatches(ERROR_NORM_FINGERPRINTS, error_norm_fingerprints()) == []


def test_dual_check_quantities_match_golden_fingerprints():
    assert _mismatches(DUAL_FINGERPRINTS, dual_fingerprints()) == []


def test_interp_scan_suprema_match_golden_fingerprints():
    assert _mismatches(SCAN_FINGERPRINTS, scan_fingerprints()) == []


def test_workflow_pins_the_golden_versions():
    pins = dict(re.findall(r"\b(numpy|scipy)==(\S+)", WORKFLOW.read_text()))
    assert pins == GOLDEN_VERSIONS


def test_workflow_runs_the_roadmap_tier1_command():
    """The workflow's pytest step and ROADMAP.md's tier-1 line are one command,
    and the job stops long before GitHub's 6-hour default."""
    workflow = WORKFLOW.read_text()
    (verify,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", ROADMAP.read_text(), re.M)
    assert re.findall(r"^ +run: (.*-m pytest.*)$", workflow, re.M) == [verify]
    assert re.findall(r"^ +timeout-minutes: (\d+)$", workflow, re.M) == ["20"]


def test_regenerate_refuses_other_versions(monkeypatch):
    monkeypatch.setitem(globals(), "GOLDEN_VERSIONS", {"numpy": "1.0.0", "scipy": "0.1.0"})
    # were the versions not checked, nothing would be written: the first table fails
    monkeypatch.setitem(globals(), "matrix_fingerprints", lambda: pytest.fail("regenerate ran"))
    with pytest.raises(RuntimeError, match=r"numpy 1\.0\.0 and scipy 0\.1\.0"):
        regenerate()


def regenerate():
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    if running != GOLDEN_VERSIONS:
        raise RuntimeError(
            f"the goldens are pinned to numpy {GOLDEN_VERSIONS['numpy']} and scipy "
            f"{GOLDEN_VERSIONS['scipy']}; this is numpy {running['numpy']} and scipy {running['scipy']}"
        )
    GOLDEN.mkdir(exist_ok=True)
    MATRIX_FINGERPRINTS.write_text(json.dumps(matrix_fingerprints(), indent=2) + "\n")
    LOAD_FINGERPRINTS.write_text(json.dumps(load_fingerprints(), indent=2) + "\n")
    ERROR_NORM_FINGERPRINTS.write_text(json.dumps(error_norm_fingerprints(), indent=2) + "\n")
    DUAL_FINGERPRINTS.write_text(json.dumps(dual_fingerprints(), indent=2) + "\n")
    SCAN_FINGERPRINTS.write_text(json.dumps(scan_fingerprints(), indent=2) + "\n")
    DEMO_GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode or proc.stderr:
            raise RuntimeError(f"{demo.name} failed: {proc.stderr}")
        (DEMO_GOLDEN / f"{demo.stem}.stdout").write_bytes(proc.stdout)
    codes = {}
    for name, argv in sorted(CASES.items()):
        stdout, stderr, codes[name] = run_case(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        (GOLDEN / f"{name}.stderr").write_bytes(stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
