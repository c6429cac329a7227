import pytest

from fluxfem import linsolve
from fluxfem.cli import (
    MAX_LEVEL,
    MIN_LEVEL,
    StudyConfig,
    build_config,
    build_parser,
    level_grid_n,
    main,
    records_to_csv,
    run_convergence,
    run_dual_check,
    run_patch_test,
)
from fluxfem.fem import edge_quadrature
from fluxfem.mesh import MAX_GRID_N

EXPECTED_LEVELS = [4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256]


def test_level_grid_sizes():
    assert [level_grid_n(k) for k in range(13)] == EXPECTED_LEVELS


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(method="galerkin")
    with pytest.raises(ValueError):
        StudyConfig(kmin=5, kmax=2)
    with pytest.raises(ValueError):
        StudyConfig(method="lagrange", flux_variant="pointwise")
    with pytest.raises(ValueError):
        StudyConfig(method="nitsche", flux_variant="multiplier")
    with pytest.raises(ValueError):
        StudyConfig(delta0=0.5)
    assert StudyConfig(method="lagrange").resolved_variant() == "multiplier"
    assert StudyConfig(method="nitsche").resolved_variant() == "pointwise"


def test_run_convergence_levels_and_order():
    records = run_convergence(StudyConfig(kmin=0, kmax=2))
    assert [r.grid_n for r in records] == [4, 6, 8]
    assert [r.k for r in records] == [0, 1, 2]
    assert all(r.method == "nitsche" and r.variant == "pointwise" for r in records)
    assert records[0].dofs == 25
    csv = records_to_csv(records)
    header, *rows = csv.strip().split("\n")
    assert header == "k,n,h_grid,h_max,dofs,method,variant,flux_err,energy_err,l2_err"
    assert len(rows) == 3
    assert rows[0].startswith("0,4,2.50000000000e-01,")


def test_parallel_matches_sequential_bytes():
    sequential = records_to_csv(run_convergence(StudyConfig(kmin=0, kmax=3)))
    parallel = records_to_csv(run_convergence(StudyConfig(kmin=0, kmax=3, parallel=True)))
    assert sequential == parallel


def test_patch_test_passes_both_methods():
    assert run_patch_test(StudyConfig(method="nitsche")) == []
    assert run_patch_test(StudyConfig(method="lagrange")) == []


def test_cli_converge_writes_deterministic_file(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["converge", "--kmin", "0", "--kmax", "2", "--out", str(out1)]) == 0
    assert main(["converge", "--kmin", "0", "--kmax", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_file_and_flag_override(tmp_path):
    config = tmp_path / "study.cfg"
    config.write_text("kmin = 0\nkmax = 1\nmethod = nitsche\n# comment\n")
    out = tmp_path / "out.csv"
    rc = main(["converge", "--config", str(config), "--kmax", "2", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 4  # header + k in {0, 1, 2}: the flag overrode kmax


def test_cli_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("granularity = 12\n")
    assert main(["converge", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "text, expected",
    [("1", True), ("true", True), ("YES", True), ("On", True),
     ("0", False), ("False", False), ("no", False), ("OFF", False)],
)
def test_config_file_booleans(tmp_path, text, expected):
    config = tmp_path / "study.cfg"
    config.write_text(f"parallel = {text}\n")
    args = build_parser().parse_args(["converge", "--config", str(config)])
    assert build_config(args).parallel is expected


@pytest.mark.parametrize("text", ["maybe", "", "2", "truthy"])
def test_config_file_rejects_non_boolean(tmp_path, capsys, text):
    config = tmp_path / "study.cfg"
    config.write_text(f"parallel = {text}\n")
    assert main(["converge", "--kmax", "0", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: parallel")
    assert "Traceback" not in err


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["converge", "--kmax", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:")
    assert str(out) in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_usage_errors():
    assert main(["converge", "--method", "lagrange", "--flux-variant", "pointwise"]) == 2
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["frobnicate"])
    assert err.value.code == 2


def test_cli_patch_test_exit_code(tmp_path):
    out = tmp_path / "patch.txt"
    assert main(["patch-test", "--method", "lagrange", "--out", str(out)]) == 0
    assert "passed" in out.read_text()


def test_cli_solver_failure_exit_code():
    # beta far below the coercivity threshold: factorization reports
    # indefiniteness, surfaced as exit code 3
    assert main(["converge", "--kmin", "0", "--kmax", "0", "--beta", "0.01"]) == 3


def test_cli_dual_check_nitsche(tmp_path):
    out = tmp_path / "dual.csv"
    rc = main(["dual-check", "--method", "nitsche", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("method,kappa,n,h_grid,psi_norm_sq,Q1,Q2,Q3,Q4,Q5,ratio_sum")
    assert "identity_residual" in text
    rows = [line for line in text.strip().split("\n") if line.startswith("nitsche,")]
    assert len(rows) == 4 + 3  # four stability levels + three identity rows


def test_run_dual_check_gates_lagrange_stable_regime():
    reports, identity_rows, failures = run_dual_check(
        StudyConfig(method="lagrange", alpha=0.25)
    )
    assert failures == []
    assert [r.grid_n for r in reports] == [8, 16, 32, 64]
    assert all(worst <= 1e-6 for _, worst in identity_rows)


def test_cli_dual_check_reruns_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["dual-check", "--method", "nitsche", "--seed", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "nitsche"],
        ["--method", "nitsche", "--kappa", "10"],
        ["--method", "lagrange", "--alpha", "0.25"],
    ],
)
def test_dual_check_factors_each_matrix_once(monkeypatch, flags):
    """4 stability levels and 3 identity levels: one factorization each,
    since a level's primal and five dual solves share one multi-column
    solve."""
    factored = []
    original = linsolve._pivot_factorization
    monkeypatch.setattr(
        linsolve, "_pivot_factorization", lambda matrix: factored.append(1) or original(matrix)
    )
    assert main(["dual-check", *flags]) == 0
    assert len(factored) == 4 + 3


def test_quadrature_rules_are_built_once_and_read_only():
    rule = edge_quadrature(6)
    assert edge_quadrature(6) is rule
    with pytest.raises(ValueError):
        rule.points[0] = 0.5


@pytest.mark.parametrize(
    "flags",
    [
        ["--beta", "nan"],
        ["--beta", "0"],
        ["--alpha", "inf"],
        ["--alpha", "-1"],
        ["--kappa", "nan"],
        ["--kappa", "-1"],
        ["--seed", "-1"],
        ["--kmin", "29", "--kmax", "30"],
        ["--kmax", "17"],
        ["--kmin", "-6", "--kmax", "0"],
    ],
)
def test_cli_rejects_bad_inputs_at_config_time(capsys, flags):
    assert main(["converge", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_level_range_matches_size_cap():
    assert level_grid_n(MAX_LEVEL) <= MAX_GRID_N < level_grid_n(MAX_LEVEL + 1)
    assert level_grid_n(MIN_LEVEL) >= 1 > level_grid_n(MIN_LEVEL - 1)
    StudyConfig(kmin=MIN_LEVEL, kmax=MAX_LEVEL)
