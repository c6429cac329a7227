import os
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from fluxfem import analysis, cli, fem, linsolve, mesh, nitsche
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
    with pytest.raises(ValueError, match="^the lagrange method recovers the multiplier flux, got 'pointwise'$"):
        StudyConfig(method="lagrange", flux_variant="pointwise")
    with pytest.raises(ValueError, match="^the nitsche method recovers the pointwise or variational flux"):
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


@pytest.mark.parametrize(
    "text, flags",
    [
        ("kmax = -1\n", ["--kmin", "-2"]),
        ("flux_variant = multiplier\n", ["--method", "lagrange", "--kmax", "0"]),
    ],
)
def test_flags_mend_a_file_that_alone_is_invalid(tmp_path, capsys, text, flags):
    """The file's values and the flags are merged, flags winning, and only
    the merged settings are validated."""
    config = tmp_path / "study.cfg"
    config.write_text(text)
    assert main(["converge", "--config", str(config), *flags]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("kmin = 5\n", ["--kmax", "2"], "kmin=5 exceeds kmax=2"),
        ("method = lagrange\n", ["--flux-variant", "variational"],
         "the lagrange method recovers the multiplier flux, got 'variational'"),
    ],
)
def test_file_and_flags_invalid_together_exit_2(tmp_path, capsys, text, flags, message):
    config = tmp_path / "study.cfg"
    config.write_text(text)
    assert main(["converge", "--config", str(config), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("kmin = 1\nkmin = 2\n", ":2: kmin set again (first on line 1)"),
        ("flux-variant = pointwise\n# a comment\nflux_variant = variational\n",
         ":3: flux_variant set again (first on line 1)"),
    ],
)
def test_config_key_set_twice_is_refused(tmp_path, capsys, text, message):
    """Both spellings of a key count as one key."""
    config = tmp_path / "study.cfg"
    config.write_text(text)
    assert main(["converge", "--kmax", "0", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {config}{message}\n"


FLAG_SAMPLES = {
    "method": "lagrange", "flux_variant": "variational", "beta": "3.5", "alpha": "0.5",
    "kmin": "1", "kmax": "3", "delta0": "0.3", "kappa": "2", "seed": "7", "parallel": None,
    "out": "study.csv",
}


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command, (_, names) in cli._COMMANDS.items() for name in (*names, "out")],
)
def test_each_flag_sets_what_its_config_line_sets(tmp_path, command, name):
    """A flag is parsed as its StudyConfig field, as the config file is."""
    value = FLAG_SAMPLES[name]
    config = tmp_path / "study.cfg"
    config.write_text(f"{name} = {'true' if value is None else value}\n")
    flag = ["--" + name.replace("_", "-"), *([] if value is None else [value])]
    parser = build_parser()
    from_flag = build_config(parser.parse_args([command, *flag]))
    assert from_flag == build_config(parser.parse_args([command, "--config", str(config)]))
    assert from_flag != StudyConfig()


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


@pytest.mark.parametrize(
    "text, message",
    [("kmin = abc", "kmin must be an int, got 'abc'"),
     ("beta = 1e", "beta must be a float, got '1e'")],
)
def test_config_file_parse_error_names_the_key(tmp_path, capsys, text, message):
    config = tmp_path / "study.cfg"
    config.write_text(f"{text}\n")
    assert main(["converge", "--kmax", "0", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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


def test_vanishing_ratio_sums_are_a_gate_failure(tmp_path, capsys):
    """At kappa = 1e200 every Q underflows to 0, so the spread of the sums is
    undefined: one FAIL line names the levels, and the table is still written."""
    out = tmp_path / "dual.csv"
    assert main(["dual-check", "--kappa", "1e200", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "FAIL nitsche kappa=1e+200: summed stability ratio is 0 at n=8, 16, 32, 64\n"
    )
    rows = out.read_text().splitlines()
    assert [row.rsplit(",", 1)[1] for row in rows[1:5]] == [cli._fmt(0.0)] * 4
    assert rows[6] == "method,n,identity_residual"


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


def test_dual_check_builds_each_grid_once(monkeypatch):
    """The stability table (n = 8..64) and the identity table (n = 8..32)
    share one mesh and one space per grid."""
    meshes, spaces = [], []
    build = mesh.build_unit_square_mesh
    for name, module in list(sys.modules.items()):
        if name.startswith("fluxfem") and getattr(module, "build_unit_square_mesh", None) is build:
            monkeypatch.setattr(
                module, "build_unit_square_mesh", lambda n: meshes.append(n) or build(n)
            )
    init = fem.P1Space.__init__
    monkeypatch.setattr(
        fem.P1Space, "__init__", lambda self, m: spaces.append(m.grid_n) or init(self, m)
    )
    assert main(["dual-check"]) == 0
    assert sorted(meshes) == sorted(spaces) == [8, 16, 32, 64]


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "nitsche", "--flux-variant", "pointwise"],
        ["--method", "nitsche", "--flux-variant", "variational"],
        ["--method", "lagrange"],
    ],
)
def test_converge_builds_two_full_mesh_volume_tables_per_level(monkeypatch, flags):
    """The load vector's table and the error norms' table each come in
    blocks that cover every triangle exactly once; the variational flux's
    boundary-layer table (an index array of cells) is not a full-mesh one."""
    tables = {}
    original = fem.P1Space.geometry

    def counted(self, cells=fem.ALL_CELLS, rule=None):
        if rule is not None:
            assert cells is not fem.ALL_CELLS
            if isinstance(cells, slice):
                tables.setdefault(len(rule.weights), []).append(np.arange(self.mesh.n_triangles)[cells])
        return original(self, cells, rule)

    monkeypatch.setattr(fem.P1Space, "geometry", counted)
    monkeypatch.setattr(fem, "BLOCK_TRIANGLES", 48)  # 128 triangles: 3 blocks
    assert main(["converge", "--kmin", "2", "--kmax", "2", *flags]) == 0
    # load vector then error norms, both with the degree-4 (6-point) rule
    (blocks,) = tables.values()
    assert len(blocks) == 6
    for table in (blocks[:3], blocks[3:]):
        assert np.array_equal(np.concatenate(table), np.arange(128))


@pytest.mark.parametrize(
    "argv, others",
    [
        (["dual-check", "--method", "lagrange", "--seed", "0"], {}),
        (["dual-check", "--method", "nitsche", "--seed", "0"], {"flux.pointwise_nitsche_values": 3}),
        (["converge", "--kmin", "0", "--kmax", "0", "--method", "nitsche"],
         {"flux.pointwise_nitsche_values": 1}),
        (["converge", "--kmin", "0", "--kmax", "0", "--method", "lagrange"], {}),
    ],
)
def test_boundary_points_are_built_once_per_space(monkeypatch, argv, others):
    """Boundary norms, dual data, traces and the exact flux read the points of
    `space.facets`. Only the pointwise Nitsche flux (also at the endpoints)
    places facet points itself."""
    callers, spaces = [], []
    facet_points, init = mesh.Mesh.facet_points, fem.P1Space.__init__

    def recorded(self, t):
        frame = sys._getframe(1)
        callers.append(f"{frame.f_globals['__name__'].removeprefix('fluxfem.')}.{frame.f_code.co_name}")
        return facet_points(self, t)

    def counted(self, space_mesh):
        spaces.append(space_mesh)
        init(self, space_mesh)

    monkeypatch.setattr(mesh.Mesh, "facet_points", recorded)
    monkeypatch.setattr(fem.P1Space, "__init__", counted)
    assert main(argv) == 0
    assert callers.count("fem._facet_table") == len(spaces) > 0
    assert {name: callers.count(name) for name in set(callers) - {"fem._facet_table"}} == others


def test_converge_solver_failure_names_the_level(capsys):
    assert main(["converge", "--beta", "0.1", "--kmax", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: k=0 n=4: not positive definite")
    assert err.count("\n") == 1


def test_nonsymmetric_matrix_exits_3(monkeypatch, capsys):
    """A matrix off its transpose by one entry has no inertia certificate."""
    scatter = nitsche.local_to_global

    def skewed(n, *blocks):
        return scatter(n, *blocks) + sp.csr_matrix(([1e-3], ([0], [1])), shape=(n, n))

    monkeypatch.setattr(nitsche, "local_to_global", skewed)
    assert main(["converge", "--kmax", "0"]) == 3
    assert capsys.readouterr().err == "solver failure: k=0 n=4: matrix is not exactly symmetric\n"


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["dual-check", "--beta", "0.1"], "dual-check stability n=8: not positive definite"),
        (["dual-check", "--method", "lagrange", "--alpha", "0.5"], "dual-check stability n=8: 2 vanishing"),
        # kappa = 100 keeps the shifted stability solves regular; the identity is unshifted
        (["dual-check", "--method", "lagrange", "--alpha", "0.5", "--kappa", "100"],
         "dual-check identity n=8: 2 vanishing"),
        (["patch-test", "--beta", "0.1"], "patch-test constant(1.0) n=2: not positive definite"),
        (["patch-test", "--method", "lagrange", "--alpha", "0.5"], "patch-test constant(1.0) n=2: "),
        # finite penalties too large for the arithmetic: overflow is a solver failure
        (["converge", "--kmax", "1", "--method", "lagrange", "--alpha", "1e308"], "k=0 n=4: "),
        (["patch-test", "--method", "lagrange", "--alpha", "1e308"], "patch-test constant(1.0) n=2: "),
        (["converge", "--kmax", "1", "--beta", "1e308"], "k=0 n=4: "),
        (["dual-check", "--beta", "1e308"], "dual-check stability n=8: "),
        (["converge", "--kmax", "3", "--parallel", "--beta", "1e308"], "k=0 n=4: "),
        (["converge", "--kmax", "3", "--parallel", "--method", "lagrange", "--alpha", "1e308"], "k=0 n=4: "),
    ],
)
def test_solver_failure_names_the_stage_and_level(capsys, argv, prefix):
    """Exit 3 with one stderr line that says where the solve failed, and no
    traceback or floating-point warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"solver failure: {prefix}")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv, target, detail, message",
    [
        (["converge", "--kmax", "1"], "solve_spd", "Unable to allocate 8.00 EiB",
         "out of memory: k=0 n=4: Unable to allocate 8.00 EiB\n"),
        (["converge", "--method", "lagrange", "--kmin", "2", "--kmax", "2", "--parallel"],
         "solve_sym_indefinite", "Unable to allocate 8.00 EiB",
         "out of memory: k=2 n=8: Unable to allocate 8.00 EiB\n"),
        (["dual-check"], "dual_stability_report", "Unable to allocate 8.00 EiB",
         "out of memory: dual-check stability n=8: Unable to allocate 8.00 EiB\n"),
        (["patch-test"], "solve_spd", "", "out of memory: patch-test constant(1.0) n=2\n"),
    ],
)
def test_out_of_memory_exits_3_with_one_line(monkeypatch, capsys, argv, target, detail, message):
    """Exit 3 (never 1, the tolerance-failure code) and no traceback."""

    def exhausted(*args, **kwargs):
        raise MemoryError(detail)

    monkeypatch.setattr(cli, target, exhausted)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == message
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["converge", "--kmin", "2", "--kmax", "2"],
         "out of memory: k=2 n=8: SuperLU could not allocate the factors"
         " of a 81 x 81 matrix with 425 nonzeros"),
        (["converge", "--kmin", "1", "--kmax", "2", "--parallel"],
         "out of memory: k=1 n=6: SuperLU could not allocate the factors"
         " of a 49 x 49 matrix with 257 nonzeros"),
    ],
    ids=["sequential", "parallel"],
)
def test_superlu_out_of_memory_line_stands_alone(monkeypatch, capfd, argv, message):
    """SuperLU reports a failed allocation on fd 2 with no newline, then
    scipy raises a bare MemoryError; the program's line still starts its own
    line and names the matrix, also when threads factor at once."""

    def exhausted(matrix, **kwargs):
        os.write(2, b"malloc fails for local dworkptr[].")
        raise MemoryError()

    monkeypatch.setattr(linsolve.spla, "splu", exhausted)
    assert main(argv) == 3
    err = capfd.readouterr().err
    assert err.endswith("\n")
    assert err.splitlines()[-1] == message


def test_quadrature_rules_are_built_once_and_read_only():
    rule = edge_quadrature()
    assert edge_quadrature() is rule
    with pytest.raises(ValueError):
        rule.points[0] = 0.5


@pytest.mark.parametrize(
    "flags",
    [
        ["converge", "--beta", "nan"],
        ["converge", "--beta", "0"],
        ["converge", "--alpha", "inf"],
        ["converge", "--alpha", "-1"],
        # kappa and seed are dual-check flags
        ["dual-check", "--kappa", "nan"],
        ["dual-check", "--kappa", "-1"],
        ["dual-check", "--seed", "-1"],
        ["converge", "--kmin", "29", "--kmax", "30"],
        ["converge", "--kmax", "18"],
        ["converge", "--kmin", "-6", "--kmax", "0"],
    ],
)
def test_cli_rejects_bad_inputs_at_config_time(capsys, flags):
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


IGNORED_FLAGS = {
    "converge": ["--delta0", "--kappa", "--seed"],
    "patch-test": ["--flux-variant", "--kmin", "--kmax", "--delta0", "--kappa", "--seed", "--parallel"],
    "dual-check": ["--flux-variant", "--kmin", "--kmax", "--parallel"],
}
FLAG_VALUES = {"--flux-variant": ["variational"], "--delta0": ["0.1"], "--parallel": []}


@pytest.mark.parametrize(
    "argv",
    [
        [command, flag, *FLAG_VALUES.get(flag, ["1"])]
        for command, flags in IGNORED_FLAGS.items()
        for flag in flags
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    """A flag the subcommand would ignore is not offered: exit 2 with a usage line."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: fluxfem {argv[0]} ")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err
    assert "Traceback" not in captured.err


def test_one_config_file_serves_every_subcommand(tmp_path):
    """Config-file keys a subcommand does not read are accepted, not rejected."""
    config = tmp_path / "study.cfg"
    config.write_text(
        "method = nitsche\nflux_variant = pointwise\nkmin = 0\nkmax = 1\n"
        "delta0 = 0.2\nkappa = 5\nseed = 3\nparallel = true\n",
        encoding="utf-8",
    )
    out = tmp_path / "patch.txt"
    assert main(["patch-test", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_text() == "patch tests passed\n"


def test_size_refusal_quotes_what_the_levels_need(capsys):
    assert main(["converge", "--kmax", "18"]) == 2
    err = capsys.readouterr().err
    assert "k=17 (n=1448) took about 20 s and 3.0 GiB" in err
    assert "k=18 (n=2048) would need about 5.9 GiB" in err
    assert err.count("\n") == 1


def test_level_range_matches_size_cap():
    assert level_grid_n(MAX_LEVEL) <= MAX_GRID_N < level_grid_n(MAX_LEVEL + 1)
    assert level_grid_n(MIN_LEVEL) >= 1 > level_grid_n(MIN_LEVEL - 1)
    StudyConfig(kmin=MIN_LEVEL, kmax=MAX_LEVEL)
