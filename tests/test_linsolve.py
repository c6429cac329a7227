import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from fluxfem import linsolve
from fluxfem.analysis import rademacher_boundary_field
from fluxfem.fem import LinearSystem, P1Space, assemble
from fluxfem.lagrange import SaddleConfig
from fluxfem.linsolve import (
    INDEFINITE_RESIDUAL_TOL,
    SPD_RESIDUAL_TOL,
    ZERO_PIVOT_REL_TOL,
    SingularSystemError,
    SolveResult,
    SolverError,
    _pivot_factorization,
    solve_spd,
    solve_sym_indefinite,
)
from fluxfem.mesh import build_unit_square_mesh
from fluxfem.nitsche import NitscheConfig


def _system(dense, rhs, n_primal=None):
    """A LinearSystem of a dense matrix; n_primal defaults to the dimension (no multipliers)."""
    matrix = sp.csr_matrix(np.asarray(dense, dtype=float))
    return LinearSystem(matrix, np.asarray(rhs, dtype=float), matrix.shape[0] if n_primal is None else n_primal)


def test_identity_solve():
    result = solve_spd(_system(np.eye(3), [1.0, -2.0, 3.0]))
    assert np.allclose(result.x, [1.0, -2.0, 3.0], atol=1e-14)
    assert result.inertia == (3, 0, 0)


def test_two_by_two_hand_solve():
    result = solve_spd(_system([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0]))
    assert np.allclose(result.x, [1.0, 1.0], atol=1e-13)


def test_indefinite_diagonal():
    result = solve_sym_indefinite(_system([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0], 1))
    assert np.allclose(result.x, [1.0, -1.0], atol=1e-14)
    assert result.inertia == (1, 1, 0)


@pytest.mark.parametrize(
    "solve, dense", [(solve_spd, [[2.0, 1.0], [1.0, 2.0]]), (solve_sym_indefinite, [[1.0, 2.0], [2.0, -1.0]])]
)
def test_rhs_without_columns(solve, dense):
    """An (n, 0) rhs is a batch of no solves: the factorization still
    reports its inertia, and the largest of no residuals is 0."""
    result = solve(_system(dense, np.zeros((2, 0))))
    assert result.x.shape == (2, 0)
    assert result.residual == 0.0
    assert result.inertia == ((2, 0, 0) if solve is solve_spd else (1, 1, 0))


@pytest.mark.parametrize("solve", [solve_spd, solve_sym_indefinite])
@pytest.mark.parametrize("shape", [(3,), (1,), (3, 2), (2, 2, 2), ()])
def test_rhs_of_another_shape_is_refused(solve, shape):
    """x is shaped like the rhs, so only (n,) and (n, k) fit an n x n matrix."""
    message = f"right-hand side of shape {shape} does not fit a (2, 2) matrix"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(_system([[2.0, 1.0], [1.0, 2.0]], np.ones(shape)))


@pytest.mark.parametrize("solve", [solve_spd, solve_sym_indefinite])
@pytest.mark.parametrize("off", [0.0, np.nextafter(1.0, 2.0)], ids=["triangular", "one-ulp"])
def test_nonsymmetric_matrix_is_refused(solve, off):
    """Sylvester's law reads the inertia off the pivots only when A = A^T
    exactly; [[2, 1], [0, 3]] has positive pivots but is not SPD."""
    with pytest.raises(SolverError, match="matrix is not exactly symmetric"):
        solve(_system([[2.0, 1.0], [off, 3.0]], [1.0, 1.0]))


def _asymmetric_forms():
    """Matrices that differ from their transpose in one stored entry, with
    the same sparsity pattern on both sides."""
    one_ulp = NitscheConfig().matrix(P1Space(build_unit_square_mesh(4)))
    first_off_diagonal = np.flatnonzero(one_ulp.indices[: one_ulp.indptr[1]] != 0)[0]
    one_ulp.data[first_off_diagonal] = np.nextafter(one_ulp.data[first_off_diagonal], np.inf)
    # 2 at (0, 2) against an explicit zero stored at (2, 0)
    one_sided_nonzero = sp.csr_matrix(
        ([4.0, 1.0, 2.0, 1.0, 3.0, 2.0, 0.0, 2.0, 5.0], [0, 1, 2, 0, 1, 2, 0, 1, 2], [0, 3, 6, 9]), shape=(3, 3)
    )
    return {"one-ulp": one_ulp, "one-sided-nonzero": one_sided_nonzero}


@pytest.mark.parametrize("solve", [solve_spd, solve_sym_indefinite])
@pytest.mark.parametrize("form", ["one-ulp", "one-sided-nonzero"])
def test_matrix_asymmetric_in_one_stored_value_is_refused(solve, form):
    """A and A^T have the same pattern but not the same values, so the
    certificate falls back to comparing the entries, and refuses A."""
    matrix = _asymmetric_forms()[form]
    transpose = matrix.T.tocsr()
    assert np.array_equal(matrix.indices, transpose.indices) and np.array_equal(matrix.indptr, transpose.indptr)
    assert (matrix != matrix.T).nnz == 2
    with pytest.raises(SolverError, match="matrix is not exactly symmetric"):
        solve(LinearSystem(matrix, np.ones(matrix.shape[0]), matrix.shape[0]))


def _stored_forms_of_a_symmetric_matrix():
    """[[4, 1, 0], [1, 3, 2], [0, 2, 5]] as stored other than canonically."""
    unsorted = sp.csr_matrix(
        ([1.0, 4.0, 2.0, 3.0, 1.0, 5.0, 2.0], [1, 0, 2, 1, 0, 2, 1], [0, 2, 5, 7]), shape=(3, 3)
    )
    duplicates = sp.coo_matrix(
        ([4.0, 0.5, 0.5, 0.25, 3.0, 2.0, 0.75, 2.0, 5.0], ([0, 0, 0, 1, 1, 1, 1, 2, 2], [0, 1, 1, 0, 1, 2, 0, 1, 2])),
        shape=(3, 3),
    )
    one_sided_zero = sp.csr_matrix(
        ([4.0, 1.0, 0.0, 1.0, 3.0, 2.0, 2.0, 5.0], [0, 1, 2, 0, 1, 2, 1, 2], [0, 3, 6, 8]), shape=(3, 3)
    )
    return {"unsorted": unsorted, "duplicates": duplicates, "one-sided-zero": one_sided_zero}


@pytest.mark.parametrize("solve", [solve_spd, solve_sym_indefinite])
@pytest.mark.parametrize("form", ["unsorted", "duplicates", "one-sided-zero"])
def test_symmetric_matrix_stored_noncanonically_is_accepted(solve, form):
    matrix = _stored_forms_of_a_symmetric_matrix()[form]
    canonical = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 2.0], [0.0, 2.0, 5.0]])
    assert np.array_equal(matrix.toarray(), canonical)
    rhs = np.array([1.0, -2.0, 3.0])
    expected = solve(_system(canonical, rhs))
    result = solve(LinearSystem(matrix, rhs, matrix.shape[0]))
    assert np.allclose(result.x, expected.x, rtol=0.0, atol=1e-15)
    assert result.inertia == expected.inertia == (3, 0, 0)


@pytest.mark.parametrize("solve", [solve_spd, solve_sym_indefinite])
def test_noncanonical_csr_solves_like_its_canonical_copy_and_stays_as_it_is(solve):
    """SuperLU sums duplicates in place, so a CSR with unsorted indices and
    duplicates is made canonical on a copy; the caller's arrays keep their bytes."""
    matrix = sp.csr_matrix(
        ([0.5, 4.0, 0.5, 1.25, 1.0, 3.0, 0.75, 5.0, 1.25, 0.75], [1, 0, 1, 2, 0, 1, 2, 2, 1, 1], [0, 3, 7, 10]),
        shape=(3, 3),
    )
    assert not matrix.has_canonical_format
    canonical = matrix.copy()
    canonical.sum_duplicates()
    assert np.array_equal(canonical.toarray(), [[4.0, 1.0, 0.0], [1.0, 3.0, 2.0], [0.0, 2.0, 5.0]])
    stored = [a.copy() for a in (matrix.data, matrix.indices, matrix.indptr)]
    rhs = np.array([1.0, -2.0, 3.0])
    expected = solve(LinearSystem(canonical, rhs, 3))
    result = solve(LinearSystem(matrix, rhs, 3))
    assert result.x.tobytes() == expected.x.tobytes()
    assert result.residual == expected.residual
    assert result.inertia == expected.inertia == (3, 0, 0)
    for before, after in zip(stored, (matrix.data, matrix.indices, matrix.indptr)):
        assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize("solve", [solve_spd, solve_sym_indefinite])
def test_float32_matrix_is_factored_in_float64(solve):
    """SuperLU would factor a float32 matrix in single precision, and the
    float64 refinement then failed to cast; it now solves as its float64 copy."""
    dense = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 2.0], [0.0, 2.0, 5.0]])
    rhs = np.array([1.0, -2.0, 3.0])
    expected = solve(_system(dense, rhs))
    result = solve(LinearSystem(sp.csr_matrix(dense.astype(np.float32)), rhs, 3))
    assert result.x.tobytes() == expected.x.tobytes()
    assert result.inertia == expected.inertia


@pytest.mark.parametrize("solve", [solve_spd, solve_sym_indefinite])
def test_complex_matrix_is_refused(solve):
    """Inertia is read off real pivots; a complex matrix has none to read."""
    matrix = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
    with pytest.raises(ValueError, match="matrix of dtype complex128 is not real"):
        solve(LinearSystem(matrix, np.ones(2), 2))


def test_zero_rhs_gives_zero_solution(trig):
    space = P1Space(build_unit_square_mesh(4))
    system = assemble(space, NitscheConfig(beta=10.0), trig.f, trig.g)
    result = solve_spd(LinearSystem(system.matrix, np.zeros(space.n_dofs), space.n_dofs))
    assert np.all(result.x == 0.0)


def test_saddle_zero_data_gives_zero():
    zero = lambda x, y: np.zeros_like(x)  # noqa: E731
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    system = assemble(space, SaddleConfig(alpha=10.0), zero, zero)
    result = solve_sym_indefinite(system)
    assert np.max(np.abs(result.x)) <= 1e-12


def test_singular_system_detected():
    with pytest.raises(SingularSystemError):
        solve_sym_indefinite(_system([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], 1))


@pytest.mark.parametrize("rhs", [[np.nan, 1.0], [[1.0, np.nan], [1.0, 1.0]]])
def test_non_finite_rhs_fails_certification(rhs):
    """A NaN residual must not pass the bound, alone or beside a good column."""
    with pytest.raises(SolverError, match="exceeds tolerance"):
        solve_spd(_system([[2.0, 1.0], [1.0, 2.0]], rhs))


@pytest.mark.parametrize("solve", [solve_spd, solve_sym_indefinite])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_matrix_fails_before_factorization(monkeypatch, solve, bad):
    """An overflowed assembly is refused up front, never handed to SuperLU."""

    def never(matrix):
        raise AssertionError("a non-finite matrix reached the factorization")

    monkeypatch.setattr(linsolve, "_pivot_factorization", never)
    with pytest.raises(SolverError, match="non-finite"):
        solve(_system([[2.0, bad], [bad, 2.0]], [1.0, 1.0]))


def test_residual_certificate_attached(trig):
    space = P1Space(build_unit_square_mesh(8))
    system = assemble(space, NitscheConfig(beta=10.0), trig.f, trig.g)
    result = solve_spd(system)
    assert isinstance(result, SolveResult)
    direct = np.linalg.norm(system.matrix @ result.x - system.rhs) / np.linalg.norm(system.rhs)
    assert result.residual <= 1e-10
    assert direct == pytest.approx(result.residual, rel=1e-6, abs=1e-16)


def test_deterministic_solutions(trig):
    def once():
        mesh = build_unit_square_mesh(8)
        space = P1Space(mesh)
        system = assemble(space, SaddleConfig(alpha=10.0), trig.f, trig.g)
        return solve_sym_indefinite(system).x

    first, second = once(), once()
    assert np.array_equal(first, second)


def test_dense_fallback_inertia_on_forced_zero_pivot(trig):
    """alpha = 1 zeroes some boundary diagonals (2 - 2*alpha), forcing the
    unpivoted path to give up; the Bunch-Kaufman fallback still reports a
    full inertia and a certified solution."""
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    system = assemble(space, SaddleConfig(alpha=1.0), trig.f, trig.g)
    assert np.any(system.matrix.diagonal() == 0.0)
    result = solve_sym_indefinite(system)
    assert sum(result.inertia) == space.n_dofs + mesh.n_facets
    assert result.inertia[2] == 0
    assert result.residual <= 1e-9


def test_dense_fallback_refines_with_its_own_solve(trig, monkeypatch):
    """A fallback solve off by 1e-6 is refined with that same solve down to
    about 1e-12, rather than certified four times at 1e-6 and refused."""
    system = assemble(P1Space(build_unit_square_mesh(4)), SaddleConfig(alpha=0.25), trig.f, trig.g)
    splu = linsolve.spla.splu

    def perturbed(matrix, **kwargs):
        exact = splu(matrix, **kwargs)
        return SimpleNamespace(solve=lambda b: (1.0 + 1e-6) * exact.solve(b))

    monkeypatch.setattr(linsolve, "_pivot_factorization", lambda matrix: None)
    monkeypatch.setattr(linsolve.spla, "splu", perturbed)
    result = solve_sym_indefinite(system)
    assert result.residual <= 2e-12


@pytest.mark.parametrize("method", ["nitsche", "lagrange"])
def test_minimum_degree_ordering_is_symmetric_and_fill_reducing(trig, method):
    """At n = 64 the minimum-degree order factors with diagonal pivots
    (perm_r == perm_c) and about 135k fill; reverse Cuthill-McKee gave
    about 378k."""
    mesh = build_unit_square_mesh(64)
    space = P1Space(mesh)
    if method == "nitsche":
        system = assemble(space, NitscheConfig(beta=10.0), trig.f, trig.g)
    else:
        system = assemble(space, SaddleConfig(alpha=0.25), trig.f, trig.g)
    lu = _pivot_factorization(system.matrix.tocsc())
    assert lu is not None
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.L.nnz + lu.U.nnz < 200_000


@pytest.mark.parametrize("n", [4, 8, 16])
def test_critical_stabilization_singular_through_dense_fallback(trig, n):
    """At alpha = 1/2 the saddle matrix is exactly singular. The sparse
    factorization cannot certify it (it breaks down or shows a vanishing
    pivot), so the Bunch-Kaufman fallback gives the verdict."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    system = assemble(space, SaddleConfig(alpha=0.5), trig.f, trig.g)
    lu = _pivot_factorization(system.matrix.tocsc())
    if lu is not None:
        pivots = np.abs(lu.U.diagonal())
        assert np.min(pivots) <= ZERO_PIVOT_REL_TOL * np.max(pivots)
    with pytest.raises(SingularSystemError, match="vanishing pivots"):
        solve_sym_indefinite(system)


def _six_column_system(method, n, alpha, trig):
    """The system of `method` at grid n, and a copy with six columns: the
    primal rhs, four Rademacher dual rhs and a zero column."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    psis = [rademacher_boundary_field(mesh, seed=s) for s in range(4)]
    cfg = NitscheConfig(beta=10.0) if method == "nitsche" else SaddleConfig(alpha=alpha)
    system = assemble(space, cfg, trig.f, trig.g)
    duals = [cfg.dual_data(space, psi) for psi in psis]
    rhs = np.column_stack([system.rhs, *duals, np.zeros_like(system.rhs)])
    return system, replace(system, rhs=rhs)


@pytest.mark.parametrize(
    "method, n, alpha, dense",
    [("nitsche", 16, None, False), ("lagrange", 16, 0.25, False), ("lagrange", 4, 1.0, True)],
)
def test_multi_column_solve_matches_single_columns(trig, monkeypatch, method, n, alpha, dense):
    """An (n, 6) rhs is factored once and certified column by column: each
    column is bitwise its single-column solve, the zero column gives zero,
    the inertia is the single-column one and `residual` is the largest
    column residual. alpha = 1 at n = 4 takes the dense fallback."""
    calls = {"_pivot_factorization": 0, "_dense_inertia": 0}
    for name in calls:
        original = getattr(linsolve, name)

        def counted(matrix, name=name, original=original):
            calls[name] += 1
            return original(matrix)

        monkeypatch.setattr(linsolve, name, counted)
    system, stacked = _six_column_system(method, n, alpha, trig)
    solve = solve_spd if method == "nitsche" else solve_sym_indefinite
    result = solve(stacked)
    assert calls == {"_pivot_factorization": 1, "_dense_inertia": int(dense)}
    assert result.x.shape == stacked.rhs.shape
    singles = [solve(replace(system, rhs=column.copy())) for column in stacked.rhs.T]
    for j, single in enumerate(singles):
        assert np.array_equal(result.x[:, j], single.x)
        assert single.inertia == result.inertia
    assert np.all(result.x[:, -1] == 0.0)
    assert result.residual == max(single.residual for single in singles)
    assert result.residual <= (SPD_RESIDUAL_TOL if method == "nitsche" else INDEFINITE_RESIDUAL_TOL)
    assert result.inertia == solve(system).inertia


def _pivot_system(kind, n, trig):
    space = P1Space(build_unit_square_mesh(n))
    if kind == "nitsche":
        return assemble(space, NitscheConfig(beta=10.0), trig.f, trig.g)
    return assemble(space, SaddleConfig(alpha=float(kind.removeprefix("alpha="))), trig.f, trig.g)


@pytest.mark.parametrize("n", [4, 8, 33, 64, 128])
@pytest.mark.parametrize("kind", ["nitsche", "alpha=0.25", "alpha=10"])
def test_pivots_read_in_place_match_u_diagonal_bitwise(trig, kind, n):
    """The supernodal read is taken (the layout checks pass) and gives
    U's diagonal bit for bit."""
    system = _pivot_system(kind, n, trig)
    dim = system.matrix.shape[0]
    lu = _pivot_factorization(system.matrix.tocsc())
    assert lu is not None
    assert linsolve._supernodal_store(lu, dim) is not None
    pivots = linsolve._pivots(lu, dim)
    assert pivots.dtype == np.float64
    assert pivots.tobytes() == lu.U.diagonal().tobytes()


def test_pivot_layout_check_rejects_a_mismatch(trig):
    system = _pivot_system("nitsche", 4, trig)
    dim = system.matrix.shape[0]
    lu = _pivot_factorization(system.matrix.tocsc())
    assert linsolve._supernodal_store(lu, dim + 1) is None
    assert linsolve._supernodal_store(SimpleNamespace(nnz=lu.nnz), dim) is None


@pytest.mark.parametrize("kind", ["nitsche", "alpha=0.25", "alpha=10"])
def test_pivot_reader_fallback_gives_the_same_solve(trig, monkeypatch, kind):
    """With the layout check failing, the pivots come from lu.U and x, the
    residual and the inertia are bitwise those of the in-place read."""
    system = _pivot_system(kind, 16, trig)
    solve = solve_spd if kind == "nitsche" else solve_sym_indefinite
    expected = solve(system)
    checked = []

    def failed_check(lu, n):
        checked.append(n)
        return None

    monkeypatch.setattr(linsolve, "_supernodal_store", failed_check)
    result = solve(system)
    assert checked == [system.matrix.shape[0]]
    assert result.x.tobytes() == expected.x.tobytes()
    assert result.residual == expected.residual
    assert result.inertia == expected.inertia


@pytest.mark.parametrize("kind", ["nitsche", "alpha=0.25"])
def test_superlu_factors_the_system_arrays_on_a_trimmed_heap(trig, monkeypatch, kind):
    """A certified-symmetric CSR is its own CSC, so SuperLU gets the
    system's arrays, not a copy; the heap is trimmed right before."""
    system = _pivot_system(kind, 8, trig)
    events, splu = [], linsolve.spla.splu

    def recording_splu(matrix, *args, **kwargs):
        events.append(matrix)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(linsolve, "_malloc_trim", lambda pad: events.append(("trim", pad)))
    monkeypatch.setattr(linsolve.spla, "splu", recording_splu)
    (solve_spd if kind == "nitsche" else solve_sym_indefinite)(system)
    trim, csc = events
    assert trim == ("trim", 0)
    assert csc.format == "csc"
    assert np.shares_memory(csc.data, system.matrix.data)
    assert np.shares_memory(csc.indices, system.matrix.indices)


@pytest.mark.parametrize("kind", ["nitsche", "alpha=0.25"])
def test_solve_without_malloc_trim_gives_the_same_bits(trig, monkeypatch, kind):
    """Where the C library has no malloc_trim nothing is trimmed, and the
    solve is bitwise the trimmed one."""
    system = _pivot_system(kind, 16, trig)
    solve = solve_spd if kind == "nitsche" else solve_sym_indefinite
    expected = solve(system)
    monkeypatch.setattr(linsolve.ctypes, "CDLL", lambda name: SimpleNamespace())
    assert linsolve._find_malloc_trim() is None
    monkeypatch.setattr(linsolve, "_malloc_trim", None)
    result = solve(system)
    assert result.x.tobytes() == expected.x.tobytes()
    assert result.residual == expected.residual
    assert result.inertia == expected.inertia


def test_superlu_allocation_failure_is_memory_error(monkeypatch):
    """SuperLU reports a failed allocation as a RuntimeError; it must not
    read as a breakdown ("not positive definite")."""

    def failed_allocation(*args, **kwargs):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc() at line 173\n")

    monkeypatch.setattr(linsolve.spla, "splu", failed_allocation)
    system = _system([[2.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(MemoryError, match=r"^SUPERLU_MALLOC fails .* line 173$"):
        solve_spd(system)
