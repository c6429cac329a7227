import numpy as np
import pytest

from fluxfem.fem import P1Space, nodal_interpolant
from fluxfem.lagrange import (
    SaddleConfig,
    assemble_dual_rhs_lm,
    assemble_saddle,
    saddle_matrix,
)
from fluxfem.linsolve import SingularSystemError, solve_sym_indefinite
from fluxfem.mesh import build_unit_square_mesh
from fluxfem.problems import affine_problem


def test_config_validation():
    with pytest.raises(ValueError):
        SaddleConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SaddleConfig(alpha=-2.0)
    with pytest.raises(ValueError):
        SaddleConfig(kappa=-1.0)


@pytest.mark.parametrize(
    "settings",
    [
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"kappa": float("nan")},
        {"kappa": float("inf")},
        {"alpha": float("nan"), "kappa": float("inf")},
    ],
)
def test_config_rejects_non_finite_settings(settings):
    with pytest.raises(ValueError, match="must be finite"):
        SaddleConfig(**settings)


def test_system_dimension():
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    system = assemble_saddle(space, SaddleConfig(alpha=10.0), lambda x, y: 0 * x, lambda x, y: 0 * x)
    assert system.matrix.shape == (41, 41)
    assert (system.n_primal, system.n_multiplier) == (25, 16)


def test_matrix_exactly_symmetric():
    """As assembled, with no averaging pass, and with no explicit zeros."""
    for n in [*range(1, 25), 64]:
        space = P1Space(build_unit_square_mesh(n))
        for alpha in (0.25, 10.0):
            for kappa in (0.0, 10.0):
                matrix = saddle_matrix(space, SaddleConfig(alpha=alpha, kappa=kappa))
                assert (matrix != matrix.T).nnz == 0
                assert np.all(matrix.data != 0.0)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("alpha", [10.0, 0.25])
def test_constant_patch(const, n, alpha):
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    system = assemble_saddle(space, SaddleConfig(alpha=alpha), const.f, const.g)
    u, lam = system.split(solve_sym_indefinite(system).x)
    assert np.max(np.abs(u - 1.0)) <= 1e-10
    assert np.max(np.abs(lam)) <= 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_affine_patch_with_multiplier(n):
    """g = x: the solution is the coordinate itself and the multiplier is
    minus the normal flux, facet-wise -n_x."""
    problem = affine_problem(1.0, 0.0, 0.0)
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    system = assemble_saddle(space, SaddleConfig(alpha=10.0), problem.f, problem.g)
    u, lam = system.split(solve_sym_indefinite(system).x)
    assert np.max(np.abs(u - nodal_interpolant(problem.u, space))) <= 1e-9
    assert np.max(np.abs(lam - (-mesh.facet_normals[:, 0]))) <= 1e-9


def test_dual_rhs_entries():
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    zero = assemble_dual_rhs_lm(space, lambda x, y: np.zeros_like(x))
    assert np.all(zero == 0.0)
    ones = assemble_dual_rhs_lm(space, lambda x, y: np.ones_like(x))
    assert np.all(ones[: space.n_dofs] == 0.0)
    assert np.allclose(ones[space.n_dofs :], 0.25, atol=1e-14)
    linear = assemble_dual_rhs_lm(space, lambda x, y: np.asarray(x, dtype=float))
    # bottom facet [0, 1/4] x {0}: integral of x is 1/32
    assert linear[space.n_dofs] == pytest.approx(1.0 / 32.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_inertia_in_the_stable_regime(trig, n):
    """Below the inverse-inequality threshold (alpha = 1/2 on this mesh
    family) the saddle matrix has exactly n_vertices positive and
    n_facets negative pivots."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    system = assemble_saddle(space, SaddleConfig(alpha=0.25), trig.f, trig.g)
    result = solve_sym_indefinite(system)
    assert result.inertia == (space.n_dofs, mesh.n_facets, 0)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_no_zero_pivots_at_study_stabilization(trig, n):
    """alpha = 10 exceeds the stability threshold: the negative-pivot
    count grows past n_facets (11, 23, 44, 87 against 8, 16, 32, 64),
    but the factorization never hits a zero pivot, so the systems stay
    uniquely solvable."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    system = assemble_saddle(space, SaddleConfig(alpha=10.0), trig.f, trig.g)
    result = solve_sym_indefinite(system)
    n_pos, n_neg, n_zero = result.inertia
    assert n_zero == 0
    assert n_pos + n_neg == space.n_dofs + mesh.n_facets
    assert n_neg > mesh.n_facets


def test_critical_stabilization_is_singular(trig):
    """alpha = 1/2 is exactly the inverse-inequality constant here: the
    corner modes make the saddle matrix singular."""
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    system = assemble_saddle(space, SaddleConfig(alpha=0.5), trig.f, trig.g)
    with pytest.raises(SingularSystemError):
        solve_sym_indefinite(system)


def test_stabilization_touches_only_boundary_neighborhood(trig):
    """c_h couples only dofs of boundary-adjacent elements: changing
    alpha must not perturb any interior-only coupling."""
    mesh = build_unit_square_mesh(6)
    space = P1Space(mesh)
    a1 = assemble_saddle(space, SaddleConfig(alpha=10.0), trig.f, trig.g).matrix
    a2 = assemble_saddle(space, SaddleConfig(alpha=3.0), trig.f, trig.g).matrix
    diff = (a1 - a2).tocoo()
    boundary_dofs = set(np.unique(mesh.triangles[mesh.facet_parents]).tolist())
    boundary_dofs |= set(range(space.n_dofs, space.n_dofs + mesh.n_facets))
    mask = np.abs(diff.data) > 1e-14
    assert all(r in boundary_dofs and c in boundary_dofs
               for r, c in zip(diff.row[mask], diff.col[mask]))

