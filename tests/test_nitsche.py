import numpy as np
import pytest

from fluxfem.fem import P1Space, nodal_interpolant
from fluxfem.linsolve import NotPositiveDefiniteError, solve_spd
from fluxfem.mesh import build_unit_square_mesh
from fluxfem.nitsche import (
    NitscheConfig,
    assemble_dual_rhs_nitsche,
    assemble_nitsche,
)
from fluxfem.problems import affine_problem


def test_config_validation():
    with pytest.raises(ValueError):
        NitscheConfig(beta=0.0)
    with pytest.raises(ValueError):
        NitscheConfig(beta=-1.0)
    with pytest.raises(ValueError):
        NitscheConfig(kappa=-0.5)


@pytest.mark.parametrize(
    "settings",
    [
        {"beta": float("nan")},
        {"beta": float("inf")},
        {"kappa": float("nan")},
        {"kappa": float("inf")},
    ],
)
def test_config_rejects_non_finite_settings(settings):
    with pytest.raises(ValueError, match="must be finite"):
        NitscheConfig(**settings)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_constant_problem_exact(const, n):
    space = P1Space(build_unit_square_mesh(n))
    system = assemble_nitsche(space, NitscheConfig(beta=10.0), const.f, const.g)
    result = solve_spd(system)
    assert result.residual <= 1e-10
    assert np.max(np.abs(result.x - 1.0)) <= 1e-10


@pytest.mark.parametrize("n", [2, 4, 8])
def test_affine_patch(affine, n):
    space = P1Space(build_unit_square_mesh(n))
    system = assemble_nitsche(space, NitscheConfig(beta=10.0), affine.f, affine.g)
    u = solve_spd(system).x
    exact = nodal_interpolant(affine.u, space)
    assert np.max(np.abs(u - exact)) <= 1e-10


def test_matrix_exactly_symmetric(trig):
    space = P1Space(build_unit_square_mesh(4))
    system = assemble_nitsche(space, NitscheConfig(beta=10.0), trig.f, trig.g)
    assert (system.matrix != system.matrix.T).nnz == 0


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_positive_definite_at_default_penalty(trig, n):
    space = P1Space(build_unit_square_mesh(n))
    system = assemble_nitsche(space, NitscheConfig(beta=10.0), trig.f, trig.g)
    result = solve_spd(system)
    assert result.inertia == (space.n_dofs, 0, 0)


def test_penalty_too_small_is_reported(affine):
    space = P1Space(build_unit_square_mesh(4))
    system = assemble_nitsche(space, NitscheConfig(beta=0.05), affine.f, affine.g)
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(system)


def test_galerkin_orthogonality_residual(trig):
    space = P1Space(build_unit_square_mesh(8))
    system = assemble_nitsche(space, NitscheConfig(beta=10.0), trig.f, trig.g)
    u = solve_spd(system).x
    residual = system.matrix @ u - system.rhs
    assert np.max(np.abs(residual)) <= 1e-10 * np.linalg.norm(system.rhs)


def test_dual_rhs_zero_data():
    space = P1Space(build_unit_square_mesh(4))
    rhs = assemble_dual_rhs_nitsche(space, NitscheConfig(beta=10.0), lambda x, y: np.zeros_like(x))
    assert np.all(rhs == 0.0)


def test_dual_rhs_hand_integrated_entries():
    """psi = 1, beta = 10, n = 4, bottom row, hand-integrated per facet.

    A bottom-edge vertex collects beta/h * int(phi) = beta over its two
    adjacent facets plus -int(n.grad phi) over every facet whose parent
    triangle supports phi: (0.25,0) and (0.5,0) give 10 - 1 = 9; (0.75,0)
    also borders the first right-side facet's parent, gaining +1 back;
    the corners give 10 and 10 - 2 = 8."""
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    rhs = assemble_dual_rhs_nitsche(space, NitscheConfig(beta=10.0), lambda x, y: np.ones_like(x))
    assert np.allclose(rhs[:5], [10.0, 9.0, 9.0, 10.0, 8.0], atol=1e-12)
    center = 12  # vertex (0.5, 0.5) has no boundary-adjacent support
    assert rhs[center] == 0.0


@pytest.mark.parametrize("n", [1, 3, 8, 33, 64])
@pytest.mark.parametrize("cfg", [NitscheConfig(), NitscheConfig(beta=3.7, kappa=2.0)])
def test_boundary_rhs_is_the_dual_data_of_g_bitwise(trig, n, cfg):
    """With f = 0 the Nitsche right-hand side is m_g, bit for bit."""
    space = P1Space(build_unit_square_mesh(n))
    zero = lambda x, y: np.zeros_like(x)  # noqa: E731
    rhs = assemble_nitsche(space, cfg, zero, trig.g).rhs
    assert np.array_equal(rhs, assemble_dual_rhs_nitsche(space, cfg, trig.g))


def test_dual_solve_reuses_primal_matrix(trig):
    """a_h is symmetric, so the dual problem solves against the same matrix."""
    from fluxfem.nitsche import LinearSystem

    space = P1Space(build_unit_square_mesh(8))
    cfg = NitscheConfig(beta=10.0)
    system = assemble_nitsche(space, cfg, trig.f, trig.g)
    rhs = assemble_dual_rhs_nitsche(space, cfg, lambda x, y: np.ones_like(x))
    result = solve_spd(LinearSystem(matrix=system.matrix, rhs=rhs))
    assert result.residual <= 1e-10


def test_energy_error_first_order(trig):
    from fluxfem.analysis import error_norms

    errors = {}
    for n in (16, 32):
        space = P1Space(build_unit_square_mesh(n))
        u = solve_spd(assemble_nitsche(space, NitscheConfig(beta=10.0), trig.f, trig.g)).x
        errors[n], _ = error_norms(trig, space, u)
    assert errors[16] / errors[32] == pytest.approx(2.0, abs=0.3)


def test_kappa_shift_adds_mass(const):
    from fluxfem.nitsche import mass_matrix

    space = P1Space(build_unit_square_mesh(3))
    plain = assemble_nitsche(space, NitscheConfig(beta=10.0), const.f, const.g)
    shifted = assemble_nitsche(space, NitscheConfig(beta=10.0, kappa=7.0), const.f, const.g)
    diff = (shifted.matrix - plain.matrix) - 7.0 * mass_matrix(space)
    assert abs(diff).max() <= 1e-13


def test_affine_patch_under_kappa_free_variants():
    """The patch test holds for any affine data, not just x + y."""
    problem = affine_problem(2.0, -3.0, 0.5)
    space = P1Space(build_unit_square_mesh(4))
    u = solve_spd(assemble_nitsche(space, NitscheConfig(beta=10.0), problem.f, problem.g)).x
    assert np.max(np.abs(u - nodal_interpolant(problem.u, space))) <= 1e-10
