import numpy as np
import pytest

from fluxfem.fem import P1Space, edge_quadrature, load_vector, stiffness_matrix
from fluxfem.flux import (
    BoundaryFluxField,
    ExactFluxField,
    _boundary_vertex_numbering,
    _trace_field_from_moments,
    multiplier_flux,
    nitsche_flux,
    pointwise_nitsche_values,
    project_pointwise_flux,
    variational_flux,
)
from fluxfem.lagrange import SaddleConfig, assemble_saddle
from fluxfem.linsolve import solve_spd, solve_sym_indefinite
from fluxfem.mesh import build_unit_square_mesh
from fluxfem.nitsche import NitscheConfig, assemble_nitsche
from fluxfem.problems import affine_problem


def _solve_nitsche(problem, n, beta=10.0):
    space = P1Space(build_unit_square_mesh(n))
    cfg = NitscheConfig(beta=beta)
    u = solve_spd(assemble_nitsche(space, cfg, problem.f, problem.g)).x
    return space, cfg, u


def _solve_saddle(problem, n, alpha=10.0):
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    system = assemble_saddle(space, SaddleConfig(alpha=alpha), problem.f, problem.g)
    u, lam = system.split(solve_sym_indefinite(system).x)
    return space, u, lam


def test_field_validation():
    mesh = build_unit_square_mesh(2)
    for shape in [(7,), (8, 3), (8, 2, 1)]:
        with pytest.raises(ValueError):
            BoundaryFluxField(coefficients=np.zeros(shape), mesh=mesh)


def test_field_evaluation_shapes():
    mesh = build_unit_square_mesh(2)
    lin = BoundaryFluxField(coefficients=np.tile([0.0, 1.0], (8, 1)), mesh=mesh)
    vals = lin.facet_values([0.0, 0.5, 1.0])
    assert vals.shape == (8, 3)
    assert np.allclose(vals, [0.0, 0.5, 1.0])
    const = BoundaryFluxField(coefficients=np.arange(8.0), mesh=mesh)
    assert np.allclose(const.facet_values([0.25, 0.75])[3], 3.0)


def test_constant_problem_all_fluxes_vanish(const):
    space, cfg, u = _solve_nitsche(const, 4)
    mesh = space.mesh
    assert np.max(np.abs(nitsche_flux(u, const.g, space, cfg).coefficients)) <= 1e-10
    assert np.max(np.abs(variational_flux(u, const.g, const.f, space).coefficients)) <= 1e-10
    _, _, lam = _solve_saddle(const, 4)
    assert np.max(np.abs(multiplier_flux(lam, mesh).coefficients)) <= 1e-10


def test_affine_patch_pointwise_flux(affine):
    """u = x + y in the discrete space: the flux equals n.(1,1) per facet
    and the penalty part cancels."""
    space, cfg, u = _solve_nitsche(affine, 4)
    mesh = space.mesh
    field = nitsche_flux(u, affine.g, space, cfg)
    expected = mesh.facet_normals @ np.array([1.0, 1.0])
    assert np.max(np.abs(field.coefficients - expected[:, None])) <= 1e-10


def test_affine_patch_multiplier_flux():
    problem = affine_problem(1.0, 0.0, 0.0)
    space, _, lam = _solve_saddle(problem, 4)
    mesh = space.mesh
    field = multiplier_flux(lam, mesh)
    assert np.max(np.abs(field.coefficients - mesh.facet_normals[:, 0])) <= 1e-9


def test_exact_flux_pointwise_values(trig):
    """Bottom side carries sigma = -2*pi*sin(2*pi*x): zero at x = 0.5 and
    -2*pi at x = 0.25 (facets 2 and 1 of the n = 4 mesh at s = 0)."""
    mesh = build_unit_square_mesh(4)
    at_start = ExactFluxField(trig, mesh).facet_values([0.0])[:, 0]
    assert at_start[2] == pytest.approx(0.0, abs=1e-12)
    assert at_start[1] == pytest.approx(-2.0 * np.pi, abs=1e-12)


def test_exact_flux_midpoints(trig):
    mesh = build_unit_square_mesh(2)
    # the end of facet 0 is x = 0.5 on the bottom edge: sigma = -2*pi*sin(pi) = 0
    assert ExactFluxField(trig, mesh).facet_values([1.0])[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_exact_flux_norm(trig):
    from fluxfem.analysis import boundary_l2_norm

    mesh = build_unit_square_mesh(8)
    value = boundary_l2_norm(ExactFluxField(trig, mesh), mesh)
    assert value == pytest.approx(2.0 * np.sqrt(2.0) * np.pi, abs=1e-10)


def test_variational_flux_moment_identity(trig):
    """(Sigma, v)_G reproduces the residual functional for every
    boundary-vertex basis function, rebuilt here with independent loops."""
    space, cfg, u = _solve_nitsche(trig, 4)
    mesh = space.mesh
    field = variational_flux(u, trig.g, trig.f, space)

    from fluxfem.fem import triangle_quadrature

    rule = edge_quadrature()
    vol = triangle_quadrature(4)
    boundary_ids = np.unique(mesh.facet_vertices)
    for vid in boundary_ids:
        # left side: integral of Sigma * phi_vid over adjacent facets
        lhs = 0.0
        for k, (a, b) in enumerate(mesh.facet_vertices):
            if vid not in (a, b):
                continue
            tvals = field.facet_values(rule.points)[k]
            phi = 1.0 - rule.points if vid == a else rule.points
            lhs += mesh.facet_lengths[k] * np.sum(rule.weights * tvals * phi)
        # right side: (grad u_h, grad phi) - (u_h - g, n.grad phi)_G - (f, phi)
        rhs = 0.0
        for t_index, tri in enumerate(mesh.triangles):
            if vid not in tri:
                continue
            local = list(tri).index(vid)
            grads = space.gradients[t_index]
            coeffs = u[tri]
            rhs += space.areas[t_index] * float(grads[local] @ (coeffs @ grads))
            pts = space.quadrature_points(triangle_quadrature(4))[t_index]
            xi = vol.points
            bary = np.column_stack([1 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])
            fv = trig.f(pts[:, 0], pts[:, 1])
            rhs -= 2.0 * space.areas[t_index] * np.sum(vol.weights * fv * bary[:, local])
        for k, parent in enumerate(mesh.facet_parents):
            tri = mesh.triangles[parent]
            if vid not in tri:
                continue
            local = list(tri).index(vid)
            ndg = mesh.facet_normals[k] @ space.gradients[parent][local]
            p0, p1 = mesh.vertices[mesh.facet_vertices[k]]
            pts = p0[None, :] + rule.points[:, None] * (p1 - p0)[None, :]
            a, b = mesh.facet_vertices[k]
            u_trace = u[a] * (1 - rule.points) + u[b] * rule.points
            gv = trig.g(pts[:, 0], pts[:, 1])
            rhs -= ndg * mesh.facet_lengths[k] * np.sum(rule.weights * (u_trace - gv))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_affine_variational_flux_matches_dense_projection_oracle(affine):
    """For u = x + y the exact-g pointwise flux is the side-wise constant
    n.(1,1); project it with a dense independently assembled boundary
    mass system and compare."""
    space, cfg, u = _solve_nitsche(affine, 4)
    mesh = space.mesh
    field = variational_flux(u, affine.g, affine.f, space)

    boundary_ids = list(np.unique(mesh.facet_vertices))
    index = {v: i for i, v in enumerate(boundary_ids)}
    nb = len(boundary_ids)
    mass = np.zeros((nb, nb))
    rhs = np.zeros(nb)
    side_value = mesh.facet_normals @ np.array([1.0, 1.0])
    for k, (a, b) in enumerate(mesh.facet_vertices):
        h = mesh.facet_lengths[k]
        ia, ib = index[int(a)], index[int(b)]
        mass[ia, ia] += h / 3.0
        mass[ib, ib] += h / 3.0
        mass[ia, ib] += h / 6.0
        mass[ib, ia] += h / 6.0
        rhs[ia] += side_value[k] * h / 2.0
        rhs[ib] += side_value[k] * h / 2.0
    projected = np.linalg.solve(mass, rhs)
    for k, (a, b) in enumerate(mesh.facet_vertices):
        assert field.coefficients[k, 0] == pytest.approx(projected[index[int(a)]], abs=1e-9)
        assert field.coefficients[k, 1] == pytest.approx(projected[index[int(b)]], abs=1e-9)
    # corners carry the projected jump average: the (-1, +1) jump at
    # (1, 0) is antisymmetric, so the corner value is exactly zero
    corner = field.coefficients[3, 1]
    assert corner == pytest.approx(0.0, abs=1e-9)
    # ringing decays away from the corners toward the side constant
    assert field.coefficients[2, 0] == pytest.approx(-1.0, abs=0.1)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_variational_equals_projected_pointwise(trig, n):
    from fluxfem.analysis import boundary_l2_error

    space, cfg, u = _solve_nitsche(trig, n)
    var = variational_flux(u, trig.g, trig.f, space)
    proj = project_pointwise_flux(u, trig.g, space, cfg)
    assert boundary_l2_error(var, proj, space.mesh) <= 1e-9


def test_pointwise_values_use_exact_g(trig):
    """On facet interiors the exact-g evaluation differs from the nodal-g
    facet-wise linear field by the g interpolation error."""
    space, cfg, u = _solve_nitsche(trig, 4)
    field = nitsche_flux(u, trig.g, space, cfg)
    t = np.array([0.5])
    nodal = field.facet_values(t)
    exactg = pointwise_nitsche_values(u, trig.g, space, cfg, t)
    assert np.max(np.abs(nodal - exactg)) > 1e-3  # beta/h amplifies the gap
    ends = field.facet_values(np.array([0.0, 1.0]))
    exact_ends = pointwise_nitsche_values(u, trig.g, space, cfg, np.array([0.0, 1.0]))
    assert np.max(np.abs(ends - exact_ends)) <= 1e-10  # nodal g agrees at vertices


def test_multiplier_flux_first_order(trig):
    from fluxfem.analysis import boundary_l2_error

    errors = []
    for n in (16, 32):
        space, _, lam = _solve_saddle(trig, n, alpha=0.25)
        errors.append(boundary_l2_error(multiplier_flux(lam, space.mesh), ExactFluxField(trig, space.mesh), space.mesh))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.4)


def test_coefficient_size_guard(trig):
    space, cfg, u = _solve_nitsche(trig, 4)
    with pytest.raises(ValueError, match="do not match"):
        nitsche_flux(u[:-1], trig.g, space, cfg)
    with pytest.raises(ValueError, match="do not match"):
        pointwise_nitsche_values(np.append(u, 0.0), trig.g, space, cfg, [0.5])


def _nodal_g_reference(u, g, space, cfg):
    """The pointwise flux with g sampled at the facet vertices themselves."""
    mesh = space.mesh
    facets = space.facets
    grad_part = np.einsum("fk,fk->f", facets.ndg, u[facets.pdofs])
    ends = mesh.facet_vertices
    pv = mesh.vertices[ends]
    gnod = np.broadcast_to(np.asarray(g(pv[..., 0], pv[..., 1]), dtype=float), ends.shape)
    pen = cfg.beta / mesh.facet_lengths
    return grad_part[:, None] - pen[:, None] * (u[ends] - gnod)


def test_nitsche_flux_endpoints_equal_nodal_g_bitwise(trig):
    """facet_points(1.0) = p0 + (p1 - p0) is p1 exactly on these grids, so the
    endpoint values of the exact-g flux use the nodal values of g."""
    cfg = NitscheConfig(beta=10.0)
    for n in [*range(1, 40), 64, 100, 181, 256, 362, 512]:
        space = P1Space(build_unit_square_mesh(n))
        u = np.random.default_rng(n).standard_normal(space.n_dofs)
        field = nitsche_flux(u, trig.g, space, cfg)
        assert np.array_equal(field.coefficients, _nodal_g_reference(u, trig.g, space, cfg)), n


def _full_assembly_variational_flux(u, g, f, space):
    """The variational flux from the boundary rows of a full K u - b."""
    mesh = space.mesh
    full = stiffness_matrix(space) @ u - load_vector(space, f)
    t, w, pdofs, ndg, trace, points = space.facets
    u_trace = np.einsum("fkq,fk->fq", trace, u[pdofs])
    gvals = np.broadcast_to(np.asarray(g(points[..., 0], points[..., 1]), dtype=float), u_trace.shape)
    defect = mesh.facet_lengths * np.einsum("q,fq->f", w, u_trace - gvals)
    np.add.at(full, pdofs.ravel(), (-ndg * defect[:, None]).ravel())
    ids, lookup = _boundary_vertex_numbering(mesh)
    return _trace_field_from_moments(mesh, lookup, full[ids]).coefficients


def test_variational_flux_equals_full_assembly_bitwise(trig):
    """Restricting the volume terms to the boundary layer keeps every
    addition of a boundary row, in the same order."""
    for n in [*range(1, 40), 64, 91, 128, 181, 256]:
        space = P1Space(build_unit_square_mesh(n))
        u = np.random.default_rng(n).standard_normal(space.n_dofs)
        field = variational_flux(u, trig.g, trig.f, space)
        assert np.array_equal(field.coefficients, _full_assembly_variational_flux(u, trig.g, trig.f, space)), n


def test_variational_flux_evaluates_f_on_the_boundary_layer_only(trig):
    """O(n) volume work: at most 8n triangles of 6 points each, not all 2n^2."""
    n = 64
    space = P1Space(build_unit_square_mesh(n))
    u = np.random.default_rng(n).standard_normal(space.n_dofs)
    evaluated = 0

    def counted_f(x, y):
        nonlocal evaluated
        evaluated += np.size(x)
        return trig.f(x, y)

    variational_flux(u, trig.g, counted_f, space)
    assert 0 < evaluated <= 6 * 8 * n
