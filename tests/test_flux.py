import re

import numpy as np
import pytest

from fluxfem import flux
from fluxfem.cli import MAX_LEVEL, MIN_LEVEL, level_grid_n
from fluxfem.fem import EDGE_POINTS, P1Space, assemble, edge_quadrature, load_vector, stiffness_matrix
from fluxfem.flux import (
    _boundary_layer,
    _boundary_vertex_numbering,
    _facet_linear,
    _trace_field_from_moments,
    exact_flux,
    multiplier_flux,
    nitsche_flux,
    pointwise_nitsche_values,
    project_pointwise_flux,
    variational_flux,
)
from fluxfem.lagrange import SaddleConfig
from fluxfem.linsolve import SolverError, solve_spd, solve_sym_indefinite
from fluxfem.mesh import build_unit_square_mesh
from fluxfem.nitsche import NitscheConfig
from fluxfem.problems import affine_problem


def _solve_nitsche(problem, n, beta=10.0):
    space = P1Space(build_unit_square_mesh(n))
    cfg = NitscheConfig(beta=beta)
    u = solve_spd(assemble(space, cfg, problem.f, problem.g)).x
    return space, cfg, u


def _solve_saddle(problem, n, alpha=10.0):
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    system = assemble(space, SaddleConfig(alpha=alpha), problem.f, problem.g)
    u, lam = system.split(solve_sym_indefinite(system).x)
    return space, u, lam


def test_every_recovery_returns_values_at_the_facet_points(trig):
    """A flux is a float array (n_facets, EDGE_POINTS) on `space.facets`,
    like the exact flux; the facet-wise linear ones take their end values
    to the facet points as c0 (1 - t) + c1 t."""
    space, cfg, u = _solve_nitsche(trig, 4)
    _, _, lam = _solve_saddle(trig, 4)
    fluxes = [
        nitsche_flux(u, trig.g, space, cfg),
        pointwise_nitsche_values(u, trig.g, space, cfg),
        variational_flux(u, trig.g, trig.f, space),
        project_pointwise_flux(u, trig.g, space, cfg),
        multiplier_flux(lam, space.mesh),
    ]
    for values in fluxes:
        assert values.shape == (16, EDGE_POINTS) and values.dtype == np.float64
    assert np.array_equal(fluxes[-1], np.repeat(-lam[:, None], EDGE_POINTS, axis=1))
    t = space.facets.t
    ends = np.column_stack([np.arange(16.0), -np.arange(16.0)])
    assert np.allclose(_facet_linear(ends, space), np.arange(16.0)[:, None] * (1.0 - 2.0 * t))


def test_constant_problem_all_fluxes_vanish(const):
    space, cfg, u = _solve_nitsche(const, 4)
    mesh = space.mesh
    assert np.max(np.abs(nitsche_flux(u, const.g, space, cfg))) <= 1e-10
    assert np.max(np.abs(variational_flux(u, const.g, const.f, space))) <= 1e-10
    _, _, lam = _solve_saddle(const, 4)
    assert np.max(np.abs(multiplier_flux(lam, mesh))) <= 1e-10


def test_affine_patch_pointwise_flux(affine):
    """u = x + y in the discrete space: the flux equals n.(1,1) per facet
    and the penalty part cancels."""
    space, cfg, u = _solve_nitsche(affine, 4)
    mesh = space.mesh
    values = nitsche_flux(u, affine.g, space, cfg)
    expected = mesh.facet_normals @ np.array([1.0, 1.0])
    assert np.max(np.abs(values - expected[:, None])) <= 1e-10


def test_affine_patch_multiplier_flux():
    problem = affine_problem(1.0, 0.0, 0.0)
    space, _, lam = _solve_saddle(problem, 4)
    mesh = space.mesh
    values = multiplier_flux(lam, mesh)
    assert np.max(np.abs(values - mesh.facet_normals[:, [0]])) <= 1e-9


def test_exact_flux_pointwise_values(trig):
    """Bottom side carries sigma = -2*pi*sin(2*pi*x): zero at x = 0.5 and
    -2*pi at x = 0.25 (facets 2 and 1 of the n = 4 mesh at s = 0)."""
    mesh = build_unit_square_mesh(4)
    starts = mesh.facet_points(np.array([0.0]))[:, 0]
    at_start = trig.sigma_n(starts[:, 0], starts[:, 1], mesh.facet_normals)
    assert at_start[2] == pytest.approx(0.0, abs=1e-12)
    assert at_start[1] == pytest.approx(-2.0 * np.pi, abs=1e-12)


def test_exact_flux_midpoints(trig):
    mesh = build_unit_square_mesh(2)
    # the end of facet 0 is x = 0.5 on the bottom edge: sigma = -2*pi*sin(pi) = 0
    (x, y), = mesh.facet_points(np.array([1.0]))[0]
    assert trig.sigma_n(x, y, mesh.facet_normals[0]) == pytest.approx(0.0, abs=1e-12)


def test_exact_flux_norm(trig):
    from fluxfem.analysis import boundary_l2_norm

    space = P1Space(build_unit_square_mesh(8))
    value = boundary_l2_norm(exact_flux(trig, space), space)
    assert value == pytest.approx(2.0 * np.sqrt(2.0) * np.pi, abs=1e-10)


def test_variational_flux_moment_identity(trig):
    """(Sigma, v)_G reproduces the residual functional for every
    boundary-vertex basis function, rebuilt here with independent loops."""
    space, cfg, u = _solve_nitsche(trig, 4)
    mesh = space.mesh
    values = variational_flux(u, trig.g, trig.f, space)

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
            tvals = values[k]  # at the edge rule's points
            phi = 1.0 - rule.points if vid == a else rule.points
            lhs += mesh.facet_lengths[k] * np.sum(rule.weights * tvals * phi)
        # right side: (grad u_h, grad phi) - (u_h - g, n.grad phi)_G - (f, phi)
        rhs = 0.0
        for t_index, tri in enumerate(mesh.triangles):
            if vid not in tri:
                continue
            local = list(tri).index(vid)
            (area,), grads, pts = space.geometry([t_index], triangle_quadrature(4))
            grads, pts = grads[..., 0], pts[..., 0].T
            coeffs = u[tri]
            rhs += area * float(grads[local] @ (coeffs @ grads))
            xi = vol.points
            bary = np.column_stack([1 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])
            fv = trig.f(pts[:, 0], pts[:, 1])
            rhs -= 2.0 * area * np.sum(vol.weights * fv * bary[:, local])
        for k, parent in enumerate(mesh.facet_parents):
            tri = mesh.triangles[parent]
            if vid not in tri:
                continue
            local = list(tri).index(vid)
            ndg = mesh.facet_normals[k] @ space.geometry([parent]).grads[local, :, 0]
            p0, p1 = mesh.vertices[mesh.facet_vertices[k]]
            pts = p0[None, :] + rule.points[:, None] * (p1 - p0)[None, :]
            a, b = mesh.facet_vertices[k]
            u_trace = u[a] * (1 - rule.points) + u[b] * rule.points
            gv = trig.g(pts[:, 0], pts[:, 1])
            rhs -= ndg * mesh.facet_lengths[k] * np.sum(rule.weights * (u_trace - gv))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_affine_variational_flux_matches_dense_projection_oracle(affine, monkeypatch):
    """For u = x + y the exact-g pointwise flux is the side-wise constant
    n.(1,1); project it with a dense independently assembled boundary
    mass system and compare, at the trace dofs and at the facet points."""
    space, cfg, u = _solve_nitsche(affine, 4)
    mesh = space.mesh
    solves = []

    def recorded(*args):
        solves.append(_trace_field_from_moments(*args))
        return solves[-1]

    monkeypatch.setattr(flux, "_trace_field_from_moments", recorded)
    values = variational_flux(u, affine.g, affine.f, space)
    (dofs,) = solves

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
    # the trace dofs are the boundary vertices in ascending order, as `index`
    assert dofs == pytest.approx(projected, abs=1e-9)
    t = space.facets.t
    for k, (a, b) in enumerate(mesh.facet_vertices):
        at_points = projected[index[int(a)]] * (1.0 - t) + projected[index[int(b)]] * t
        assert values[k] == pytest.approx(at_points, abs=1e-9)
    # corners carry the projected jump average: the (-1, +1) jump at
    # (1, 0) is antisymmetric, so the corner value is exactly zero
    corner = dofs[index[int(mesh.facet_vertices[3, 1])]]
    assert corner == pytest.approx(0.0, abs=1e-9)
    # ringing decays away from the corners toward the side constant
    assert dofs[index[int(mesh.facet_vertices[2, 0])]] == pytest.approx(-1.0, abs=0.1)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_variational_equals_projected_pointwise(trig, n):
    from fluxfem.analysis import boundary_l2_error

    space, cfg, u = _solve_nitsche(trig, n)
    var = variational_flux(u, trig.g, trig.f, space)
    proj = project_pointwise_flux(u, trig.g, space, cfg)
    assert boundary_l2_error(var, proj, space) <= 1e-9


def test_pointwise_values_use_exact_g(trig):
    """On facet interiors the exact-g evaluation differs from the nodal-g
    facet-wise linear field by the g interpolation error."""
    space, cfg, u = _solve_nitsche(trig, 4)
    nodal = nitsche_flux(u, trig.g, space, cfg)
    exactg = pointwise_nitsche_values(u, trig.g, space, cfg)
    assert np.max(np.abs(nodal - exactg)) > 1e-3  # beta/h amplifies the gap
    # with g's facet-wise linear interpolant for g the two agree
    xy = space.mesh.vertices[space.mesh.facet_vertices]
    g_interpolant = _facet_linear(trig.g(xy[..., 0], xy[..., 1]), space)
    assert np.max(np.abs(nodal - pointwise_nitsche_values(u, g_interpolant, space, cfg))) <= 1e-10


def test_multiplier_flux_first_order(trig):
    from fluxfem.analysis import boundary_l2_error

    errors = []
    for n in (16, 32):
        space, _, lam = _solve_saddle(trig, n, alpha=0.25)
        errors.append(boundary_l2_error(multiplier_flux(lam, space.mesh), exact_flux(trig, space), space))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.4)


def test_coefficient_size_guard(trig):
    space, cfg, u = _solve_nitsche(trig, 4)
    with pytest.raises(ValueError, match="do not match"):
        nitsche_flux(u[:-1], trig.g, space, cfg)
    with pytest.raises(ValueError, match="do not match"):
        pointwise_nitsche_values(np.append(u, 0.0), trig.g, space, cfg)
    for wrong, shape in ((u[:-1], "(24,)"), (np.append(u, 0.0), "(26,)"), (u[:, None], "(25, 1)")):
        with pytest.raises(ValueError, match=re.escape(f"coefficients sized {shape} do not match the space (25)")):
            variational_flux(wrong, trig.g, trig.f, space)


def test_multiplier_flux_takes_one_coefficient_per_facet(trig):
    """lam is a vector over the facets: a wrong length and (n_facets, 2) end
    values are both refused by the coefficient check."""
    _, _, lam = _solve_saddle(trig, 4)
    mesh = build_unit_square_mesh(4)
    for wrong, shape in ((lam[:-1], "(15,)"), (np.column_stack([lam, lam]), "(16, 2)")):
        with pytest.raises(ValueError, match=re.escape(f"coefficients sized {shape} do not match the space (16)")):
            multiplier_flux(wrong, mesh)


def _nodal_g_reference(u, g, space, cfg):
    """The pointwise flux end values (n_facets, 2) with g sampled at the facet
    parameters t = 0 and t = 1, as the flux was once stored."""
    mesh = space.mesh
    facets = space.facets
    grad_part = np.einsum("fk,fk->f", facets.ndg, u[facets.pdofs])
    ends = mesh.facet_vertices
    pv = mesh.facet_points(np.array([0.0, 1.0]))
    gnod = np.broadcast_to(np.asarray(g(pv[..., 0], pv[..., 1]), dtype=float), ends.shape)
    pen = cfg.beta / mesh.facet_lengths
    return grad_part[:, None] - pen[:, None] * (u[ends] - gnod)


def test_nitsche_flux_endpoints_equal_nodal_g_bitwise(trig):
    """facet_points(1.0) = p0 + (p1 - p0) is p1 exactly on every grid a level
    can have: neighbouring coordinates differ by a factor of at most 2 or one
    is 0, so p1 - p0 is exact (Sterbenz) and so is the sum. g read at the
    facet vertices is therefore g at t = 0 and t = 1, bit for bit."""
    cfg = NitscheConfig(beta=10.0)
    levels = {level_grid_n(k) for k in range(MIN_LEVEL, MAX_LEVEL + 1)}
    for n in sorted({*range(1, 40), 64, 100, *levels}):
        mesh = build_unit_square_mesh(n)
        assert np.array_equal(mesh.facet_points(np.array([0.0, 1.0])), mesh.vertices[mesh.facet_vertices]), n
        space = P1Space(mesh)
        u = np.random.default_rng(n).standard_normal(space.n_dofs)
        values = nitsche_flux(u, trig.g, space, cfg)
        assert np.array_equal(values, _facet_linear(_nodal_g_reference(u, trig.g, space, cfg), space)), n


def _full_assembly_variational_flux(u, g, f, space):
    """The variational flux from the boundary rows of a full K u - b."""
    mesh = space.mesh
    full = stiffness_matrix(space) @ u - load_vector(space, f)
    t, w, _, pdofs, ndg, trace, points = space.facets
    u_trace = np.einsum("fkq,fk->fq", trace, u[pdofs])
    gvals = np.broadcast_to(np.asarray(g(points[..., 0], points[..., 1]), dtype=float), u_trace.shape)
    defect = mesh.facet_lengths * np.einsum("q,fq->f", w, u_trace - gvals)
    np.add.at(full, pdofs.ravel(), (-ndg * defect[:, None]).ravel())
    ids, ends = _boundary_vertex_numbering(mesh)
    return _facet_linear(_trace_field_from_moments(mesh, ends, full[ids])[ends], space)


def test_variational_flux_equals_full_assembly_bitwise(trig):
    """Restricting the volume terms to the boundary layer keeps every
    addition of a boundary row, in the same order."""
    for n in [*range(1, 40), 64, 91, 128, 181, 256]:
        space = P1Space(build_unit_square_mesh(n))
        u = np.random.default_rng(n).standard_normal(space.n_dofs)
        values = variational_flux(u, trig.g, trig.f, space)
        assert np.array_equal(values, _full_assembly_variational_flux(u, trig.g, trig.f, space)), n


@pytest.mark.parametrize("n", range(1, 65))
def test_boundary_layer_from_a_vertex_mask_equals_the_sorted_search(n):
    """The layer read off a boolean vertex mask is the np.isin layer: the same
    triangles, ascending, in an index array of the same dtype."""
    mesh = build_unit_square_mesh(n)
    ids, _ = _boundary_vertex_numbering(mesh)
    layer = _boundary_layer(mesh, ids)
    expected = np.flatnonzero(np.isin(mesh.triangles, ids).any(axis=1))
    assert layer.dtype == expected.dtype and np.array_equal(layer, expected)


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


def test_variational_flux_of_non_finite_data_fails_its_certified_solve(trig):
    """The boundary mass solve is linsolve's, so NaN moments raise instead
    of coming back as NaN coefficients."""
    space = P1Space(build_unit_square_mesh(4))
    with pytest.raises(SolverError, match="residual"):
        variational_flux(np.full(space.n_dofs, np.nan), trig.g, trig.f, space)
