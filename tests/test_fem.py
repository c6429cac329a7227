import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fluxfem import fem
from fluxfem.fem import (
    ALL_CELLS,
    EDGE_POINTS,
    P1Space,
    basis_at,
    boundary_field_values,
    edge_quadrature,
    load_vector,
    local_to_global,
    locate_points,
    locate_triangle,
    located_gradients,
    located_values,
    mass_matrix,
    nodal_interpolant,
    stiffness_matrix,
    triangle_quadrature,
)
from fluxfem.lagrange import SaddleConfig, assemble_saddle
from fluxfem.mesh import build_unit_square_mesh
from fluxfem.nitsche import NitscheConfig, assemble_nitsche


def reference_triangle_integral(a, b):
    # int over {x,y>=0, x+y<=1} of x^a y^b

    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [4, 6])
def test_triangle_rule_properties(degree):
    rule = triangle_quadrature(degree)
    assert abs(rule.weights.sum() - 0.5) <= 1e-14
    assert np.all(rule.weights > 0.0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert approx == pytest.approx(reference_triangle_integral(a, b), abs=1e-12)


def test_triangle_rule_area():
    rule = triangle_quadrature(4)
    assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-15)


def test_triangle_degree4_x2y2():
    rule = triangle_quadrature(4)
    value = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
    assert value == pytest.approx(1.0 / 180.0, abs=1e-14)


def test_edge_rule_properties():
    rule = edge_quadrature()
    assert len(rule.weights) == EDGE_POINTS
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    assert np.all(rule.weights > 0.0)
    for k in range(2 * EDGE_POINTS):
        assert np.sum(rule.weights * rule.points**k) == pytest.approx(
            1.0 / (k + 1), abs=1e-12
        )


def test_unsupported_rules():
    for degree in (5, 7):
        with pytest.raises(ValueError):
            triangle_quadrature(degree)


def eval_basis(vertices, x):
    """Barycentric P1 basis values (3,) and gradients (3, 2) on one
    positively oriented triangle (3, 2) at a point x inside it; the
    per-point oracle of the vectorized tables."""
    vertices = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    e1 = vertices[1] - vertices[0]
    e2 = vertices[2] - vertices[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if det <= 0.0:
        raise ValueError(f"degenerate or misoriented triangle (2*area={det})")
    binv = np.array([[e2[1], -e2[0]], [-e1[1], e1[0]]]) / det
    xi = binv @ (x - vertices[0])
    values = np.array([1.0 - xi[0] - xi[1], xi[0], xi[1]])
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        raise ValueError(f"point {x} lies outside the triangle")
    gradients = np.vstack([-binv[0] - binv[1], binv[0], binv[1]])
    return values, gradients


def test_eval_basis_reference_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    values, grads = eval_basis(tri, [1.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(values, [1.0 / 3.0] * 3, atol=1e-14)
    assert np.allclose(grads, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-14)
    values, _ = eval_basis(tri, [0.0, 0.0])
    assert np.allclose(values, [1.0, 0.0, 0.0], atol=1e-14)


def test_eval_basis_rejects_bad_input():
    degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        eval_basis(degenerate, [0.5, 0.0])
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="outside"):
        eval_basis(tri, [0.9, 0.9])


def test_partition_of_unity_and_gradient_sum(rng):
    mesh = build_unit_square_mesh(5)
    space = P1Space(mesh)
    for _ in range(50):
        tri = rng.integers(0, mesh.n_triangles)
        lam = rng.dirichlet(np.ones(3))
        x = lam @ mesh.vertices[mesh.triangles[tri]]
        values, grads = eval_basis(mesh.vertices[mesh.triangles[tri]], x)
        assert abs(values.sum() - 1.0) <= 1e-13
        assert np.max(np.abs(grads.sum(axis=0))) <= 1e-12
    # vectorized tables agree with the per-triangle computation
    assert np.max(np.abs(space.gradients.sum(axis=1))) <= 1e-12


def test_space_dof_maps():
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    assert space.n_dofs == mesh.n_vertices


def _broadcast_quadrature_points(space, rule):
    """Physical points by one broadcast over the coordinate axis."""
    v = space.mesh.vertices[space.mesh.triangles]
    xi = rule.points
    return (
        v[:, None, 0, :]
        + xi[None, :, 0, None] * (v[:, 1] - v[:, 0])[:, None, :]
        + xi[None, :, 1, None] * (v[:, 2] - v[:, 0])[:, None, :]
    )


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("degree", [4, 6])
def test_quadrature_points_equal_the_broadcast_formula_bitwise(degree, n):
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    rule = triangle_quadrature(degree)
    pts = space.quadrature_points(rule)
    assert pts.shape == (mesh.n_triangles, len(rule.weights), 2)
    assert np.array_equal(pts, _broadcast_quadrature_points(space, rule))
    cells = np.arange(0, mesh.n_triangles, 3)
    assert np.array_equal(space.quadrature_points(rule, cells), pts[cells])


def test_facet_tables():
    mesh = build_unit_square_mesh(5)
    facets = P1Space(mesh).facets
    rule = edge_quadrature()
    assert np.array_equal(facets.t, rule.points) and np.array_equal(facets.w, rule.weights)
    assert np.array_equal(facets.hw, mesh.facet_lengths[:, None] * rule.weights[None, :])
    assert np.array_equal(facets.points, mesh.facet_points(facets.t))
    assert facets.trace.shape == (mesh.n_facets, 3, EDGE_POINTS)
    for f, ends in enumerate(mesh.facet_vertices):
        pdofs, trace = facets.pdofs[f], facets.trace[f]
        assert set(ends) <= set(pdofs)
        off = ~np.isin(pdofs, ends)
        assert off.sum() == 1
        # the trace basis is a partition of unity that vanishes off the facet
        assert np.allclose(trace.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
        assert np.all(trace[off] == 0.0)
        for q in range(EDGE_POINTS):
            values, gradients = eval_basis(mesh.vertices[pdofs], facets.points[f, q])
            assert np.allclose(trace[:, q], values, rtol=0.0, atol=1e-14)
        assert np.allclose(facets.ndg[f], gradients @ mesh.facet_normals[f], rtol=0.0, atol=1e-12)


def test_boundary_field_values_accepts_facet_point_values_only():
    mesh = build_unit_square_mesh(3)
    space = P1Space(mesh)
    points = space.facets.points
    at_points = points[..., 0] + 2.0 * points[..., 1]
    evaluated = boundary_field_values(lambda x, y: x + 2.0 * y, space)
    assert np.array_equal(evaluated, at_points)
    assert np.array_equal(boundary_field_values(at_points, space), at_points)
    with pytest.raises(TypeError, match="boundary data"):
        boundary_field_values(np.ones(mesh.n_facets), space)


def test_nodal_interpolant_affine_exact(affine, rng):
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    coeffs = nodal_interpolant(affine.u, space)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    where = locate_points(pts, space)
    values, grads = located_values(coeffs, where, space), located_gradients(coeffs, where, space)
    assert np.max(np.abs(values - affine.u(pts[:, 0], pts[:, 1]))) <= 1e-13
    assert np.max(np.abs(grads - [1.0, 1.0])) <= 1e-12


def test_nodal_interpolant_constants():
    mesh = build_unit_square_mesh(3)
    space = P1Space(mesh)
    coeffs = nodal_interpolant(lambda x, y: np.ones_like(x), space)
    assert np.allclose(coeffs, 1.0)


def test_nodal_interpolant_rejects_nonfinite():
    mesh = build_unit_square_mesh(2)
    space = P1Space(mesh)
    with pytest.raises(ValueError, match="finite"):
        nodal_interpolant(lambda x, y: np.where(x > 0.4, np.nan, 1.0), space)


def test_interpolation_error_halves_by_four(trig):
    from fluxfem.analysis import error_norms

    errors = []
    for n in (4, 8, 16):
        space = P1Space(build_unit_square_mesh(n))
        coeffs = nodal_interpolant(trig.u, space)
        errors.append(error_norms(trig, space, coeffs)[1])
    assert errors[0] > 0.0
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.5)


def test_located_evaluation_affine(affine):
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    coeffs = nodal_interpolant(affine.u, space)
    where = locate_points([[0.3, 0.4]], space)
    assert located_values(coeffs, where, space)[0] == pytest.approx(0.7, abs=1e-14)
    assert np.allclose(located_gradients(coeffs, where, space)[0], (1.0, 1.0), atol=1e-13)
    zero = np.zeros(space.n_dofs)
    assert located_values(zero, where, space)[0] == 0.0
    assert np.allclose(located_gradients(zero, where, space)[0], (0.0, 0.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 11, 16, 23, 32, 45, 64, 128])
def test_quadrature_and_facet_points_locate_to_their_own_triangles(n):
    """The points of triangle t's volume rule locate to t and the facet Gauss
    points to each facet's parent, so a per-triangle gradient is the located
    gradient bit for bit."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    coeffs = np.random.default_rng([3, n]).standard_normal(space.n_dofs)
    cell_grad = np.einsum("ti,tid->td", coeffs[mesh.triangles], space.gradients)
    for degree in (4, 6):
        n_q = len(triangle_quadrature(degree).weights)
        where = locate_points(space.quadrature_points(triangle_quadrature(degree)).reshape(-1, 2), space)
        assert np.array_equal(where.triangles, np.repeat(np.arange(mesh.n_triangles), n_q))
        located = located_gradients(coeffs, where, space)
        assert located.tobytes() == np.repeat(cell_grad, n_q, axis=0).tobytes()
    where = locate_points(mesh.facet_points(edge_quadrature().points).reshape(-1, 2), space)
    assert np.array_equal(where.triangles, np.repeat(mesh.facet_parents, EDGE_POINTS))


def _inverse_maps(mesh):
    """Per-triangle inverse affine maps, (n_triangles, 2, 2), as binv / det."""
    v = mesh.vertices[mesh.triangles]
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    binv = np.empty((mesh.n_triangles, 2, 2))
    binv[:, 0, 0] = e2[:, 1]
    binv[:, 0, 1] = -e2[:, 0]
    binv[:, 1, 0] = -e1[:, 1]
    binv[:, 1, 1] = e1[:, 0]
    return binv / det[:, None, None]


@pytest.mark.parametrize("n", [1, 7, 64])
def test_locate_points_matches_the_inverse_map_oracle_bitwise(n):
    """The gradient table holds the inverse maps in rows 1 and 2 and their
    negated sum in row 0; point location reads them for the same bits."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    binv = _inverse_maps(mesh)
    assert np.array_equal(space.gradients[:, 1:], binv)
    assert np.array_equal(space.gradients[:, 0], -binv[:, 0] - binv[:, 1])
    rng = np.random.default_rng([5, n])
    pts = np.vstack([rng.random((500, 2)), space.facets.points.reshape(-1, 2), mesh.vertices])
    where = locate_points(pts, space)
    origins = mesh.vertices[mesh.triangles][:, 0]
    local = np.einsum("mij,mj->mi", binv[where.triangles], pts - origins[where.triangles])
    oracle = np.column_stack([1.0 - local[:, 0] - local[:, 1], local[:, 0], local[:, 1]])
    assert where.barycentric.tobytes() == oracle.tobytes()


def test_one_sided_gradients_across_interior_edge():
    """The interpolant of x^2 has different constant gradients in the two
    triangles meeting at an interior edge; compare against the affine
    fit through the vertex values of each triangle."""
    mesh = build_unit_square_mesh(2)
    space = P1Space(mesh)
    coeffs = nodal_interpolant(lambda x, y: np.asarray(x) ** 2, space)

    def affine_gradient(tri_index):
        tri = mesh.triangles[tri_index]
        v = mesh.vertices[tri]
        ones = np.column_stack([np.ones(3), v])
        sol = np.linalg.solve(ones, coeffs[tri])
        return sol[1:]

    # edge x = 0.5 between cell (0,0) lower triangle and cell (1,0) triangles
    left = locate_triangle(mesh, [[0.499999, 0.25]])[0]
    right = locate_triangle(mesh, [[0.500001, 0.25]])[0]
    assert left != right
    gl, gr = located_gradients(coeffs, locate_points([[0.499999, 0.25], [0.500001, 0.25]], space), space)
    assert np.allclose(gl, affine_gradient(left), atol=1e-9)
    assert np.allclose(gr, affine_gradient(right), atol=1e-9)
    assert not np.allclose(gl, gr)


def test_locate_rejects_outside_points():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(ValueError, match="outside"):
        locate_triangle(mesh, [[1.5, 0.5]])
    for bad in (np.nan, np.inf, -np.inf):
        for point in ([bad, 0.5], [0.5, bad]):
            with pytest.raises(ValueError, match="cannot be located"):
                locate_triangle(mesh, [point])


def _one_shot_load_vector(space, f, degree, cells):
    """load_vector as one evaluation over all the triangles `cells`."""
    rule = triangle_quadrature(degree)
    pts = space.quadrature_points(rule, cells)
    fvals = np.broadcast_to(np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:-1])
    local = 2.0 * space.areas[cells, None] * np.einsum("q,tq,qk->tk", rule.weights, fvals, basis_at(rule))
    b = np.zeros(space.n_dofs)
    np.add.at(b, space.mesh.triangles[cells].ravel(), local.ravel())
    return b


def _boundary_layer(mesh):
    """The variational flux's cells: the triangles with a boundary vertex."""
    return np.flatnonzero(np.isin(mesh.triangles, mesh.facet_vertices).any(axis=1))


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("n", [1, 7, 45, 46, 64, 91])
@pytest.mark.parametrize("degree", [4, 6])
def test_blocked_load_vector_matches_one_shot_bitwise(monkeypatch, trig, degree, n, block):
    """n = 46 is the first grid with more than one default block; a block of
    64 triangles also splits the boundary layer's index array."""
    if block is not None:
        monkeypatch.setattr(fem, "BLOCK_TRIANGLES", block)
    space = P1Space(build_unit_square_mesh(n))
    for cells in (ALL_CELLS, _boundary_layer(space.mesh)):
        got = load_vector(space, trig.f, degree, cells)
        assert np.array_equal(got, _one_shot_load_vector(space, trig.f, degree, cells))


@pytest.mark.parametrize("cells", [ALL_CELLS, slice(3, 100), np.array([5, 0, 7, 7, 2, 90])])
def test_cell_blocks_cover_the_cells_in_order(monkeypatch, cells):
    monkeypatch.setattr(fem, "BLOCK_TRIANGLES", 4)
    index = np.arange(98)
    blocks = list(fem.cell_blocks(98, cells))
    assert all(len(index[block]) <= 4 for block in blocks)
    assert np.array_equal(np.concatenate([index[block] for block in blocks]), index[cells])
    assert all(isinstance(block, slice) == isinstance(cells, slice) for block in blocks)


def test_mesh_index_tables_are_int32():
    mesh = build_unit_square_mesh(5)
    space = P1Space(mesh)
    for table in (mesh.triangles, mesh.facet_vertices, mesh.facet_parents, space.facets.pdofs):
        assert table.dtype == np.int32


@pytest.mark.parametrize("n", [1, 7, 64])
def test_local_to_global_matches_an_int64_coo_oracle_bitwise(n):
    """int32 COO indices give the same CSR arrays, duplicates summed in the
    same order, as the int64 scatter."""
    mesh = build_unit_square_mesh(n)
    local = np.random.default_rng(n).standard_normal((mesh.n_triangles, 3, 3))
    dofs = mesh.triangles.astype(np.int64)
    oracle = sp.coo_matrix(
        (local.ravel(), (np.repeat(dofs, 3, axis=1).ravel(), np.tile(dofs, (1, 3)).ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices),
    ).tocsr()
    got = local_to_global(mesh.triangles, local, mesh.n_vertices)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(oracle, name))


@pytest.mark.parametrize("n", [*range(1, 25), 64])
def test_stiffness_and_mass_are_exactly_symmetric_without_zeros(n):
    """No averaging pass is needed; the stiffness couplings along the diagonal
    edges vanish and are dropped, leaving the five-point stencil."""
    space = P1Space(build_unit_square_mesh(n))
    stiffness, mass = stiffness_matrix(space), mass_matrix(space)
    for matrix in (stiffness, mass):
        assert (matrix != matrix.T).nnz == 0
        assert np.all(matrix.data != 0.0)
    assert stiffness.nnz == (n + 1) ** 2 + 4 * n * (n + 1)


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_load_vector_peak_memory_is_a_few_blocks(trig):
    """n = 256 peaked at 28.1 MiB with one full-mesh table, 2.2 MiB in blocks."""
    space = P1Space(build_unit_square_mesh(256))
    assert _traced_peak_mib(lambda: load_vector(space, trig.f)) <= 8.0


@pytest.mark.parametrize(
    "assemble", [lambda s, p: assemble_nitsche(s, NitscheConfig(), p.f, p.g),
                 lambda s, p: assemble_saddle(s, SaddleConfig(), p.f, p.g)],
    ids=["nitsche", "saddle"],
)
def test_assembly_peak_memory_at_n_256(trig, assemble):
    """int64 COO indices and a one-shot load vector peaked at 55.0 MiB, int32
    indices and a blocked load vector at 37.0 MiB."""
    space = P1Space(build_unit_square_mesh(256))
    assert _traced_peak_mib(lambda: assemble(space, trig)) <= 46.0
