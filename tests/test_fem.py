import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fluxfem import fem, linsolve
from fluxfem.analysis import error_norms
from fluxfem.cli import main
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
from fluxfem.lagrange import SaddleConfig
from fluxfem.mesh import build_unit_square_mesh
from fluxfem.nitsche import NitscheConfig


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
    assert np.max(np.abs(space.cell_geometry()[1].sum(axis=1))) <= 1e-12


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


def _broadcast_geometry(space):
    """Areas (m,) and basis gradients (m, 3, 2) by broadcasts over the
    coordinate axis: gradients 1 and 2 are the rows of the inverse Jacobian."""
    v = space.mesh.vertices[space.mesh.triangles]
    e = v[:, 1:] - v[:, :1]
    det = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    g1 = np.stack([e[:, 1, 1] / det, -e[:, 1, 0] / det], axis=1)
    g2 = np.stack([-e[:, 0, 1] / det, e[:, 0, 0] / det], axis=1)
    return 0.5 * det, np.stack([-g1 - g2, g1, g2], axis=1)


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("degree", [4, 6])
def test_quadrature_points_equal_the_broadcast_formula_bitwise(degree, n):
    """The triangle-major views and the component-major rows of `geometry`
    are bitwise the broadcast formulas, for slices and index arrays of cells."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    rule = triangle_quadrature(degree)
    pts = space.quadrature_points(rule)
    assert pts.shape == (mesh.n_triangles, len(rule.weights), 2)
    expected_pts = _broadcast_quadrature_points(space, rule)
    assert np.array_equal(pts, expected_pts)
    expected_areas, expected_grads = _broadcast_geometry(space)
    areas, grads = space.cell_geometry()
    assert np.array_equal(areas, expected_areas) and np.array_equal(grads, expected_grads)
    half = mesh.n_triangles // 2
    for cells in (fem.ALL_CELLS, slice(half, None), slice(1, None, 2), np.arange(0, mesh.n_triangles, 3)):
        assert np.array_equal(space.quadrature_points(rule, cells), pts[cells])
        geometry = space.geometry(cells, rule)
        m = len(expected_areas[cells])
        assert geometry.points.shape == (2, len(rule.weights), m)
        assert geometry.grads.shape == (3, 2, m)
        assert all(row.flags.c_contiguous for row in geometry.points)
        assert np.array_equal(geometry.points, expected_pts[cells].transpose(2, 1, 0))
        assert np.array_equal(geometry.grads, expected_grads[cells].transpose(1, 2, 0))
        assert np.array_equal(geometry.areas, expected_areas[cells])
        assert space.geometry(cells).points is None


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
    with pytest.raises(ValueError, match=r"shape \(12,\) do not match the facet points \(12, 6\)"):
        boundary_field_values(np.ones(mesh.n_facets), space)
    with pytest.raises(TypeError, match="boundary data"):
        boundary_field_values(1.0, space)


def test_boundary_values_of_another_mesh_name_both_shapes():
    """An array of values at another mesh's facet points is boundary data of
    another mesh: a ValueError naming both shapes, as for a flux field."""
    space = P1Space(build_unit_square_mesh(8))
    with pytest.raises(ValueError, match=r"shape \(16, 6\) do not match the facet points \(32, 6\)"):
        boundary_field_values(np.ones((16, 6)), space)


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
    cell_grad = np.einsum("ti,tid->td", coeffs[mesh.triangles], space.cell_geometry()[1])
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
    """The basis gradients hold the inverse maps in rows 1 and 2 and their
    negated sum in row 0; point location reads them for the same bits."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    binv = _inverse_maps(mesh)
    _, grads = space.cell_geometry()
    assert np.array_equal(grads[:, 1:], binv)
    assert np.array_equal(grads[:, 0], -binv[:, 0] - binv[:, 1])
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
    areas, _ = space.cell_geometry(cells)
    local = 2.0 * areas[:, None] * np.einsum("q,tq,qk->tk", rule.weights, fvals, basis_at(rule))
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


def _int64_oracle(dim, rows, cols, data):
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()


@pytest.mark.parametrize("n", [1, 7, 64])
def test_local_to_global_matches_an_int64_coo_oracle_bitwise(n):
    """int32 COO indices give the same CSR arrays, duplicates summed in the
    same order, as the int64 scatter; rectangular blocks scattered together
    enter one COO entry by entry, block after block."""
    mesh = build_unit_square_mesh(n)
    rng = np.random.default_rng(n)
    local = rng.standard_normal((mesh.n_triangles, 3, 3))
    dofs = mesh.triangles.astype(np.int64)
    oracle = _int64_oracle(
        mesh.n_vertices, np.repeat(dofs, 3, axis=1).ravel(), np.tile(dofs, (1, 3)).ravel(), local.ravel()
    )
    got = local_to_global(mesh.n_vertices, (mesh.triangles, mesh.triangles, local))
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(oracle, name))

    # square, (m, 3) x (m, 1), (m, 1) x (m, 3) and 1 x 1 blocks; the two
    # triangles of a grid cell share one extra dof, so every block has duplicates
    extra = mesh.n_vertices + np.arange(mesh.n_triangles, dtype=np.int32) // 2
    right, below, diag = (rng.standard_normal(shape) for shape in [(mesh.n_triangles, 3)] * 2 + [mesh.n_triangles])
    dim = mesh.n_vertices + mesh.n_triangles // 2
    got = local_to_global(
        dim,
        (mesh.triangles, mesh.triangles, local),
        (mesh.triangles, extra[:, None], right[:, :, None]),
        (extra[:, None], mesh.triangles, below[:, None, :]),
        (extra[:, None], extra[:, None], diag[:, None, None]),
    )
    wide = np.repeat(extra.astype(np.int64), 3)
    oracle = _int64_oracle(
        dim,
        np.concatenate([np.repeat(dofs, 3, axis=1).ravel(), dofs.ravel(), wide, extra]),
        np.concatenate([np.tile(dofs, (1, 3)).ravel(), wide, dofs.ravel(), extra]),
        np.concatenate([local.ravel(), right.ravel(), below.ravel(), diag]),
    )
    assert got.indices.dtype == np.int32
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
    "kernel, bound_mib",
    [
        (lambda space, trig: load_vector(space, trig.f), 2.7),
        (lambda space, trig: error_norms(trig, space, fem.nodal_interpolant(trig.u, space)), 15.1),
        (lambda space, trig: stiffness_matrix(space), 37.1),
    ],
    ids=["load_vector", "error_norms", "stiffness_matrix"],
)
def test_volume_kernel_peak_memory_at_n_256(trig, kernel, bound_mib):
    """Bounds at the peaks of the triangle-major kernels, 2.69, 15.10 and
    37.02 MiB: the component-major rows add no temporary the size of the mesh."""
    space = P1Space(build_unit_square_mesh(256))
    assert _traced_peak_mib(lambda: kernel(space, trig)) <= bound_mib


@pytest.mark.parametrize(
    "assemble", [lambda s, p: fem.assemble(s, NitscheConfig(), p.f, p.g),
                 lambda s, p: fem.assemble(s, SaddleConfig(), p.f, p.g)],
    ids=["nitsche", "saddle"],
)
def test_assembly_peak_memory_at_n_256(trig, assemble):
    """int64 COO indices and a one-shot load vector peaked at 55.0 MiB, int32
    indices and a blocked load vector at 37.0 MiB."""
    space = P1Space(build_unit_square_mesh(256))
    assert _traced_peak_mib(lambda: assemble(space, trig)) <= 46.0


@pytest.mark.parametrize(
    "argv",
    [["--method", "nitsche", "--flux-variant", "variational"], ["--method", "lagrange", "--alpha", "0.25"]],
    ids=["nitsche", "lagrange"],
)
def test_live_memory_when_a_level_is_factored_at_n_256(monkeypatch, capsys, argv):
    """SuperLU starts on the system, the mesh and the facet table: 7.5 MiB
    traced at the Nitsche level solve, 14.5 MiB while P1Space kept
    per-triangle areas and gradients."""
    factor, live = linsolve._pivot_factorization, []

    def traced(matrix):
        live.append(tracemalloc.get_traced_memory()[0] / 2**20)
        return factor(matrix)

    monkeypatch.setattr(linsolve, "_pivot_factorization", traced)
    tracemalloc.start()
    try:
        assert main(["converge", "--kmin", "12", "--kmax", "12", *argv]) == 0
    finally:
        tracemalloc.stop()
    assert live and max(live) <= 9.0


@pytest.mark.parametrize("n", [1, 7, 64])
def test_space_keeps_no_table_sized_by_the_triangles(n):
    space = P1Space(build_unit_square_mesh(n))
    arrays = [value for value in (*vars(space).values(), *space.facets) if isinstance(value, np.ndarray)]
    assert [a.shape for a in arrays if a.shape[:1] == (space.mesh.n_triangles,)] == []


# -- one interface for both methods --------------------------------------------

METHOD_CONFIGS = [NitscheConfig(), NitscheConfig(beta=3.7, kappa=2.0), SaddleConfig(), SaddleConfig(alpha=0.1, kappa=2.0)]


def test_split_returns_no_multiplier_without_multiplier_dofs():
    matrix = sp.identity(5, format="csr")
    x = np.arange(5.0)
    u, lam = fem.LinearSystem(matrix, np.zeros(5), 5).split(x)
    assert np.array_equal(u, x) and lam is None
    system = fem.LinearSystem(matrix, np.zeros(5), 3)
    assert system.n_multiplier == 2
    u, lam = system.split(x)
    assert np.array_equal(u, [0.0, 1.0, 2.0]) and np.array_equal(lam, [3.0, 4.0])
    u, lam = fem.LinearSystem(matrix, np.zeros(5), 0).split(x)
    assert len(u) == 0 and np.array_equal(lam, x)


@pytest.mark.parametrize(
    "matrix, n_primal, error, message",
    [
        (sp.csr_matrix((3, 3)), 5, ValueError, "5 primal dofs do not fit a matrix of dimension 3"),
        (sp.csr_matrix((3, 3)), -1, ValueError, "-1 primal dofs do not fit a matrix of dimension 3"),
        (sp.csr_matrix((3, 4)), 3, ValueError, "matrix of 3 rows and 4 columns is not square"),
        (sp.csr_matrix((0, 0)), 0, ValueError, "matrix of dimension 0 has no dofs to solve for"),
        (np.eye(3), 3, TypeError, "matrix must be a scipy sparse matrix, got ndarray"),
    ],
    ids=["too-many-primal", "negative-primal", "non-square", "empty", "dense"],
)
def test_linear_system_refuses_sizes_that_do_not_fit(matrix, n_primal, error, message):
    """n_primal = 5 of a 3 x 3 matrix once gave n_multiplier = -2, which is
    truthy, so a solver picked the indefinite path for a pure primal system;
    a dense or 0 x 0 matrix once failed only inside the solver."""
    with pytest.raises(error, match=re.escape(message)):
        fem.LinearSystem(matrix, np.ones(3), n_primal)


@pytest.mark.parametrize("n_primal", [2, 3])
@pytest.mark.parametrize("x", [np.arange(2.0), np.arange(4.0), np.float64(1.0)], ids=["short", "long", "scalar"])
def test_split_refuses_a_solution_of_another_dimension(n_primal, x):
    system = fem.LinearSystem(sp.identity(3, format="csr"), np.ones(3), n_primal)
    message = f"solution of shape {np.shape(x)} does not fit a matrix of dimension 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        system.split(x)


@pytest.mark.parametrize("cfg", METHOD_CONFIGS, ids=repr)
def test_assembled_system_has_the_config_matrix_and_dofs(trig, cfg):
    space = P1Space(build_unit_square_mesh(5))
    system = fem.assemble(space, cfg, trig.f, trig.g)
    assert system.n_primal == space.n_dofs
    assert system.n_multiplier == (0 if isinstance(cfg, NitscheConfig) else space.mesh.n_facets)
    assert (system.matrix != cfg.matrix(space)).nnz == 0
    assert system.rhs.shape == (system.matrix.shape[0],)


@pytest.mark.parametrize("degree", [4, 6])
@pytest.mark.parametrize("cfg", METHOD_CONFIGS, ids=repr)
def test_assembled_rhs_is_the_dual_data_of_g_on_the_load_bitwise(trig, cfg, degree):
    """The primal right-hand side is cfg's dual data of g over the load vector,
    and the load vector passed in is left as it was."""
    space = P1Space(build_unit_square_mesh(7))
    load = load_vector(space, trig.f, degree)
    kept = load.copy()
    rhs = fem.assemble(space, cfg, trig.f, trig.g, degree).rhs
    assert np.array_equal(rhs, cfg.dual_data(space, trig.g, load))
    assert np.array_equal(load, kept)


@pytest.mark.parametrize("cfg", METHOD_CONFIGS, ids=repr)
def test_boundary_rows_of_the_assembled_rhs_are_the_dual_data_of_g(trig, cfg):
    """Rows that no triangle's load reaches carry the dual data of g alone: with
    f = 0 every row; with the trig load the multiplier rows."""
    space = P1Space(build_unit_square_mesh(6))
    zero = lambda x, y: np.zeros_like(x)  # noqa: E731
    dual = cfg.dual_data(space, trig.g)
    assert np.array_equal(fem.assemble(space, cfg, zero, trig.g).rhs, dual)
    rhs = fem.assemble(space, cfg, trig.f, trig.g).rhs
    assert np.array_equal(rhs[space.n_dofs :], dual[space.n_dofs :])
    assert not np.array_equal(rhs[: space.n_dofs], dual[: space.n_dofs])


@pytest.mark.parametrize("cfg", [NitscheConfig(), SaddleConfig()], ids=repr)
@pytest.mark.parametrize("size", [1, 24, 26])
def test_dual_data_refuses_a_load_of_another_size(trig, cfg, size):
    """A load vector must have one entry per P1 dof (25 at n = 4); one entry
    would otherwise broadcast over the multiplier system's primal rows."""
    space = P1Space(build_unit_square_mesh(4))
    with pytest.raises(ValueError, match=rf"sized \({size},\) do not match the space \(25\)"):
        cfg.dual_data(space, trig.g, np.ones(size))
