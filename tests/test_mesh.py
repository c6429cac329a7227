import numpy as np
import pytest

from fluxfem.fem import P1Space, triangle_quadrature
from fluxfem.mesh import (
    MAX_GRID_N,
    SIDE_NAMES,
    build_unit_square_mesh,
    distance_weight,
    offset_contour,
    split_segments_at_mesh_lines,
)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 16])
def test_entity_counts(n):
    mesh = build_unit_square_mesh(n)
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_triangles == 2 * n * n
    assert mesh.n_facets == 4 * n


def test_smallest_grid():
    mesh = build_unit_square_mesh(1)
    assert (mesh.n_vertices, mesh.n_triangles, mesh.n_facets) == (4, 2, 4)


def test_mesh_sizes():
    mesh = build_unit_square_mesh(4)
    assert mesh.h_grid == 0.25
    assert mesh.h_max == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-15)
    assert mesh.h_max == pytest.approx(0.353553, abs=1e-6)


@pytest.mark.parametrize("n", [1, 3, 4, 8, 13])
def test_area_and_boundary_length_sums(n):
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    assert np.all(space.areas > 0.0)
    assert abs(space.areas.sum() - 1.0) <= 1e-12
    assert abs(mesh.facet_lengths.sum() - 4.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 4, 9])
def test_outward_normals(n):
    mesh = build_unit_square_mesh(n)
    norms = np.hypot(mesh.facet_normals[:, 0], mesh.facet_normals[:, 1])
    assert np.max(np.abs(norms - 1.0)) <= 1e-14
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    midpoints = mesh.vertices[mesh.facet_vertices].mean(axis=1)
    toward_centroid = centroids[mesh.facet_parents] - midpoints
    assert np.all(np.einsum("fd,fd->f", mesh.facet_normals, toward_centroid) < 0.0)


def test_each_facet_belongs_to_one_triangle():
    mesh = build_unit_square_mesh(5)
    tri_edges = set()
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            tri_edges.add(frozenset((tri[a], tri[b])))
    seen = {}
    for k, (a, b) in enumerate(mesh.facet_vertices):
        edge = frozenset((int(a), int(b)))
        assert edge in tri_edges
        assert edge not in seen, "facet shared between two boundary entries"
        seen[edge] = k
        parent = mesh.triangles[mesh.facet_parents[k]]
        assert {int(a), int(b)} <= set(int(v) for v in parent)


def test_facet_side_metadata():
    mesh = build_unit_square_mesh(4)
    sides = [SIDE_NAMES[s] for s in mesh.facet_sides]
    assert sides[0] == "bottom"
    assert np.allclose(mesh.facet_normals[0], (0.0, -1.0))
    assert sides[4] == "right"
    assert sides[8] == "top"
    assert sides[12] == "left"
    assert all(length == pytest.approx(0.25) for length in mesh.facet_lengths)


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)
    with pytest.raises(ValueError):
        build_unit_square_mesh(-2)
    with pytest.raises(ValueError, match="mesh too large"):
        build_unit_square_mesh(MAX_GRID_N + 1)


def test_offset_contours():
    assert offset_contour(0.0).perimeter == pytest.approx(4.0, abs=1e-12)
    quarter = offset_contour(0.25)
    assert quarter.perimeter == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(quarter.corners.min(axis=0), (0.25, 0.25))
    assert np.allclose(quarter.corners.max(axis=0), (0.75, 0.75))
    assert offset_contour(0.49).perimeter == pytest.approx(0.08, abs=1e-12)
    assert offset_contour(0.1).segments.shape == (4, 2, 2)


def test_offset_contour_rejects_bad_delta():
    with pytest.raises(ValueError, match="exceeds inradius"):
        offset_contour(0.5)
    with pytest.raises(ValueError):
        offset_contour(-0.01)


def test_distance_weight_values():
    assert distance_weight((0.5, 0.5), 0.0) == pytest.approx(0.5)
    assert distance_weight((0.5, 0.3), 0.1) == pytest.approx(0.2)
    assert distance_weight((0.05, 0.5), 0.1) == 0.0
    # outside the closed square clamps to zero distance
    assert distance_weight((-0.2, 0.5), 0.0) == 0.0
    assert distance_weight((0.5, 1.3), 0.05) == 0.0
    arr = distance_weight(np.array([[0.5, 0.5], [0.1, 0.9]]), 0.0)
    assert np.allclose(arr, [0.5, 0.1])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_shifted_weight_vanishes_on_boundary_layer(n):
    """With delta' = h, the weight is identically zero on every triangle
    touching the boundary (vertices, quadrature points, edge midpoints)."""
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    rule = triangle_quadrature(6)
    pts = space.quadrature_points(rule)
    corners = mesh.vertices[mesh.triangles]
    mids = 0.5 * (corners + np.roll(corners, 1, axis=1))
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[np.unique(mesh.facet_vertices)] = True
    touches = on_boundary[mesh.triangles].any(axis=1)
    for sample in (pts, corners, mids):
        w = distance_weight(sample, mesh.h_grid)
        assert np.all(w[touches] == 0.0)
    # and the weight is positive somewhere strictly inside for n >= 3
    if n >= 3:
        assert distance_weight((0.5, 0.5), mesh.h_grid) > 0.0


def test_split_segment_at_mesh_lines():
    mesh = build_unit_square_mesh(4)
    # horizontal run at y = 0.3: grid cuts at 0.25/0.5/0.75 plus diagonal
    # crossings at x = 0.3 mod 0.25
    t, _ = split_segments_at_mesh_lines(mesh, [(0.0, 0.3)], [(1.0, 0.3)])
    xs = np.sort(t)
    expected = np.sort(
        np.concatenate([[0.0, 1.0], [0.25, 0.5, 0.75], [0.05, 0.3, 0.55, 0.8]])
    )
    assert np.allclose(xs, expected, atol=1e-12)
    # offsets on grid lines produce coincident cuts that are deduplicated
    t2, _ = split_segments_at_mesh_lines(mesh, [(0.0, 0.25)], [(1.0, 0.25)])
    assert np.allclose(np.sort(t2), [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        split_segments_at_mesh_lines(mesh, [(0.0, 0.0)], [(1.0, 1.0)])
    # a non-finite end would turn into a garbage cut count, so it is rejected
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            split_segments_at_mesh_lines(mesh, [(0.0, 0.3)], [(bad, 0.3)])


def test_mesh_arrays_immutable():
    mesh = build_unit_square_mesh(3)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 1
